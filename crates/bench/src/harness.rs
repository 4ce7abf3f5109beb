//! A minimal timing harness for the `[[bench]]` targets.
//!
//! The repository builds with no network access, so the benches cannot
//! depend on an external framework such as criterion. This harness
//! keeps the familiar group / `bench_function` shape: each benchmark
//! warms up, takes `samples` wall-clock samples of the closure, and
//! prints min / median / mean nanoseconds per call. It prints and
//! nothing else: a number that is recorded, compared or gated comes
//! from `benchmark/` (see `benchmark/README.md`), which carries the
//! host, thread count, toolchain and commit with it.
//!
//! Command-line behavior (so the binaries stay friendly to `cargo
//! bench` and `cargo test --benches`):
//!
//! - a bare argument is a substring filter on `group/name`; a filter
//!   that matches no entry of the binary is reported on stderr by
//!   [`Runner::finalize`] (the exit code stays 0: `cargo bench -p
//!   irr-bench -- <filter>` hands the filter to every bench binary, and
//!   it rightly matches nothing in all but one);
//! - `--test` (passed by `cargo test --benches`) runs every benchmark
//!   exactly once, as a smoke test, without timing loops;
//! - `--samples N` overrides every group's sample count;
//! - other flags (`--bench`, etc.) are ignored.

use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

/// Top-level runner; parses the command line once per bench binary.
pub struct Runner {
    filter: Option<String>,
    check_only: bool,
    samples_override: Option<usize>,
    ran: Cell<usize>,
    skipped: Cell<usize>,
}

impl Runner {
    /// Builds a runner from `std::env::args`.
    pub fn from_env() -> Runner {
        let mut filter = None;
        let mut check_only = false;
        let mut samples_override = None;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            if a == "--test" {
                check_only = true;
            } else if a == "--samples" {
                samples_override = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .map(|n: usize| n.max(1));
            } else if !a.starts_with('-') && filter.is_none() {
                filter = Some(a);
            }
        }
        Runner {
            filter,
            check_only,
            samples_override,
            ran: Cell::new(0),
            skipped: Cell::new(0),
        }
    }

    /// Starts a named benchmark group (default 50 samples per entry).
    pub fn group(&self, name: &str) -> Group<'_> {
        Group {
            runner: self,
            name: name.to_string(),
            samples: self.samples_override.unwrap_or(50),
        }
    }

    /// The line [`Runner::finalize`] prints when a filter was given and
    /// no entry matched it.
    fn unmatched_filter_note(&self) -> Option<String> {
        let filter = self.filter.as_ref()?;
        (self.ran.get() == 0).then(|| {
            format!(
                "bench harness: filter {filter:?} matched none of this binary's {} entries",
                self.skipped.get()
            )
        })
    }

    /// Ends the run and returns the process exit code. Bench binaries
    /// end with `std::process::exit(runner.finalize())`.
    pub fn finalize(self) -> i32 {
        if let Some(note) = self.unmatched_filter_note() {
            eprintln!("{note}");
        }
        0
    }
}

/// A named group of benchmarks sharing a sample count.
pub struct Group<'r> {
    runner: &'r Runner,
    name: String,
    samples: usize,
}

impl Group<'_> {
    /// Sets the number of timed samples for subsequent entries (a
    /// `--samples` override on the command line wins).
    pub fn sample_size(&mut self, n: usize) {
        self.samples = self.runner.samples_override.unwrap_or(n.max(1));
    }

    /// Times `f`, which receives a fresh value from `setup` on every
    /// call (the setup cost is excluded from the measurement).
    pub fn bench_with_setup<S, R>(
        &mut self,
        id: &str,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(S) -> R,
    ) {
        let full = format!("{}/{}", self.name, id);
        let runner = self.runner;
        if let Some(filter) = &runner.filter {
            if !full.contains(filter.as_str()) {
                runner.skipped.set(runner.skipped.get() + 1);
                return;
            }
        }
        runner.ran.set(runner.ran.get() + 1);
        if runner.check_only {
            black_box(f(setup()));
            println!("{full}: ok (check mode)");
            return;
        }
        // Warmup.
        for _ in 0..2 {
            black_box(f(setup()));
        }
        let mut ns: Vec<u128> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let input = setup();
            let t = Instant::now();
            black_box(f(input));
            ns.push(t.elapsed().as_nanos());
        }
        ns.sort_unstable();
        let min = ns[0];
        let median = ns[ns.len() / 2];
        let mean = ns.iter().sum::<u128>() / ns.len() as u128;
        println!(
            "{full}: median {median} ns, min {min} ns, mean {mean} ns ({} samples)",
            ns.len()
        );
    }

    /// Times a closure with no per-call setup.
    pub fn bench_function<R>(&mut self, id: &str, mut f: impl FnMut() -> R) {
        self.bench_with_setup(id, || (), |()| f());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_runner(filter: Option<&str>, check_only: bool) -> Runner {
        Runner {
            filter: filter.map(str::to_string),
            check_only,
            samples_override: None,
            ran: Cell::new(0),
            skipped: Cell::new(0),
        }
    }

    #[test]
    fn bench_function_runs_closure() {
        let runner = test_runner(None, true);
        let mut called = 0;
        runner.group("g").bench_function("f", || called += 1);
        assert_eq!(called, 1);
        assert_eq!(runner.unmatched_filter_note(), None);
    }

    /// A filter that matches nothing runs nothing — and says so, naming
    /// the filter and how many entries it passed over; one that matches
    /// something stays silent about the rest.
    #[test]
    fn a_filter_that_matches_nothing_is_reported() {
        let runner = test_runner(Some("BENCH_x.json"), true);
        let mut called = 0;
        let mut g = runner.group("g");
        g.bench_function("f", || called += 1);
        g.bench_function("h", || called += 1);
        assert_eq!(called, 0);
        let note = runner.unmatched_filter_note().expect("reported");
        assert!(
            note.contains("\"BENCH_x.json\"") && note.contains("2 entries"),
            "{note}"
        );

        let runner = test_runner(Some("g/f"), true);
        let mut g = runner.group("g");
        g.bench_function("f", || called += 1);
        g.bench_function("h", || called += 1);
        assert_eq!(called, 1);
        assert_eq!(runner.unmatched_filter_note(), None);
    }

    #[test]
    fn samples_override_wins_over_the_group_setting() {
        let mut runner = test_runner(None, false);
        runner.samples_override = Some(2);
        let mut calls = 0;
        let mut g = runner.group("g");
        g.sample_size(50);
        g.bench_function("f", || calls += 1);
        // Two warm-up calls, then the two samples.
        assert_eq!(calls, 4);
    }
}
