//! Where a compile's time goes: microseconds per program for parse, each
//! Fig. 15 pass, the core analyses and the judge (`compile` minus what
//! the replay accounts for), on `benchmark/`'s `service-cold` request
//! sample and its `compile-corpus` set at the default seed. The passes
//! and analyses are replayed through their public functions in driver
//! order, as `benchmark/src/compile.rs` does; each figure is the mean
//! over programs of a program's median over the rounds. The per-pass
//! table in EXPERIMENTS.md, "The pass pipeline stops copying the
//! program".
//!
//! ```sh
//! cargo run --release --example compile_phases
//! ```

use irr_repro::core::{AnalysisCtx, EvolutionAnalysis, SummaryAnalysis};
use irr_repro::driver::{compile, DriverOptions};
use irr_repro::exec::SplitMix64;
use irr_repro::frontend::parse_program;
use irr_repro::passes::{
    eliminate_dead_code, forward_substitute, inline_small_procedures, normalize_loops,
    propagate_constants, substitute_induction_variables,
};
use irr_repro::programs::compile_corpus;
use irr_repro::programs::fuzz::random_loop_program;
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 3269;
const ROUNDS: usize = 15;
const PHASES: [&str; 13] = [
    "parse",
    "inline",
    "constprop",
    "normalize",
    "induction",
    "forward_sub",
    "dce",
    "pipeline",
    "ctx",
    "summaries",
    "evolution",
    "judge",
    "compile",
];

/// `benchmark/src/service.rs`' first 256 request sources of client 0 — a
/// copy of its sampling, to keep in step with it by hand.
fn cold_sample() -> Vec<String> {
    (0..256u64)
        .map(|n| {
            let rs = SplitMix64::new(SEED ^ (1 << 48) ^ n).next_u64();
            let src = random_loop_program(&mut SplitMix64::new(rs));
            src.replacen("program f", &format!("program f1x{n}"), 1)
        })
        .collect()
}

/// One round over one program: nanoseconds per phase, in `PHASES` order.
fn round(src: &str) -> [f64; PHASES.len()] {
    let mut ns = [0.0; PHASES.len()];
    let mut time = |k: usize, t0: Instant| ns[k] += t0.elapsed().as_nanos() as f64;
    let t0 = Instant::now();
    let parsed = parse_program(src).expect("the sources are well formed");
    time(0, t0);
    let mut p = parsed.clone();
    let opts = DriverOptions::with_iaa();
    let t0 = Instant::now();
    black_box(compile(parsed, opts));
    time(12, t0);
    let tp = Instant::now();
    let t0 = Instant::now();
    inline_small_procedures(&mut p, opts.inline_limit);
    time(1, t0);
    let t0 = Instant::now();
    propagate_constants(&mut p);
    time(2, t0);
    let t0 = Instant::now();
    normalize_loops(&mut p);
    time(3, t0);
    let t0 = Instant::now();
    substitute_induction_variables(&mut p);
    time(4, t0);
    let t0 = Instant::now();
    propagate_constants(&mut p);
    time(2, t0);
    let t0 = Instant::now();
    forward_substitute(&mut p);
    time(5, t0);
    let t0 = Instant::now();
    eliminate_dead_code(&mut p);
    time(6, t0);
    time(7, tp);
    let t0 = Instant::now();
    let ctx = AnalysisCtx::new(&p);
    time(8, t0);
    let t0 = Instant::now();
    let summaries = SummaryAnalysis::new_budgeted(&ctx, None);
    time(9, t0);
    let t0 = Instant::now();
    black_box(EvolutionAnalysis::budgeted(&ctx, Some(&summaries), None));
    time(10, t0);
    ns[11] = ns[12] - ns[7] - ns[8] - ns[9] - ns[10];
    ns
}

/// Mean over `sources` of each phase's median over the rounds, in µs.
fn phases(sources: &[String]) -> [f64; PHASES.len()] {
    let mut mean = [0.0; PHASES.len()];
    for src in sources {
        let rounds: Vec<_> = (0..ROUNDS).map(|_| round(src)).collect();
        for (k, m) in mean.iter_mut().enumerate() {
            let mut v: Vec<f64> = rounds.iter().map(|r| r[k]).collect();
            v.sort_by(f64::total_cmp);
            *m += v[ROUNDS / 2] / 1e3 / sources.len() as f64;
        }
    }
    mean
}

fn main() {
    let (cold, corpus) = (cold_sample(), compile_corpus(SEED));
    let (a, b) = (phases(&cold), phases(&corpus));
    println!(
        "µs per program   service-cold ({})   compile-corpus ({})",
        cold.len(),
        corpus.len()
    );
    for (k, name) in PHASES.iter().enumerate() {
        println!("{name:<16} {:>18.2} {:>21.2}", a[k], b[k]);
    }
}
