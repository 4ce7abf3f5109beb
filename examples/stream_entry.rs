//! What entering a stream costs: the sequential typed loop over SpMV
//! rows of 0 / 1 / 2 / 4 / 16 nonzeros, in nanoseconds a row, three
//! ways — the row loop one segmented stream (every row through the
//! two-level kernel), each row's inner loop its own stream on the
//! catch-all instantiation (the same nest with the row loop's unit step
//! in a scalar, which a segmented stream does not take; no benchmark
//! row enters SpMV's stream per row, so its shape has no instantiation
//! of its own there), and the stream declined (the inner loop's
//! unit step in a scalar too: outside the stream family, the same
//! per-iteration block); then `scale`, one root stream, in nanoseconds
//! an element. The tables in EXPERIMENTS.md, "A stream stops deciding
//! per element" and "A sparse nest is one kernel".
//!
//! ```sh
//! cargo run --release --example stream_entry
//! ```

use irr_repro::exec::{ArrayData, CompiledDispatch, Interp};
use irr_repro::frontend::parse_program;
use std::time::Instant;

const ROWS: usize = 65_536;
const ELEMS: usize = 262_144;

fn ints(n: usize, f: impl Fn(usize) -> i64) -> ArrayData {
    let data: Vec<i64> = (0..n).map(f).collect();
    ArrayData::Int {
        dims: [n].into(),
        data: data.into(),
    }
}

fn reals(n: usize) -> ArrayData {
    let data: Vec<f64> = (0..n).map(|k| 0.5 + (k % 7) as f64).collect();
    ArrayData::Real {
        dims: [n].into(),
        data: data.into(),
    }
}

/// Best of 25 sequential typed runs of `src` in nanoseconds, and the
/// loop entries a stream fast-forwarded in one of them.
fn best_ns(src: &str, presets: &[(&str, ArrayData)]) -> (f64, u64) {
    let p = parse_program(src).expect("the harness source parses");
    let run = || {
        let mut it = Interp::new(&p);
        for (name, data) in presets {
            let var = p.symbols.lookup(name).expect("a declared array");
            // A buffer of its own, copied before the clock starts: a
            // kernel stores to some presets (`y`), and a shared one
            // would be copied inside the timed run.
            it.preset_array(var, data.copied());
        }
        let (mut d, t0) = (CompiledDispatch::new(), Instant::now());
        let out = it.run_dispatched(&mut d).expect("the kernel completes");
        let ns = t0.elapsed().as_nanos() as f64;
        assert!(d.compiled > 0, "the loop left the typed tier");
        (ns, out.stats.stream_entries)
    };
    let runs: Vec<(f64, u64)> = (0..25).map(|_| run()).collect();
    (runs.iter().map(|r| r.0).fold(f64::MAX, f64::min), runs[0].1)
}

/// `rows_step` and `step` are the row loop's and the inner loop's step
/// clauses.
fn spmv_row_ns(len: usize, rows_step: &str, step: &str) -> (f64, u64) {
    let e = (ROWS * len).max(1);
    let src = format!(
        "program rows
         integer i, j, n, one, rowptr({rp}), rowlen({ROWS}), colidx({e})
         real aval({e}), x({ROWS}), y({ROWS})
         n = {ROWS}
         one = 1
         do 100 i = 1, n{rows_step}
           y(i) = 0.0
           do j = 1, rowlen(i){step}
             y(i) = y(i) + aval(rowptr(i) + j - 1) * x(colidx(rowptr(i) + j - 1))
           enddo
 100     continue
         end",
        rp = ROWS + 1
    );
    let presets = [
        ("rowptr", ints(ROWS + 1, |i| (1 + i * len) as i64)),
        ("rowlen", ints(ROWS, |_| len as i64)),
        ("colidx", ints(e, |k| (k * 7 % 512 + 1) as i64)),
        ("aval", reals(e)),
        ("x", reals(ROWS)),
        ("y", reals(ROWS)),
    ];
    let (ns, entries) = best_ns(&src, &presets);
    (ns / ROWS as f64, entries)
}

fn main() {
    println!("nonzeros a row | segmented ns/row (entries) | per-row catch-all | declined ns/row");
    for len in [0, 1, 2, 4, 16] {
        let (seg, entries) = spmv_row_ns(len, "", "");
        let (rows, row_entries) = spmv_row_ns(len, ", one", "");
        let (off, none) = spmv_row_ns(len, ", one", ", one");
        assert_eq!(
            row_entries, entries,
            "both count a stream entry a row that iterates"
        );
        assert_eq!(none, 0, "a scalar step is outside the stream family");
        println!("{len:>14} | {seg:>16.1} ({entries:>5}) | {rows:>17.1} | {off:>15.1}");
    }
    let src = format!(
        "program scale
         integer k
         real aval({ELEMS}), bval({ELEMS})
         do 700 k = 1, {ELEMS}
           bval(k) = aval(k) * 1.5 + 0.25
 700     continue
         end"
    );
    let (ns, _) = best_ns(&src, &[("aval", reals(ELEMS)), ("bval", reals(ELEMS))]);
    println!(
        "scale, {ELEMS} elements: {:.2} ns an element",
        ns / ELEMS as f64
    );
}
