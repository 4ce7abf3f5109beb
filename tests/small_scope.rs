//! Small-scope check of the segmented stream, end to end: a handful of
//! offset–length row shapes, run on the compiled tier — whose typed
//! loop runs their rows through the two-level kernel as far as its row
//! guard admits them — and on the sequential tree-walk, over every
//! small input: row pointers and lengths in and out of range, an index
//! array with one subscript out of range, and every fuel budget of a
//! few inputs. Both runs must agree exactly: printed output, store,
//! statement costs (`first_divergence`), or the same error.
//!
//! The row guard itself is checked against a brute-force definition,
//! exhaustively over tiny inputs and views, in `irr-exec`'s unit tests
//! (`the_row_guard_admits_exactly_the_rows_in_view`).

use irr_driver::{compile_source, CompilationReport, DriverOptions};
use irr_exec::{ArrayData, CompiledDispatch, ExecError, ExecOutcome, Interp};
use irr_sanitizer::parity::{first_divergence, Reals};

/// Row shapes over three rows `do j = 1, len(i)` at `ptr(i) + j - 1`:
/// SpMV, Jacobi (an initialization from an element and a final store),
/// a scalar reduction, and the two lane shapes, `colscale`'s and
/// `lufront`'s.
const SHAPES: [(&str, &str, &str); 5] = [
    (
        "y(i) = 0.0",
        "y(i) = y(i) + a(ptr(i) + j - 1) * x(idx(ptr(i) + j - 1))",
        "",
    ),
    (
        "y(i) = b(i)",
        "y(i) = y(i) - a(ptr(i) + j - 1) * x(idx(ptr(i) + j - 1))",
        "y(i) = y(i) * b(i + 1)",
    ),
    ("s = 0.5", "s = s + a(ptr(i) + j - 1)", ""),
    ("", "a(ptr(i) + j - 1) = a(ptr(i) + j - 1) * 0.5 + 1.0", ""),
    (
        "",
        "a(ptr(i) + j - 1) = a(ptr(i) + j - 1) * 0.98 + x(ptr(i) + j - 1)",
        "",
    ),
];

fn source((init, stmt, fin): (&str, &str, &str)) -> String {
    format!(
        "program t
         integer i, j, ptr(3), len(3), idx(8)
         real s, a(8), x(8), y(3), b(4)
         do i = 1, 4
           b(i) = i * 0.75
         enddo
         do i = 1, 8
           a(i) = i * 0.5
           x(i) = 9 - i
         enddo
         do 10 i = 1, 3
           {init}
           do j = 1, len(i)
             {stmt}
           enddo
           {fin}
 10      continue
         print s, i, j, y(1), y(3), a(1), a(8)
         end"
    )
}

fn ints(v: &[i64]) -> ArrayData {
    ArrayData::Int {
        data: v.to_vec().into(),
        dims: [v.len()].into(),
    }
}

fn run(
    rep: &CompilationReport,
    presets: &[(&str, &[i64])],
    fuel: u64,
    typed: bool,
) -> Result<ExecOutcome, ExecError> {
    let mut it = Interp::new(&rep.program);
    it.fuel = fuel;
    for (name, v) in presets {
        it.preset_array(rep.program.symbols.lookup(name).unwrap(), ints(v));
    }
    if typed {
        let mut d = CompiledDispatch::new();
        let out = it.run_dispatched(&mut d);
        assert_eq!(d.fallback_count(), 0);
        out
    } else {
        it.run()
    }
}

/// The typed run of `presets` at `fuel` against the tree-walk's.
fn assert_same(
    rep: &CompilationReport,
    presets: &[(&str, &[i64])],
    fuel: u64,
) -> Result<u64, ExecError> {
    let want = run(rep, presets, fuel, false);
    let got = run(rep, presets, fuel, true);
    match (&want, &got) {
        (Ok(w), Ok(g)) => {
            let diff = first_divergence(rep, w, g, Reals::Exact);
            assert_eq!(diff, None, "{presets:?} fuel {fuel}");
            assert_eq!(w.store, g.store, "{presets:?} fuel {fuel}");
        }
        _ => assert_eq!(
            want.as_ref().err(),
            got.as_ref().err(),
            "{presets:?} fuel {fuel}"
        ),
    }
    want.map(|w| w.stats.total_cost)
}

#[test]
fn a_segmented_run_matches_the_tree_walk_on_every_small_input() {
    const FUEL: u64 = 1 << 30;
    // `x(idx(6))` is out of range: any row that reaches element 6.
    let idx = [2, 5, 1, 8, 3, 9, 4, 7];
    let (ptrs, lens) = ([-1, 1, 4, 7], [-1, 0, 2, 3]);
    let (mut runs, mut failed) = (0, 0);
    for shape in SHAPES {
        let rep = compile_source(&source(shape), DriverOptions::with_iaa()).unwrap();
        let main = rep
            .verdicts
            .iter()
            .find(|v| v.label.ends_with("do10"))
            .unwrap();
        let cb = irr_driver::compiled::lower_do_loop(&rep.program, main.loop_stmt).unwrap();
        assert!(cb.seg(0).is_some(), "{shape:?}");
        let mut at = [0usize; 6];
        loop {
            let ptr = [ptrs[at[0]], ptrs[at[1]], ptrs[at[2]]];
            let len = [lens[at[3]], lens[at[4]], lens[at[5]]];
            let presets: [(&str, &[i64]); 3] = [("ptr", &ptr), ("len", &len), ("idx", &idx)];
            runs += 1;
            match assert_same(&rep, &presets, FUEL) {
                // Every budget short of a completed run.
                Ok(cost) if at.iter().all(|&k| k % 2 == 1) => {
                    for fuel in 0..cost {
                        assert_eq!(assert_same(&rep, &presets, fuel), Err(ExecError::OutOfFuel));
                    }
                }
                Ok(_) => {}
                Err(_) => failed += 1,
            }
            let Some(k) = at.iter().position(|&k| k + 1 < 4) else {
                break;
            };
            at[k] += 1;
            at[..k].iter_mut().for_each(|v| *v = 0);
        }
    }
    // Both outcomes are well represented.
    assert!(
        failed > runs / 4 && failed < runs * 3 / 4,
        "{failed} of {runs}"
    );
}
