//! Interpreter and machine-model edge cases beyond the unit tests.

use irr_exec::{simulate_speedup, Interp, LoopProfile, MachineModel, ProgramProfile, SplitMix64};
use irr_frontend::parse_program;
use std::collections::HashMap;

fn run(src: &str) -> irr_exec::ExecOutcome {
    let p = parse_program(src).unwrap();
    Interp::new(&p).run().unwrap()
}

#[test]
fn intrinsics_evaluate() {
    let out = run("program t
         real a, b
         a = sqrt(9.0) + abs(0.0 - 2.5) + exp(0.0) + log(1.0)
         b = sin(0.0) + cos(0.0) + max(1.5, 2.5) + min(1, 2) + real(3) + int(4.7)
         print a, b
         end");
    assert_eq!(out.output, vec!["6.5 11.5"]);
}

/// A 2-D access whose subscripts hold 2-D accesses: every level
/// gathers its own subscripts, so the outer access reads the element
/// its inner ones name, and a bad inner subscript is the inner array's
/// error.
#[test]
fn nested_multi_dimensional_subscripts() {
    let src = "program t
         integer i, j, k(2, 2)
         real a(2, 3)
         k(1, 1) = 1
         k(1, 2) = 2
         k(2, 1) = 2
         k(2, 2) = 3
         do i = 1, 2
           do j = 1, 3
             a(i, j) = i * 10 + j
           enddo
         enddo
         print a(k(1, 1), k(2, 2)), a(k(2, 1), k(k(1, 1), k(1, 2))), a(k(1, 2), 1)
         print a(k(1, 1), k(2, 3))
         end";
    let p = parse_program(src).unwrap();
    let err = Interp::new(&p).run().unwrap_err();
    assert_eq!(
        err.to_string(),
        "subscript 3 out of bounds for `k` (extent 2)"
    );
    let out = run(&src.replace("print a(k(1, 1), k(2, 3))", ""));
    assert_eq!(out.output, vec!["13 22 21"]);
}

#[test]
fn negative_step_loops() {
    let out = run("program t
         integer i, total
         total = 0
         do i = 10, 1, 0 - 2
           total = total + i
         enddo
         print total, i
         end");
    // 10 + 8 + 6 + 4 + 2 = 30; i ends at 0.
    assert_eq!(out.output, vec!["30 0"]);
}

#[test]
fn deep_call_chains() {
    let out = run("program t
         integer k
         call a
         print k
         end
         subroutine a
         k = k + 1
         call b
         end
         subroutine b
         k = k + 10
         call c
         end
         subroutine c
         k = k + 100
         end");
    assert_eq!(out.output, vec!["111"]);
}

#[test]
fn logical_value_in_numeric_position() {
    let out = run("program t
         integer a, b
         a = (3 > 2)
         b = (2 > 3)
         print a, b, (1 < 2) + (4 < 3)
         end");
    assert_eq!(out.output, vec!["1 0 1"]);
}

/// Extents are literals fixed at parse time (a symbolic or non-positive
/// one is a parse error, `parser_robustness.rs`), and every declared
/// array exists from the first statement with them: one the program
/// never touches, behind a branch never taken, included.
#[test]
fn every_declared_array_is_live_with_its_declared_extents() {
    let p = parse_program(
        "program t
         integer i, k(3)
         real x(5), w(3, 2)
         do i = 1, 5
           x(i) = i
           if (i > 9) then
             w(1, 1) = k(1)
           endif
         enddo
         print x(5)
         end",
    )
    .unwrap();
    let out = Interp::new(&p).run().unwrap();
    assert_eq!(out.output, vec!["5"]);
    let array = |name: &str| out.store.array_ref(p.symbols.lookup(name).unwrap());
    let zeroed = |ty, dims| Some(irr_exec::ArrayData::zeroed(ty, dims));
    use irr_frontend::ScalarType::{Int, Real};
    assert_eq!(array("w").cloned(), zeroed(Real, vec![3, 2]));
    assert_eq!(array("k").cloned(), zeroed(Int, vec![3]));
}

/// The machine model is sane: speedup at P=1 is exactly 1, parallel
/// time is at least the critical chunk, and speedup never exceeds P
/// (no superlinear artifacts). Cases drawn from a deterministic
/// SplitMix64 stream.
#[test]
fn machine_model_sanity() {
    let mut rng = SplitMix64::new(0x8001);
    for _ in 0..128 {
        let iters = rng.range_usize(1, 399);
        let cost = rng.range_i64(1, 49) as u64;
        let invocations = rng.range_usize(1, 4);
        let serial_extra = rng.range_i64(0, 9_999) as u64;
        let p = rng.range_usize(1, 39);
        let inv: Vec<Vec<u64>> = (0..invocations).map(|_| vec![cost; iters]).collect();
        let loop_total = (iters as u64) * cost * invocations as u64;
        let mut loops = HashMap::new();
        loops.insert(
            irr_frontend::StmtId(0),
            LoopProfile {
                total_cost: loop_total,
                invocations: inv,
            },
        );
        let profile = ProgramProfile {
            total_cost: loop_total + serial_extra,
            parallel_loops: loops,
        };
        let m = MachineModel::origin2000();
        let s1 = simulate_speedup(&profile, 1, &m);
        assert!((s1 - 1.0).abs() < 1e-9, "s1 = {s1}");
        let sp = simulate_speedup(&profile, p, &m);
        assert!(sp > 0.0);
        assert!(sp <= p as f64 + 1e-9, "superlinear: {sp} at P={p}");
    }
}
