//! End-to-end checks of every worked example in the paper, plus
//! thread-level verification that the benchmark kernels' irregular
//! loops really are parallel.

use irr_driver::{compile_source, DriverOptions, PhaseOrder};
use irr_exec::{run_loop_parallel, Interp, ParallelPlan};
use irr_programs::{all, Scale};
use irr_sanitizer::parity::{store_divergence, Reals};

/// Fig. 1(b): the array stack. The outer loop parallelizes via the
/// STACK evidence.
#[test]
fn fig1b_stack_loop_parallelizes() {
    let src = "program fig1b
      integer i, j, n, m, p, cond(64)
      real t(64), work(64), out(64)
      n = 32
      m = 24
      call init
      do 100 i = 1, n
        p = 0
        do j = 1, m
          p = p + 1
          t(p) = work(j) + i
          if (cond(j) > 0) then
            ! drain the stack: reads reach elements pushed in *earlier*
            ! j-iterations, so only the stack discipline proves
            ! written-before-read
            while (p >= 1)
              out(i) = out(i) + t(p)
              p = p - 1
            endwhile
          endif
        enddo
 100  continue
      print out(1), out(32)
    end
    subroutine init
      integer w
      do w = 1, 64
        work(w) = w * 0.25
        cond(w) = mod(w, 3)
      enddo
    end";
    let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
    let v = rep.verdict("FIG1B/do100").expect("loop exists");
    assert!(v.parallel, "{v:?}");
    assert!(v.privatized_arrays.iter().any(|(_, tag)| *tag == "STACK"));
    let without = compile_source(src, DriverOptions::without_iaa()).unwrap();
    assert!(!without.verdict("FIG1B/do100").unwrap().parallel);
}

/// Fig. 1(c): indirect read through a bounded index array.
#[test]
fn fig1c_indirect_privatization() {
    let src = "program fig1c
      integer i, j, k, n, m, q, pos(64)
      real x(64), y(64), z(64, 64)
      n = 16
      m = 32
      call gather
      do 100 i = 1, n
        do j = 1, m
          x(j) = y(i) + j * 0.5
        enddo
        do k = 1, q
          z(i, k) = x(pos(k))
        enddo
 100  continue
      print z(1, 1)
    end
    subroutine gather
      integer w
      do w = 1, 64
        y(w) = mod(w * 3, 7) * 0.4
      enddo
      q = 0
      do w = 1, m
        if (y(w) > 1.0) then
          q = q + 1
          pos(q) = w
        endif
      enddo
    end";
    let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
    let v = rep.verdict("FIG1C/do100").expect("loop exists");
    assert!(v.parallel, "{v:?}");
    assert!(v.privatized_arrays.iter().any(|(_, tag)| *tag == "CFB"));
    assert!(
        !compile_source(src, DriverOptions::without_iaa())
            .unwrap()
            .verdict("FIG1C/do100")
            .unwrap()
            .parallel
    );
}

/// The Fig. 15 phase-order ablation on a real benchmark: DYFESM's
/// offset-length loops need interprocedural queries (pptr/iblen are
/// defined in `setup`), so the original per-unit organization loses
/// them.
#[test]
fn phase_order_ablation_on_dyfesm() {
    let b = all(Scale::Test)
        .into_iter()
        .find(|b| b.name == "DYFESM")
        .unwrap();
    let reorganized = compile_source(&b.source, DriverOptions::with_iaa()).unwrap();
    let original = compile_source(
        &b.source,
        DriverOptions {
            phase_order: PhaseOrder::Original,
            ..DriverOptions::with_iaa()
        },
    )
    .unwrap();
    for label in &b.irregular_labels {
        assert!(reorganized.verdict(label).unwrap().parallel, "{label}");
        assert!(
            !original.verdict(label).unwrap().parallel,
            "{label} should need the reorganized phases"
        );
    }
}

/// APO (no inlining, no interprocedural constants) is strictly weaker
/// than Polaris on at least one benchmark loop inventory.
#[test]
fn apo_is_weakest() {
    for b in all(Scale::Test) {
        let apo = compile_source(&b.source, DriverOptions::apo()).unwrap();
        let polaris = compile_source(&b.source, DriverOptions::without_iaa()).unwrap();
        let with = compile_source(&b.source, DriverOptions::with_iaa()).unwrap();
        let napo = apo.parallel_labels().len();
        let npol = polaris.parallel_labels().len();
        let nwith = with.parallel_labels().len();
        assert!(napo <= npol, "{}: APO {napo} > Polaris {npol}", b.name);
        assert!(npol < nwith, "{}: IAA must add loops", b.name);
    }
}

/// Thread-level verification: each benchmark's headline irregular loop
/// executes in parallel chunks with results identical to the sequential
/// run.
#[test]
fn benchmark_irregular_loops_execute_in_parallel() {
    for b in all(Scale::Test) {
        let rep = compile_source(&b.source, DriverOptions::with_iaa()).unwrap();
        let seq = Interp::new(&rep.program).run().unwrap();
        // The headline loop is the first irregular label; it must be a
        // do-loop reachable at top level of its procedure (benchmark
        // kernels are built that way) — run it chunked.
        let label = b.irregular_labels[0];
        let v = rep.verdict(label).unwrap();
        let plan = ParallelPlan {
            threads: 3,
            ..ParallelPlan::for_verdict(v)
        };
        let par = match run_loop_parallel(&rep.program, v.loop_stmt, &plan) {
            Ok(st) => st,
            Err(e) => panic!("{}: {label}: {e}", b.name),
        };
        // Everything the loop does not privatize must match.
        let exempt = v.privatized_vars().collect();
        let diff = store_divergence(&rep.program, &exempt, &seq.store, &par, Reals::Exact);
        assert_eq!(diff, None, "{}: after parallel {label}", b.name);
    }
}

/// Table 2's analysis share: the property analysis is a bounded
/// fraction of compilation (the paper: 4.5%–10.9% on full codes).
#[test]
fn property_analysis_time_is_bounded() {
    for b in all(Scale::Test) {
        let rep = compile_source(&b.source, DriverOptions::with_iaa()).unwrap();
        assert!(
            rep.stats.property_time <= rep.stats.total_time,
            "{}",
            b.name
        );
        // TREE needs no property queries (the stack analysis is pure
        // bDFS); every other benchmark issues them.
        if b.name != "TREE" {
            assert!(
                rep.stats.property_queries > 0,
                "{}: IAA ran queries",
                b.name
            );
        }
    }
}

/// The annotated-source emission (Polaris's output artifact) is inert:
/// the directives are comments, so the annotated benchmark kernels
/// reparse and run to identical checksums.
#[test]
fn annotated_benchmarks_run_identically() {
    for b in all(Scale::Test) {
        let rep = compile_source(&b.source, DriverOptions::with_iaa()).unwrap();
        let annotated = irr_driver::emit_annotated(&rep);
        assert!(
            annotated.contains("!$omp parallel do"),
            "{}: no directives emitted",
            b.name
        );
        let reparsed = irr_frontend::parse_program(&annotated)
            .unwrap_or_else(|e| panic!("{}: {e}\n{annotated}", b.name));
        let out1 = Interp::new(&rep.program).run().unwrap().output;
        let out2 = Interp::new(&reparsed).run().unwrap().output;
        assert_eq!(out1, out2, "{}", b.name);
    }
}
