//! Property-based soundness tests (deterministic, offline).
//!
//! Two invariants over *randomly generated* programs:
//!
//! 1. **Pass soundness** — the Fig. 15 scalar pipeline preserves
//!    observable behavior: interpreting the transformed program prints
//!    exactly what the original prints.
//! 2. **Parallelization soundness** — every loop the driver declares
//!    parallel really is: executing it in 4 thread-chunks (with the
//!    verdict's privatized variables and reductions) produces exactly
//!    the sequential store, with no write conflicts.
//!
//! The generator is deliberately adversarial for these analyses: it
//! mixes regular sweeps, shifted accesses, consecutively-written fills,
//! conditional gather loops, indirect uses, scalar temporaries, and
//! reductions. Cases are drawn from an in-tree [`SplitMix64`] stream so
//! the suite is reproducible without a property-testing framework.

use irr_driver::{compile_source, DriverOptions};
use irr_exec::{Interp, ParallelPlan, SplitMix64};
use irr_frontend::StmtKind;
use irr_programs::fuzz::{random_cases, strategy_programs};
use irr_sanitizer::parity::{dispatched, first_divergence, OneLoopInChunks, Reals};

/// One candidate loop-body shape for the generated outer loop.
#[derive(Clone, Copy, Debug)]
enum BodyShape {
    /// a(i) = b(i) * k + i
    Regular,
    /// a(i) = a(i+1) + 1 (carried!)
    ShiftedRead,
    /// a(1) = i (carried output dependence, observable)
    ConstantTarget,
    /// fill tmp(1..m) then read tmp(j)
    ScratchFill,
    /// conditional gather into idx via q, then z(idx(k)) use
    GatherUse,
    /// s = s + a(i)
    Reduction,
    /// s = max(s, a(i)) — exercises the min/max reduction merge.
    MaxReduction,
    /// t = a(i); b(i) = t * 2 (privatizable scalar)
    ScalarTemp,
    /// q = q + 1; a(q) = i (consecutively written)
    ConsecutiveFill,
    /// do i = 2, n, 3 ... enddo; m = m + i (the index's exit value)
    StridedExit,
    /// do i = lim(1), n, 2 with lim(1) written in the body
    StridedArrayBound,
    /// q = q + 1 in a loop to lim(2), lim(2) written in the body
    IncrementBesideArrayBound,
}

const ALL_SHAPES: [BodyShape; 12] = [
    BodyShape::Regular,
    BodyShape::ShiftedRead,
    BodyShape::ConstantTarget,
    BodyShape::ScratchFill,
    BodyShape::GatherUse,
    BodyShape::Reduction,
    BodyShape::MaxReduction,
    BodyShape::ScalarTemp,
    BodyShape::ConsecutiveFill,
    BodyShape::StridedExit,
    BodyShape::StridedArrayBound,
    BodyShape::IncrementBesideArrayBound,
];

/// Draws 1–3 body shapes from the random stream.
fn draw_shapes(rng: &mut SplitMix64) -> Vec<BodyShape> {
    let count = rng.range_usize(1, 3);
    (0..count).map(|_| *rng.choose(&ALL_SHAPES)).collect()
}

/// Generates a whole program from a list of loop shapes.
fn render_program(shapes: &[BodyShape], n: usize, seed: i64) -> String {
    let mut loops = String::new();
    for (k, shape) in shapes.iter().enumerate() {
        let label = 100 + 10 * k;
        let body = match shape {
            BodyShape::Regular => format!(
                "  do {label} i = 1, {n}\n    a(i) = b(i) * 2.0 + i\n {label} continue\n"
            ),
            BodyShape::ShiftedRead => format!(
                "  do {label} i = 1, {nm}\n    a(i) = a(i + 1) + 1.0\n {label} continue\n",
                nm = n - 1
            ),
            BodyShape::ConstantTarget => format!(
                "  do {label} i = 1, {n}\n    a(1) = a(1) + i\n {label} continue\n"
            ),
            BodyShape::ScratchFill => format!(
                "  do {label} i = 1, {n}\n    do j = 1, 8\n      tmp(j) = b(i) + j\n    enddo\n    c(i) = tmp(1) + tmp(8)\n {label} continue\n"
            ),
            BodyShape::GatherUse => format!(
                "  q = 0\n  do {label} i = 1, {n}\n    if (b(i) > 0.5) then\n      q = q + 1\n      idx(q) = i\n    endif\n {label} continue\n  do k = 1, q\n    z(idx(k)) = b(idx(k)) * 3.0\n  enddo\n"
            ),
            BodyShape::Reduction => format!(
                "  do {label} i = 1, {n}\n    s = s + b(i)\n {label} continue\n"
            ),
            BodyShape::MaxReduction => format!(
                "  do {label} i = 1, {n}\n    s = max(s, b(i) + i * 0.5)\n {label} continue\n"
            ),
            BodyShape::ScalarTemp => format!(
                "  do {label} i = 1, {n}\n    t = b(i) * 0.5\n    c(i) = t + t\n {label} continue\n"
            ),
            BodyShape::ConsecutiveFill => format!(
                "  q = 0\n  do {label} i = 1, {n}\n    q = q + 1\n    a(q) = i * 1.0\n {label} continue\n"
            ),
            BodyShape::StridedExit => format!(
                "  do {label} i = 2, {n}, 3\n    a(i) = b(i) + 1.0\n {label} continue\n  m = m + i\n"
            ),
            BodyShape::StridedArrayBound => format!(
                "  lim(1) = 1\n  do {label} i = lim(1), {n}, 2\n    m = m + i\n    lim(1) = 5\n {label} continue\n"
            ),
            BodyShape::IncrementBesideArrayBound => format!(
                "  lim(2) = {h}\n  q = 0\n  do {label} i = 1, lim(2)\n    q = q + 1\n    a(q) = i * 1.0\n    lim(2) = {n}\n {label} continue\n  m = m + q\n",
                h = n / 2
            ),
        };
        loops.push_str(&body);
    }
    format!(
        "program gen
  integer i, j, k, m, q, n, idx({n}), lim(2)
  real a({n}), b({n}), c({n}), z({n}), tmp(8), s, t
  n = {n}
  m = 0
  call init
{loops}  print s, m, a(1), a({n}), c(1), z(1)
end

subroutine init
  integer w
  do w = 1, {n}
    b(w) = mod(w * {seed}, 17) * 0.1
    a(w) = mod(w * 3, 5) * 1.0
  enddo
end
"
    )
}

/// Invariant 1: the pass pipeline preserves printed output — on the
/// generator above, the random loop programs and the strategy programs.
#[test]
fn passes_preserve_semantics() {
    let mut rng = SplitMix64::new(0x5001);
    let generated = (0..48).map(|_| {
        let shapes = draw_shapes(&mut rng);
        let seed = rng.range_i64(1, 49);
        render_program(&shapes, 24, seed)
    });
    let strategy = strategy_programs().map(|p| p.case.source);
    for src in generated.chain(strategy) {
        let original = irr_frontend::parse_program(&src).unwrap();
        let before = Interp::new(&original).run().unwrap();
        assert_same_output_after_passes(&src, &before.output);
    }
    let mut ran = 0;
    for case in random_cases(0x5003, 256) {
        let original = irr_frontend::parse_program(&case.source).unwrap();
        // A random body that appends twice runs past `w`: the program's
        // own error, which dead-code elimination may legitimately drop.
        let Ok(before) = Interp::new(&original).run() else {
            continue;
        };
        assert_same_output_after_passes(&case.source, &before.output);
        ran += 1;
    }
    assert!(ran > 200, "only {ran} of 256 random programs ran");
}

fn assert_same_output_after_passes(src: &str, before: &[String]) {
    let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
    let after = Interp::new(&rep.program).run().unwrap();
    assert_eq!(before, &after.output[..], "output diverged for\n{src}");
}

/// Invariant 2: loops judged parallel execute correctly in chunks.
#[test]
fn parallel_verdicts_are_sound() {
    let mut rng = SplitMix64::new(0x5002);
    for _ in 0..48 {
        let shapes = draw_shapes(&mut rng);
        let seed = rng.range_i64(1, 49);
        let threads = rng.range_usize(2, 4);
        let src = render_program(&shapes, 24, seed);
        let rep = compile_source(&src, DriverOptions::with_iaa()).unwrap();
        let seq = Interp::new(&rep.program).run().unwrap();
        let main = rep.program.main();
        let top_level: Vec<_> = rep.program.procedures[main.index()].body.clone();
        for v in &rep.verdicts {
            if !v.parallel || !top_level.contains(&v.loop_stmt) {
                continue;
            }
            if !matches!(rep.program.stmt(v.loop_stmt).kind, StmtKind::Do { .. }) {
                continue;
            }
            let plan = ParallelPlan::for_verdict(v, threads);
            let mut chunked = OneLoopInChunks::new(v.loop_stmt, plan);
            let par = dispatched(&rep, &[], &mut chunked)
                .unwrap_or_else(|e| panic!("{}: {e}\n{src}", v.label));
            assert!(
                chunked.committed > 0 && chunked.failed.is_empty(),
                "{}: {} committed, fell back {:?}\n{src}",
                v.label,
                chunked.committed,
                chunked.failed
            );
            // Reals modulo reassociation: chunked summation
            // reassociates.
            let diff = first_divergence(&rep, &seq, &par, Reals::Reassociated);
            assert_eq!(diff, None, "{}\n{src}", v.label);
        }
    }
}

// ---------------------------------------------------------------------
// Adversarial audits: the dependence sanitizer cross-checks verdicts on
// programs built to stress the exact seams where static reasoning and
// dynamic behavior can disagree.
// ---------------------------------------------------------------------

use irr_driver::DispatchTier;
use irr_exec::TraceConfig;
use irr_sanitizer::{audit_report, AuditConfig, AuditMode, DepKind, DependenceTracer, FindingKind};

fn audit_cfg() -> AuditConfig {
    AuditConfig {
        seed: 0x5A11,
        inputs: 4,
        mode: AuditMode::Full,
    }
}

/// Stack discipline broken by popping below the iteration's own bottom:
/// iteration `i` pops past its own pushes into an element iteration
/// `i - 1` pushed — a real carried flow dependence. The verdict must be
/// sequential, the tracer must exhibit the dependence, and the audit
/// must report neither a violation nor a precision gap.
#[test]
fn stack_pop_below_bottom_is_carried_and_stays_serial() {
    let src = "program t
         integer i, p, n
         real stk(64), out(64)
         n = 16
         p = 0
         do 100 i = 1, n
           p = p + 1
           stk(p) = i * 1.0
           out(i) = stk(p)
           if (p >= 2) then
             p = p - 1
             out(i) = out(i) + stk(p)
           endif
 100     continue
         print out(1), out(16)
         end";
    let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
    let v = rep.verdict("T/do100").expect("verdict exists");
    assert!(!v.parallel, "pop-below-bottom must stay serial: {v:?}");
    assert!(matches!(v.tier, DispatchTier::Sequential), "{v:?}");
    // The dynamic run really exhibits the carried flow dependence on the
    // stack array.
    let (tracer, handle) = DependenceTracer::from_report(&rep);
    let mut it = Interp::new(&rep.program);
    it.attach_tracer(TraceConfig::only([v.loop_stmt]), Box::new(tracer));
    it.run().unwrap();
    let log = handle.borrow().clone();
    let stk = rep.program.symbols.lookup("stk").unwrap();
    let ex = &log.executions_of(v.loop_stmt)[0];
    let w = ex
        .dep_on(stk, DepKind::Flow)
        .expect("carried flow dependence on stk observed");
    assert_eq!(w.distance(), 1, "{w:?}");
    // And the audit agrees with the verdict: no finding of either kind.
    let audit = audit_report(&rep, &audit_cfg());
    assert!(audit.is_sound(), "{:?}", audit.findings);
    assert!(
        !audit.findings.iter().any(|f| f.label == "T/do100"),
        "{:?}",
        audit.findings
    );
}

/// A runtime-guarded loop whose index array is smashed *through a
/// procedure call* between two dynamic executions: the guard must be
/// replayed at each entry, pass on the injective first execution, fail
/// on the corrupted second — and because the dependent execution was
/// never cleared, the audit stays sound.
#[test]
fn index_array_mutated_through_call_between_executions() {
    // `smash` is padded past the inlining threshold (dead statements
    // behind `r < 0`) so the call — and the mutation it hides from the
    // analysis — survives the pass pipeline.
    let mut filler = String::new();
    for k in 0..60 {
        filler.push_str(&format!("  dummy({}) = {k}\n", k + 1));
    }
    let src = format!(
        "program t
         integer i, r, n, p(8), dummy(64)
         real z(8), x(8)
         n = 8
         do i = 1, n
           p(i) = mod(i * 3, n) + 1
           x(i) = i * 1.0
         enddo
         do 50 r = 1, 2
           do 20 i = 1, n
             z(p(i)) = x(i) + r
 20        continue
           call smash
 50      continue
         print z(1), z(8)
         end
         subroutine smash
           p(2) = p(1)
           if (r < 0) then
{filler}           endif
         end"
    );
    let rep = compile_source(&src, DriverOptions::with_iaa()).unwrap();
    let v = rep.verdict("T/do20").expect("verdict exists");
    assert!(
        matches!(v.tier, DispatchTier::RuntimeGuarded(_)),
        "inner loop must be runtime-guarded: {v:?}"
    );
    let (tracer, handle) = DependenceTracer::from_report(&rep);
    let mut it = Interp::new(&rep.program);
    it.attach_tracer(TraceConfig::only([v.loop_stmt]), Box::new(tracer));
    it.run().unwrap();
    let log = handle.borrow().clone();
    let execs = log.executions_of(v.loop_stmt);
    assert_eq!(execs.len(), 2);
    // Execution 1: p is a mod-permutation, guard passes, no dependence.
    assert_eq!(execs[0].guard_passed, Some(true));
    assert!(!execs[0].has_deps(), "{:?}", execs[0]);
    // Execution 2: the call collapsed p(2) onto p(1); the replayed guard
    // fails, and the run exhibits the output dependence on z the guard
    // protected against.
    assert_eq!(execs[1].guard_passed, Some(false));
    let z = rep.program.symbols.lookup("z").unwrap();
    assert!(
        execs[1].dep_on(z, DepKind::Output).is_some(),
        "{:?}",
        execs[1]
    );
    // The audit holds the loop to the parallel standard only on the
    // execution the guard cleared — which was dependence-free.
    let audit = audit_report(&rep, &audit_cfg());
    assert!(audit.is_sound(), "{:?}", audit.findings);
}

/// A zero-trip loop under tracing: enters and exits without iterations,
/// exhibits nothing, and is neither a violation nor flagged as a
/// precision gap (a dependence never had a chance to manifest).
#[test]
fn zero_trip_loop_under_tracing_is_silent() {
    let src = "program t
         integer i, n
         real x(8)
         n = 0
         do 10 i = 1, n
           x(1) = x(1) + i
 10      continue
         print x(1)
         end";
    let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
    let v = rep.verdict("T/do10").expect("verdict exists");
    let (tracer, handle) = DependenceTracer::from_report(&rep);
    let mut it = Interp::new(&rep.program);
    it.attach_tracer(TraceConfig::only([v.loop_stmt]), Box::new(tracer));
    it.run().unwrap();
    let log = handle.borrow().clone();
    let execs = log.executions_of(v.loop_stmt);
    assert_eq!(execs.len(), 1);
    assert_eq!(execs[0].iterations, 0);
    assert!(!execs[0].has_deps());
    let audit = audit_report(&rep, &audit_cfg());
    assert!(audit.findings.is_empty(), "{:?}", audit.findings);
}

/// A deliberately broken verdict — a dependent loop promoted to
/// `CompileTimeParallel` by hand — is caught by the auditor with a
/// concrete, minimized witness naming the array, element, and the
/// writer/reader iterations.
#[test]
fn injected_broken_verdict_is_caught() {
    let src = "program t
         integer i, n
         real x(32)
         n = 32
         do 10 i = 2, n
           x(i) = x(i - 1) * 1.5 + 1.0
 10      continue
         print x(32)
         end";
    let mut rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
    let v = rep
        .verdicts
        .iter_mut()
        .find(|v| v.label == "T/do10")
        .expect("verdict exists");
    assert!(!v.parallel, "the loop really is dependent");
    v.parallel = true;
    v.tier = DispatchTier::CompileTimeParallel;
    let audit = audit_report(&rep, &audit_cfg());
    assert_eq!(audit.violations(), 1, "{:?}", audit.findings);
    let f = &audit.findings[0];
    assert_eq!(f.kind, FindingKind::SoundnessViolation);
    assert_eq!(f.label, "T/do10");
    let w = f.witness.expect("concrete witness");
    let x = rep.program.symbols.lookup("x").unwrap();
    assert_eq!(w.var, x);
    assert_eq!(w.kind, DepKind::Flow);
    assert_eq!(w.distance(), 1, "witness is minimized: {w:?}");
    assert!(w.element.is_some());
    assert!(f.detail.contains("T/do10"), "{}", f.detail);
}

/// The analyses never claim independence for the loops the generator
/// makes deliberately dependent.
#[test]
fn dependent_shapes_stay_serial() {
    for seed in 1i64..50 {
        for shape in [BodyShape::ShiftedRead, BodyShape::ConstantTarget] {
            let src = render_program(std::slice::from_ref(&shape), 24, seed);
            let rep = compile_source(&src, DriverOptions::with_iaa()).unwrap();
            for v in &rep.verdicts {
                if v.label.starts_with("GEN/do1") {
                    assert!(!v.parallel, "{:?} must stay serial ({shape:?})", v.label);
                }
            }
        }
    }
}

/// A subscript whose coefficients overflow `i64` is unanalyzable, not a
/// compiler panic: `i * 2^62 * 4` wraps to 0 at run time, so every
/// iteration writes `a(1)`, and `i * (2^63 - 1) + i * (2^63 - 1)` merges
/// two like terms past the range. Neither loop may be proven parallel.
#[test]
fn overflowing_subscript_coefficients_are_unanalyzable() {
    let program = |subscript: &str| {
        format!(
            "program t
             integer i, n, a(64)
             n = 8
             do 10 i = 1, n
               a({subscript}) = i
 10          continue
             print a(1)
             end"
        )
    };
    for (subscript, prints) in [
        ("i * 4611686018427387904 * 4 + 1", Some("8")),
        (
            "i * 9223372036854775807 + i * 9223372036854775807 + 50",
            None,
        ),
    ] {
        let src = program(subscript);
        let rep = compile_source(&src, DriverOptions::with_iaa())
            .unwrap_or_else(|e| panic!("{subscript}: {e:?}"));
        let v = rep.verdict("T/do10").expect("loop exists");
        assert!(
            !matches!(v.tier, DispatchTier::CompileTimeParallel),
            "{subscript}: {v:?}"
        );
        if let Some(last) = prints {
            let out = Interp::new(&rep.program).run().unwrap();
            assert_eq!(
                out.output,
                [last],
                "{subscript}: every iteration writes a(1)"
            );
        }
    }
}
