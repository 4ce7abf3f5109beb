//! Chaos suite for the transactional parallel dispatch path.
//!
//! Every test injects faults through a deterministic [`FaultPlan`]
//! (scripted sites or a SplitMix64-seeded schedule) and asserts the
//! recovery contract: the run **completes**, the final store, printed
//! output, and execution statistics are **identical to the pure
//! sequential run**, and the fault is **attributed** in telemetry under
//! its reason code. The randomized sweep replays the five benchmark
//! kernels and the paper figures under fault schedules; re-running with
//! the same seed replays the identical schedule (CI pins one).

use irr_driver::{
    compile_source, CompilationReport, DispatchTier, DriverOptions, InPlaceTarget, StrategyFacts,
    WriteShape,
};
use irr_exec::{FaultKind, FaultPlan, Interp, Store, TraceConfig};
use irr_programs::{paper_cases, Scale};
use irr_runtime::{
    run_hybrid, run_hybrid_with_faults, HybridConfig, HybridDispatcher, HybridOutcome,
};
use irr_sanitizer::parity::{dispatched, first_divergence, sequential, Reals};
use irr_sanitizer::{audit_report, checks, AuditConfig, AuditMode};

/// `p(i) = mod(i*3, n) + 1` is a permutation for `n = 8` — guarded at
/// compile time, passes inspection at run time, so without injected
/// faults the loop dispatches parallel exactly once.
const GUARDED_SRC: &str = "program t
     integer i, n, p(8)
     real z(8), x(8)
     n = 8
     do i = 1, n
       p(i) = mod(i * 3, n) + 1
       x(i) = i * 1.0
     enddo
     do 20 i = 1, n
       z(p(i)) = x(i) * 2.0
 20  continue
     print z(1), z(8)
     end";

/// `p(i) = mod(i, 4) + 1` collides for `n = 8`: an honest inspection
/// fails, so the only way this loop dispatches parallel is an injected
/// inspector lie — and the merge must then catch the genuine conflict.
const COLLIDING_SRC: &str = "program t
     integer i, n, p(8)
     real z(8), x(8)
     n = 8
     do i = 1, n
       p(i) = mod(i, 4) + 1
       x(i) = i * 1.0
     enddo
     do 20 i = 1, n
       z(p(i)) = x(i) * 2.0
 20  continue
     print z(1), z(4)
     end";

/// A guarded loop of `n` iterations re-entered five times with
/// unchanged bounds and index arrays, for quarantine/retry scenarios.
/// `p` is a permutation whenever 3 does not divide `n`.
fn reentrant_src(n: usize) -> String {
    format!(
        "program t
         integer i, r, n, p({n})
         real z({n}), x({n})
         n = {n}
         do i = 1, n
           p(i) = mod(i * 3, n) + 1
           x(i) = i * 1.0
         enddo
         do r = 1, 5
           do 20 i = 1, n
             z(p(i)) = x(i) + r
 20        continue
         enddo
         print z(1), z(n)
         end"
    )
}

fn compiled(src: &str) -> CompilationReport {
    compile_source(src, DriverOptions::with_iaa()).expect("compiles")
}

/// Forged in-place facts: `array`, write-only, under `shape`.
fn in_place_facts(array: irr_frontend::VarId, shape: WriteShape) -> StrategyFacts {
    StrategyFacts::InPlace {
        targets: vec![InPlaceTarget {
            array,
            shape,
            read: false,
            always_written: true,
        }],
    }
}

/// Exact-attribution tests leave the watchdog off: these tests assert
/// precise fallback counts, and a deadline would let an *honest* worker
/// that the OS deschedules under load register a spurious timeout.
/// The thread count is pinned: the suite addresses chunks by index and
/// counts them, and a conflict needs two chunks to exist at all.
fn chaos_config() -> HybridConfig {
    HybridConfig {
        threads: 4,
        ..HybridConfig::default()
    }
}

/// Tests exercising the watchdog: stalls sleep well past the deadline,
/// honest Test-scale chunks finish orders of magnitude under it.
fn watchdog_config() -> HybridConfig {
    HybridConfig {
        worker_deadline_ms: Some(50),
        ..chaos_config()
    }
}

const STALL_MS: u64 = 150;

/// Asserts the chaos run reproduced the sequential run, to the oracle:
/// printed output, every scalar and array the verdicts do not
/// privatize, total statement cost, per-loop invocations and costs;
/// reals modulo reassociation.
fn expect_parity(name: &str, rep: &CompilationReport, hybrid: &HybridOutcome) {
    let seq = sequential(rep, &[]).expect("sequential run");
    let diff = first_divergence(rep, &seq, &hybrid.outcome, Reals::Reassociated);
    assert_eq!(diff, None, "{name}");
}

// ---- scripted faults: one test per failure class, exact attribution ----
//
// Site numbering: the initialization loop of these programs is
// compile-time parallel and consumes site 0; the guarded target loop
// (`do20`) is site 1.

#[test]
fn forged_conflict_falls_back_and_quarantines() {
    let rep = compiled(GUARDED_SRC);
    let plan = FaultPlan::scripted([(1, FaultKind::ForgeConflict)]);
    let (hybrid, plan) = run_hybrid_with_faults(&rep, chaos_config(), plan).unwrap();
    expect_parity("forge", &rep, &hybrid);
    let t = hybrid.telemetry;
    assert_eq!(t.fallback_conflict, 1, "{t:?}");
    assert_eq!(t.fallbacks(), 1, "{t:?}");
    assert_eq!(t.quarantine_poisonings, 1, "{t:?}");
    assert_eq!(t.guarded_parallel, 1, "the dispatch itself happened: {t:?}");
    assert_eq!(plan.fired_count("forge-conflict"), 1);
    assert_eq!(plan.fired()[0].site, 1);
}

/// The worker faults below must hit chunks that run (the deadline poll
/// and the panic site both sit around the typed loop). A fallback
/// reports no chunk — nothing committed — so this reads it off the same
/// run without the fault: both its parallel dispatches (the producer
/// loop and the guarded one the faults address) commit every chunk.
fn assert_chunk_body_is_typed(rep: &CompilationReport, config: HybridConfig) {
    let t = run_hybrid(rep, config).unwrap().telemetry;
    assert_eq!(t.parallel_dispatches(), 2, "{t:?}");
    assert_eq!(t.worker_chunks_typed, 2 * config.threads as u64, "{t:?}");
    assert_eq!(t.fallbacks(), 0, "{t:?}");
}

/// Chunk 0 is the one the dispatching thread claims first, chunk 1 the
/// first a pooled thread gets: a fault is the chunk's, whichever
/// thread runs it.
const MASTER_AND_POOLED_CHUNK: [usize; 2] = [0, 1];

#[test]
fn worker_panic_falls_back_with_attribution() {
    let rep = compiled(GUARDED_SRC);
    assert_chunk_body_is_typed(&rep, chaos_config());
    for worker in MASTER_AND_POOLED_CHUNK {
        let plan = FaultPlan::scripted([(1, FaultKind::PanicWorker { worker })]);
        let (hybrid, plan) = run_hybrid_with_faults(&rep, chaos_config(), plan).unwrap();
        expect_parity("panic", &rep, &hybrid);
        let t = hybrid.telemetry;
        assert_eq!(t.fallback_panic, 1, "chunk {worker}: {t:?}");
        assert_eq!(t.fallbacks(), 1, "chunk {worker}: {t:?}");
        assert_eq!(plan.fired_count("panic-worker"), 1);
    }
}

#[test]
fn stalled_worker_times_out_and_falls_back() {
    let rep = compiled(GUARDED_SRC);
    assert_chunk_body_is_typed(&rep, watchdog_config());
    for worker in MASTER_AND_POOLED_CHUNK {
        let plan = FaultPlan::scripted([(
            1,
            FaultKind::StallWorker {
                worker,
                stall_ms: STALL_MS,
            },
        )]);
        let (hybrid, plan) = run_hybrid_with_faults(&rep, watchdog_config(), plan).unwrap();
        expect_parity("stall", &rep, &hybrid);
        let t = hybrid.telemetry;
        assert_eq!(t.fallback_timeout, 1, "chunk {worker}: {t:?}");
        assert_eq!(t.fallbacks(), 1, "chunk {worker}: {t:?}");
        assert_eq!(plan.fired_count("stall-worker"), 1);
    }
}

#[test]
fn stall_without_watchdog_only_delays() {
    // With no deadline configured the stall is just latency: the
    // dispatch completes, nothing falls back.
    let rep = compiled(GUARDED_SRC);
    let plan = FaultPlan::scripted([(
        1,
        FaultKind::StallWorker {
            worker: 0,
            stall_ms: 20,
        },
    )]);
    let config = HybridConfig {
        worker_deadline_ms: None,
        ..HybridConfig::default()
    };
    let (hybrid, _) = run_hybrid_with_faults(&rep, config, plan).unwrap();
    expect_parity("stall-no-watchdog", &rep, &hybrid);
    assert_eq!(hybrid.telemetry.fallbacks(), 0, "{:?}", hybrid.telemetry);
}

#[test]
fn inspector_lie_is_caught_by_the_merge() {
    // The honest run dispatches this loop sequentially (the guard
    // fails); the lie forces a parallel dispatch of a genuinely
    // conflicting schedule. The merge must catch it and the fallback
    // must restore exact sequential semantics.
    let rep = compiled(COLLIDING_SRC);
    let honest = run_hybrid(&rep, chaos_config()).unwrap();
    assert_eq!(honest.telemetry.guarded_sequential, 1);
    assert_eq!(honest.telemetry.fallbacks(), 0);

    let plan = FaultPlan::scripted([(1, FaultKind::LieInspector)]);
    let (hybrid, plan) = run_hybrid_with_faults(&rep, chaos_config(), plan).unwrap();
    expect_parity("lie", &rep, &hybrid);
    let t = hybrid.telemetry;
    assert_eq!(t.guarded_parallel, 1, "the lie dispatched parallel: {t:?}");
    assert_eq!(t.fallback_conflict, 1, "{t:?}");
    assert_eq!(
        t.inspections_run, 0,
        "the lie bypassed the inspector: {t:?}"
    );
    assert_eq!(plan.fired_count("lie-inspector"), 1);
}

#[test]
fn lie_inspector_under_in_place_strategies_attributes_exactly() {
    // Strategies are enabled by default, so the colliding kernel's init
    // loop commits in place while the lied-about guarded dispatch (a
    // guarded entry never carries a disjointness proof, so its plan
    // stays write-log) must still be caught by the merge. Attribution
    // is exact: one conflict fallback, no strategy commit from the
    // aborted dispatch, one in-place commit from the honest loop.
    let rep = compiled(COLLIDING_SRC);
    let plan = FaultPlan::scripted([(1, FaultKind::LieInspector)]);
    let (hybrid, plan) = run_hybrid_with_faults(&rep, chaos_config(), plan).unwrap();
    expect_parity("lie-under-strategies", &rep, &hybrid);
    let t = hybrid.telemetry;
    assert_eq!(t.guarded_parallel, 1, "{t:?}");
    assert_eq!(t.fallback_conflict, 1, "{t:?}");
    assert_eq!(t.fallback_strategy, 0, "{t:?}");
    assert_eq!(
        t.strategy_in_place, 1,
        "the init loop committed in place: {t:?}"
    );
    assert_eq!(
        t.strategy_write_log, 0,
        "the lied dispatch aborted before commit: {t:?}"
    );
    assert_eq!(plan.fired_count("lie-inspector"), 1);

    // The sanitizer side of the same lie: a verdict falsified all the
    // way to a disjointness proof (the fact that would license in-place
    // commits) is caught by the shadow-memory audit, and the witness
    // names the strategy the forged proof would have driven.
    let mut forged = compiled(COLLIDING_SRC);
    let z = forged.program.symbols.lookup("z").unwrap();
    let v = forged
        .verdicts
        .iter_mut()
        .find(|v| v.label == "T/do20")
        .unwrap();
    v.parallel = true;
    v.tier = DispatchTier::CompileTimeParallel;
    v.strategy_facts = in_place_facts(z, WriteShape::Affine { off: 0 });
    let audit = audit_report(
        &forged,
        &AuditConfig {
            seed: 42,
            inputs: 2,
            mode: AuditMode::Soundness,
        },
    );
    assert_eq!(audit.violations(), 1, "{:?}", audit.findings);
    let f = &audit.findings[0];
    assert_eq!(f.label, "T/do20");
    assert!(
        f.detail.contains("in-place-disjoint"),
        "witness must report the strategy: {}",
        f.detail
    );
    assert!(f.witness.is_some(), "{f:?}");
}

#[test]
fn forged_disjointness_facts_are_refused_by_the_executor() {
    // A forged verdict claims the all-iterations-write-x(1) loop is
    // compile-time parallel under a disjoint-affine proof. The executor
    // re-derives the proof on every dispatch, finds none (the subscript
    // is not `i + c`), and silently downgrades to the write-log — whose
    // merge then catches the genuine write-write conflict, so the
    // forged fact can never reach the raw in-place path.
    let src = "program t
         integer i, n
         real x(8), y(8)
         n = 8
         do i = 1, n
           y(i) = i * 1.0
         enddo
         do 20 i = 1, n
           x(1) = y(i) * 2.0
 20      continue
         print x(1)
         end";
    let mut rep = compiled(src);
    let x = rep.program.symbols.lookup("x").unwrap();
    {
        let v = rep
            .verdicts
            .iter_mut()
            .find(|v| v.label == "T/do20")
            .unwrap();
        assert!(!v.parallel, "honest verdict is sequential: {v:?}");
        v.parallel = true;
        v.tier = DispatchTier::CompileTimeParallel;
        v.strategy_facts = in_place_facts(x, WriteShape::Affine { off: 0 });
    }
    let hybrid = run_hybrid(&rep, chaos_config()).unwrap();
    expect_parity("forged-facts", &rep, &hybrid);
    let t = hybrid.telemetry;
    assert_eq!(t.compile_time_parallel, 2, "{t:?}");
    assert_eq!(
        t.fallback_conflict, 1,
        "the downgraded write-log caught the conflict: {t:?}"
    );
    assert_eq!(
        t.strategy_in_place, 1,
        "only the honest init loop committed in place: {t:?}"
    );
    assert_eq!(t.strategy_write_log, 0, "{t:?}");
    assert_eq!(
        t.fallback_strategy, 0,
        "the downgrade is silent, not a violation: {t:?}"
    );
}

#[test]
fn forged_shape_facts_are_refused_by_the_executor() {
    // The same forgery for the two shapes that lean on run-time input.
    // A segment claim on a loop that has no such subscript: the
    // executor's own derivation finds no shape and downgrades. A
    // scatter claim on a loop that *is* a scatter, through a colliding
    // index array, promoted past its guard: the shape derives, but no
    // inspection ran, so no certificate exists, and the executor
    // downgrades again. Either way the write-log's merge catches the
    // genuine conflict and nothing was written through a master buffer
    // on the word of the verdict.
    let all_write_x1 = "program t
         integer i, n, p(8)
         real x(8), y(8)
         n = 8
         do i = 1, n
           y(i) = i * 1.0
           p(i) = i
         enddo
         do 20 i = 1, n
           x(1) = y(i) * 2.0
 20      continue
         print x(1)
         end";
    for (src, target, shape) in [
        (all_write_x1, "x", "segment"),
        (COLLIDING_SRC, "z", "scatter"),
    ] {
        let mut rep = compiled(src);
        let array = rep.program.symbols.lookup(target).unwrap();
        let p = rep.program.symbols.lookup("p").unwrap();
        let v = rep
            .verdicts
            .iter_mut()
            .find(|v| v.label == "T/do20")
            .unwrap();
        assert!(!v.parallel, "{shape}: honest verdict: {v:?}");
        v.parallel = true;
        v.tier = DispatchTier::CompileTimeParallel;
        v.strategy_facts = in_place_facts(
            array,
            match shape {
                "segment" => WriteShape::Segment { ptr: p },
                _ => WriteShape::Scatter { index: p, off: 0 },
            },
        );
        let hybrid = run_hybrid(&rep, chaos_config()).unwrap();
        expect_parity(shape, &rep, &hybrid);
        let t = hybrid.telemetry;
        assert_eq!(t.compile_time_parallel, 2, "{shape}: {t:?}");
        assert_eq!(t.fallback_conflict, 1, "{shape}: {t:?}");
        assert_eq!(
            t.strategy_in_place, 1,
            "{shape}: only the honest init loop committed in place: {t:?}"
        );
        assert_eq!(t.strategy_write_log, 0, "{shape}: {t:?}");
        assert_eq!(
            t.fallback_strategy, 0,
            "{shape}: the downgrade is silent, not a violation: {t:?}"
        );
    }
}

/// A guarded scatter re-entered three times, its index array preset to
/// a permutation and two of its entries swapped after the second entry.
const MUTATED_SWEEP_SRC: &str = "program t
     integer i, r, n, t, p(8)
     real z(8), x(8)
     n = 8
     do i = 1, n
       x(i) = i * 1.0
     enddo
     do r = 1, 3
       do 20 i = 1, n
         z(p(i)) = x(i) + r
 20    continue
       if (r == 2) then
         t = p(1)
         p(1) = p(2)
         p(2) = t
       endif
     enddo
     print z(1), z(8)
     end";

#[test]
fn a_stale_certificate_is_never_written_through() {
    // Entry 1 inspects `p` and commits in place under the certificate
    // the scan issued; entry 2 hits the schedule cache and commits
    // under the same one. Then `p` is written. Entry 3's schedule key
    // is stale, the guard re-inspects, and the dispatch runs under a
    // *fresh* certificate: the old one names a write-version of `p`
    // that is gone, and the executor would refuse it (see
    // `a_scatter_commits_in_place_only_under_live_injective_facts` in
    // `irr_exec`, which hands it one).
    let rep = compiled(MUTATED_SWEEP_SRC);
    let v = rep.verdict("T/do20").unwrap();
    assert!(matches!(v.tier, DispatchTier::RuntimeGuarded(_)), "{v:?}");
    assert_eq!(v.strategy_facts.name(), "certified-scatter");
    let p = rep.program.symbols.lookup("p").unwrap();
    let presets = [(
        p,
        irr_exec::ArrayData::Int {
            data: vec![3, 1, 4, 8, 5, 2, 6, 7].into(),
            dims: [8].into(),
        },
    )];
    let hybrid = irr_runtime::run_hybrid_seeded(&rep, chaos_config(), &presets).unwrap();
    let t = &hybrid.telemetry;
    assert_eq!(t.guarded_parallel, 3, "{t:?}");
    assert_eq!(t.inspections_run, 2, "{t:?}");
    assert_eq!((t.cache_hits, t.cache_invalidations), (1, 1), "{t:?}");
    assert_eq!(
        (t.strategy_in_place, t.strategy_write_log),
        (4, 0),
        "the init loop and all three entries: {t:?}"
    );
    assert_eq!(t.fallbacks(), 0, "{t:?}");
    let seq = sequential(&rep, &presets).unwrap();
    let diff = first_divergence(&rep, &seq, &hybrid.outcome, Reals::Exact);
    assert_eq!(diff, None, "mutated-sweep");
    // A lie runs no scan and so carries no certificate, even into a
    // loop whose earlier, honest inspections left some: at the lied
    // site the same scatter runs — correctly, `p` being a permutation —
    // under the write-log.
    let mut d = HybridDispatcher::new(&rep, chaos_config());
    d.set_fault_plan(FaultPlan::scripted([(2, FaultKind::LieInspector)]));
    let lied = dispatched(&rep, &presets, &mut d).unwrap();
    assert_eq!(first_divergence(&rep, &seq, &lied, Reals::Exact), None);
    let t = &d.telemetry;
    assert_eq!((t.strategy_in_place, t.strategy_write_log), (3, 1), "{t:?}");
    assert_eq!(t.fallbacks(), 0, "{t:?}");
}

/// The colscale shape with its offset–length chain built in the
/// program: every element of `c` is read, halved and written back
/// through `c(ptr(i) + j - 1)`, in place.
const SEGMENT_RMW_SRC: &str = "program t
     integer i, j, n, ptr(9), len(8)
     real c(17)
     n = 8
     do i = 1, n
       len(i) = mod(i, 3) + 1
     enddo
     ptr(1) = 1
     do i = 1, n
       ptr(i + 1) = ptr(i) + len(i)
     enddo
     do i = 1, 17
       c(i) = i * 0.5
     enddo
     do 20 i = 1, n
       do j = 1, len(i)
         c(ptr(i) + j - 1) = c(ptr(i) + j - 1) * 0.5 + 1.0
       enddo
 20  continue
     print c(1), c(17)
     end";

#[test]
fn a_failed_read_modify_write_dispatch_leaves_no_trace() {
    // By the time any of these faults is noticed the chunks have
    // halved their windows of `c` in the master's buffer. The dispatch
    // must hand `c` back as it found it, or the sequential fallback
    // halves it a second time.
    let rep = compiled(SEGMENT_RMW_SRC);
    let c = rep.program.symbols.lookup("c").unwrap();
    let honest = run_hybrid(&rep, watchdog_config()).unwrap();
    let t = &honest.telemetry;
    assert_eq!(
        (t.strategy_in_place, t.strategy_write_log, t.fallbacks()),
        (3, 0, 0),
        "{t:?}"
    );
    // The walk is the run's last dispatch site.
    let site = t.parallel_dispatches() - 1;
    let seq = Interp::new(&rep.program).run().unwrap();
    let bits = |st: &Store| -> Vec<u64> {
        let held = st.array_as_reals(c).unwrap();
        held.iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(&honest.outcome.store), bits(&seq.store));
    let faults = [
        FaultKind::ForgeConflict,
        FaultKind::PanicWorker { worker: 0 },
        FaultKind::PanicWorker { worker: 3 },
        FaultKind::StallWorker {
            worker: 2,
            stall_ms: STALL_MS,
        },
    ];
    for kind in faults {
        let plan = FaultPlan::scripted([(site, kind)]);
        let (hybrid, plan) = run_hybrid_with_faults(&rep, watchdog_config(), plan).unwrap();
        expect_parity(kind.name(), &rep, &hybrid);
        assert_eq!(
            bits(&hybrid.outcome.store),
            bits(&seq.store),
            "{}",
            kind.name()
        );
        let t = &hybrid.telemetry;
        assert_eq!(t.fallbacks(), 1, "{}: {t:?}", kind.name());
        assert_eq!(t.strategy_in_place, 2, "{}: {t:?}", kind.name());
        assert_eq!(plan.fired_count(kind.name()), 1);
    }
}

#[test]
fn an_inspector_lie_about_segments_is_caught_by_the_windows() {
    // `ptr`/`len` are not an offset–length chain: row 2 is one element
    // longer than its segment and walks into `c(5)`, which is row 3's.
    // The honest guard fails; the lie dispatches the walk in place,
    // two chunks of two rows. The first chunk's window refuses `c(5)`
    // — a violation at that access. The second meanwhile divides by
    // what row 3 makes of `c(5)` less one: 0.5 after the overreach,
    // 0.0 without it — an error the program does not have, raised
    // beside a violation. The dispatch must report the violation, put
    // `c` back, and let the sequential run finish.
    let src = "program t
         integer i, j, n, ptr(5), len(4)
         real c(8), x(4)
         n = 4
         do i = 1, n
           ptr(i) = 2 * i - 1 - i / 4
           len(i) = 2 + (i / 2) * (1 - (i / 3) * 2) + (i / 4) * 2
           x(i) = 0.0
         enddo
         ptr(5) = 8
         do i = 1, 8
           c(i) = 0.5 - (i / 5) * (1 - i / 6) * 0.5
         enddo
         do 20 i = 1, n
           do j = 1, len(i)
             c(ptr(i) + j - 1) = c(ptr(i) + j - 1) * 0.5 + 1.0
             if (i > 2) then
               x(i) = 1.0 / (c(ptr(i) + j - 1) - 1.0)
             endif
           enddo
 20      continue
         print x(3), c(5)
         end";
    let rep = compiled(src);
    let v = rep.verdict("T/do20").unwrap();
    assert!(matches!(v.tier, DispatchTier::RuntimeGuarded(_)), "{v:?}");
    assert_eq!(v.strategy_facts.name(), "offset-length-segment");
    let seq = Interp::new(&rep.program).run().unwrap();
    let var = |name: &str| rep.program.symbols.lookup(name).unwrap();
    assert_eq!(
        seq.store.array_as_reals(var("ptr")).unwrap(),
        [1.0, 3.0, 5.0, 6.0, 8.0]
    );
    assert_eq!(
        seq.store.array_as_reals(var("len")).unwrap(),
        [2.0, 3.0, 1.0, 2.0]
    );
    assert_eq!(seq.output, ["2 1.5"]);
    let config = HybridConfig {
        threads: 2,
        ..HybridConfig::default()
    };
    let honest = run_hybrid(&rep, config).unwrap();
    assert_eq!(honest.telemetry.guarded_sequential, 1);
    let site = honest.telemetry.parallel_dispatches();
    let plan = FaultPlan::scripted([(site, FaultKind::LieInspector)]);
    let (hybrid, plan) = run_hybrid_with_faults(&rep, config, plan).unwrap();
    expect_parity("segment-lie", &rep, &hybrid);
    let t = hybrid.telemetry;
    assert_eq!(t.guarded_parallel, 1, "{t:?}");
    assert_eq!((t.fallback_strategy, t.fallbacks()), (1, 1), "{t:?}");
    assert_eq!(plan.fired_count("lie-inspector"), 1);
}

#[test]
fn a_stream_declines_a_window_one_element_short_and_the_checked_path_attributes_it() {
    // The same overreach with a body the typed loop fast-forwards as a
    // stream. Row 2's range `c(3..=5)` ends one element past the first
    // chunk's window: the stream's guard — both ends of the range
    // through the window's own check — declines, and the per-iteration
    // ops write `c(3)`, `c(4)` and are refused `c(5)`: a violation on
    // `c`, at that access, exactly as without streams.
    let src = "program t
         integer i, j, n, ptr(5), len(4)
         real c(8)
         n = 4
         do i = 1, n
           ptr(i) = 2 * i - 1 - i / 4
           len(i) = 2 + (i / 2) * (1 - (i / 3) * 2) + (i / 4) * 2
         enddo
         ptr(5) = 8
         do i = 1, 8
           c(i) = i * 0.5
         enddo
         do 20 i = 1, n
           do j = 1, len(i)
             c(ptr(i) + j - 1) = c(ptr(i) + j - 1) * 0.5 + 1.0
           enddo
 20      continue
         print c(4), c(5)
         end";
    let rep = compiled(src);
    let plan = rep.verdict("T/do20").unwrap().compiled.unwrap();
    assert_eq!(plan.stream_loops, 1, "{plan:?}");
    let v = rep.verdict("T/do20").unwrap();
    assert!(matches!(v.tier, DispatchTier::RuntimeGuarded(_)), "{v:?}");
    let seq = Interp::new(&rep.program).run().unwrap();
    let config = HybridConfig {
        threads: 2,
        ..HybridConfig::default()
    };
    let honest = run_hybrid(&rep, config).unwrap();
    assert_eq!(honest.telemetry.guarded_sequential, 1);
    // Site 2: the two set-up loops dispatch before the walk. (Once the
    // honest guard fails, each row's inner loop dispatches on its own.)
    let plan = FaultPlan::scripted([(2, FaultKind::LieInspector)]);
    let (hybrid, plan) = run_hybrid_with_faults(&rep, config, plan).unwrap();
    assert_eq!(plan.fired_count("lie-inspector"), 1);
    let diff = first_divergence(&rep, &seq, &hybrid.outcome, Reals::Exact);
    assert_eq!(diff, None);
    let t = hybrid.telemetry;
    assert_eq!((t.fallback_strategy, t.fallbacks()), (1, 1), "{t:?}");
}

/// An SpMV row loop entered three times from a sweep, `@SMASH@` run
/// after the second entry: the row loop is one segmented stream.
const SEGMENTED_SWEEP_SRC: &str = "program t
     integer i, j, r, n, rowptr(9), rowlen(8), colidx(16)
     real aval(16), x(8), y(8)
     n = 8
     do i = 1, n
       rowlen(i) = 2
       rowptr(i) = 2 * i - 1
       x(i) = i * 0.5
     enddo
     rowptr(9) = 17
     do i = 1, 16
       colidx(i) = mod(i * 5, 8) + 1
       aval(i) = i * 0.25
     enddo
     do r = 1, 3
       do 20 i = 1, n
         y(i) = 0.0
         do j = 1, rowlen(i)
           y(i) = y(i) + aval(rowptr(i) + j - 1) * x(colidx(rowptr(i) + j - 1))
         enddo
 20    continue
       if (r == 2) then
         @SMASH@
       endif
     enddo
     print y(1), y(8)
     end";

#[test]
fn a_segmented_nest_whose_rows_were_rewritten_between_entries_fails_where_the_tree_walk_does() {
    // After two clean entries a middle row's pointer, length or column
    // index is rewritten to point past its array: the third entry must
    // end in the sequential run's own error, whether the rows run in
    // the segmented kernel sequentially or in chunks — the kernel stops
    // before the row and the per-row ops raise the error there.
    for (smash, array, index) in [
        ("rowptr(5) = 16", "aval", 17),
        ("rowlen(4) = 12", "aval", 17),
        ("colidx(9) = 9", "x", 9),
    ] {
        let src = SEGMENTED_SWEEP_SRC.replace("@SMASH@", smash);
        let rep = compiled(&src);
        let v = rep.verdict("T/do20").unwrap();
        let cb = irr_driver::compiled::lower_do_loop(&rep.program, v.loop_stmt).unwrap();
        assert!(cb.seg(0).is_some(), "{smash}");
        let own = sequential(&rep, &[]).unwrap_err();
        assert!(
            matches!(&own, irr_exec::ExecError::OutOfBounds { array: a, index: i, .. } if a == array && *i == index),
            "{smash}: {own:?}"
        );
        let typed = dispatched(&rep, &[], &mut irr_exec::CompiledDispatch::new()).unwrap_err();
        assert_eq!(typed, own, "{smash}");
        for threads in [1, 2, 4] {
            let config = HybridConfig {
                threads,
                ..HybridConfig::default()
            };
            let hybrid = irr_runtime::run_hybrid_seeded(&rep, config, &[]).unwrap_err();
            assert_eq!(hybrid, own, "{smash} x{threads}");
        }
    }
}

#[test]
fn a_stalled_worker_trips_its_deadline_inside_a_segmented_chunk() {
    // The read-modify-write walk is one segmented stream: its chunks run
    // their rows in the two-level kernel, which polls the deadline
    // between strips of rows. A stalled chunk still times out, and the
    // run falls back to the sequential result.
    let rep = compiled(SEGMENT_RMW_SRC);
    let v = rep.verdict("T/do20").unwrap();
    let cb = irr_driver::compiled::lower_do_loop(&rep.program, v.loop_stmt).unwrap();
    assert!(cb.seg(0).is_some());
    let honest = run_hybrid(&rep, watchdog_config()).unwrap();
    assert_eq!(honest.telemetry.fallbacks(), 0);
    // Every row of the walk streamed in a worker: one entry a row.
    assert_eq!(honest.outcome.stats.stream_entries, 8);
    let site = honest.telemetry.parallel_dispatches() - 1;
    for worker in MASTER_AND_POOLED_CHUNK {
        let plan = FaultPlan::scripted([(
            site,
            FaultKind::StallWorker {
                worker,
                stall_ms: STALL_MS,
            },
        )]);
        let (hybrid, plan) = run_hybrid_with_faults(&rep, watchdog_config(), plan).unwrap();
        expect_parity("segmented-stall", &rep, &hybrid);
        let t = hybrid.telemetry;
        assert_eq!(t.fallback_timeout, 1, "chunk {worker}: {t:?}");
        assert_eq!(t.fallbacks(), 1, "chunk {worker}: {t:?}");
        assert_eq!(plan.fired_count("stall-worker"), 1);
    }
}

/// [`MUTATED_SWEEP_SRC`] with the index array smashed, not permuted,
/// after the second entry.
const SMASHED_SWEEP_SRC: &str = "program t
     integer i, r, n, p(8)
     real z(8), x(8)
     n = 8
     do i = 1, n
       x(i) = i * 1.0
     enddo
     do r = 1, 3
       do 20 i = 1, n
         z(p(i)) = x(i) + r
 20    continue
       if (r == 2) then
         p(5) = 99
       endif
     enddo
     print z(1), z(8)
     end";

#[test]
fn an_index_array_smashed_between_entries_ends_in_the_programs_own_error() {
    // Entries 1 and 2 scatter through a stream under a certificate;
    // then `p(5)` leaves `z`. The certificate is stale at entry 3 and
    // whatever replaces it — an honest re-inspection that fails (the
    // sequential typed loop streams four iterations and stops before
    // the fifth), or a lie that dispatches the chunks on the write-log
    // (a sink no stream takes) — the run ends in the out-of-bounds
    // error of the sequential run, from the per-iteration scatter.
    let rep = compiled(SMASHED_SWEEP_SRC);
    let plan = rep.verdict("T/do20").unwrap().compiled.unwrap();
    assert_eq!(plan.stream_loops, 1, "{plan:?}");
    let p = rep.program.symbols.lookup("p").unwrap();
    let presets = [(
        p,
        irr_exec::ArrayData::Int {
            data: vec![3, 1, 4, 8, 5, 2, 6, 7].into(),
            dims: [8].into(),
        },
    )];
    let own = sequential(&rep, &presets).unwrap_err();
    let (array, index, extent) = ("z".to_string(), 99, 8);
    let oob = irr_exec::ExecError::OutOfBounds {
        array,
        index,
        extent,
    };
    assert_eq!(own, oob);
    let honest = irr_runtime::run_hybrid_seeded(&rep, chaos_config(), &presets).unwrap_err();
    assert_eq!(honest, own);
    let mut d = HybridDispatcher::new(&rep, chaos_config());
    d.set_fault_plan(FaultPlan::scripted([(3, FaultKind::LieInspector)]));
    assert_eq!(dispatched(&rep, &presets, &mut d).unwrap_err(), own);
    let t = &d.telemetry;
    assert_eq!((t.guarded_parallel, t.strategy_in_place), (3, 3), "{t:?}");
}

#[test]
fn a_chunk_that_branched_beside_a_violation_leaves_no_stray_write() {
    // The same broken chain, with the second chunk *branching* on what
    // it finds: `x(i)` is set when a walked element comes out below
    // 1.2. Sequentially row 2 overreaches into `c(5)` (0.0 -> 1.0, so
    // `x(2)` is set) and row 3 then makes 1.5 of it: `x(3)` stays 0.
    // Under the lie the first chunk's overreach is refused, so the
    // second finds `c(5)` still 0.0, makes 1.0 of it and sets `x(3)`
    // in the master's buffer — a location the sequential fallback
    // never writes. `x` is write-only, but in a nest that reads `c` it
    // must be copied aside and put back like `c`.
    let src = "program t
         integer i, j, n, ptr(5), len(4)
         real c(8), x(4)
         n = 4
         do i = 1, n
           ptr(i) = 2 * i - 1 - i / 4
           len(i) = 2 + (i / 2) * (1 - (i / 3) * 2) + (i / 4) * 2
           x(i) = 0.0
         enddo
         ptr(5) = 8
         do i = 1, 8
           c(i) = 0.5 - (i / 5) * (1 - i / 6) * 0.5
         enddo
         do 20 i = 1, n
           do j = 1, len(i)
             c(ptr(i) + j - 1) = c(ptr(i) + j - 1) * 0.5 + 1.0
             if (c(ptr(i) + j - 1) < 1.2) then
               x(i) = 1.0
             endif
           enddo
 20      continue
         print x(2), x(3), c(5)
         end";
    let rep = compiled(src);
    let v = rep.verdict("T/do20").unwrap();
    assert!(matches!(v.tier, DispatchTier::RuntimeGuarded(_)), "{v:?}");
    assert_eq!(v.strategy_facts.name(), "offset-length-segment");
    let seq = Interp::new(&rep.program).run().unwrap();
    assert_eq!(seq.output, ["1 0 1.5"]);
    let config = HybridConfig {
        threads: 2,
        ..HybridConfig::default()
    };
    let honest = run_hybrid(&rep, config).unwrap();
    assert_eq!(honest.telemetry.guarded_sequential, 1);
    let site = honest.telemetry.parallel_dispatches();
    let plan = FaultPlan::scripted([(site, FaultKind::LieInspector)]);
    let (hybrid, plan) = run_hybrid_with_faults(&rep, config, plan).unwrap();
    expect_parity("segment-lie-branch", &rep, &hybrid);
    let t = hybrid.telemetry;
    assert_eq!(t.guarded_parallel, 1, "{t:?}");
    assert_eq!((t.fallback_strategy, t.fallbacks()), (1, 1), "{t:?}");
    assert_eq!(plan.fired_count("lie-inspector"), 1);
}

#[test]
fn compile_time_parallel_dispatch_also_recovers() {
    // Faults are not a guarded-tier privilege: a compile-time-parallel
    // dispatch that fails at runtime falls back the same way.
    let src = "program t
         integer i, n
         real x(100), y(100)
         n = 100
         do i = 1, n
           y(i) = 1.0
         enddo
         do i = 1, n
           x(i) = y(i) * 2.0
         enddo
         print x(1)
         end";
    let rep = compiled(src);
    let plan = FaultPlan::scripted([
        (0, FaultKind::ForgeConflict),
        (1, FaultKind::PanicWorker { worker: 2 }),
    ]);
    let (hybrid, plan) = run_hybrid_with_faults(&rep, chaos_config(), plan).unwrap();
    expect_parity("ct-parallel", &rep, &hybrid);
    let t = hybrid.telemetry;
    assert_eq!(t.fallback_conflict, 1, "{t:?}");
    assert_eq!(t.fallback_panic, 1, "{t:?}");
    assert_eq!(t.quarantine_poisonings, 2, "{t:?}");
    assert_eq!(plan.fired().len(), 2);
}

// ---- edge cases: zero-trip, single iteration, nesting, tracing ----

#[test]
fn zero_trip_dispatch_consumes_no_fault_site() {
    // `m = mod(n, 2) = 0`: the guarded loop is zero-trip. No workers
    // spawn, so no fault can fire — the site is not consumed and the
    // scripted fault stays idle.
    let src = "program t
         integer i, n, m, p(8)
         real z(8), x(8)
         n = 8
         m = mod(n, 2)
         do i = 1, n
           p(i) = mod(i * 3, n) + 1
           x(i) = i * 1.0
           z(i) = 0.0
         enddo
         do 20 i = 1, m
           z(p(i)) = x(i) * 2.0
 20      continue
         print z(1), i
         end";
    let rep = compiled(src);
    // Site 1 would be the zero-trip loop if it consumed a site — the
    // scripted fault must stay idle.
    let plan = FaultPlan::scripted([(1, FaultKind::ForgeConflict)]);
    let (hybrid, plan) = run_hybrid_with_faults(&rep, chaos_config(), plan).unwrap();
    expect_parity("zero-trip", &rep, &hybrid);
    assert_eq!(hybrid.telemetry.fallbacks(), 0, "{:?}", hybrid.telemetry);
    assert_eq!(
        plan.sites(),
        1,
        "only the init loop consumed a site; the zero-trip dispatch none"
    );
    assert!(plan.fired().is_empty());
}

#[test]
fn single_iteration_loop_survives_every_fault_class() {
    // `m = mod(n, 7) = 1` for n = 8: the guarded loop runs exactly one
    // iteration in one chunk; worker indices reduce modulo 1.
    let src = "program t
         integer i, n, m, p(8)
         real z(8), x(8)
         n = 8
         m = mod(n, 7)
         do i = 1, n
           p(i) = mod(i * 3, n) + 1
           x(i) = i * 1.0
           z(i) = 0.0
         enddo
         do 20 i = 1, m
           z(p(i)) = x(i) * 2.0
 20      continue
         print z(1), i
         end";
    let rep = compiled(src);
    let faults = [
        FaultKind::ForgeConflict,
        FaultKind::PanicWorker { worker: 5 },
        FaultKind::StallWorker {
            worker: 2,
            stall_ms: STALL_MS,
        },
    ];
    for kind in faults {
        let plan = FaultPlan::scripted([(1, kind)]);
        let (hybrid, plan) = run_hybrid_with_faults(&rep, watchdog_config(), plan).unwrap();
        expect_parity(kind.name(), &rep, &hybrid);
        assert_eq!(
            hybrid.telemetry.fallbacks(),
            1,
            "{}: {:?}",
            kind.name(),
            hybrid.telemetry
        );
        assert_eq!(plan.fired_count(kind.name()), 1);
    }
}

#[test]
fn nested_fallback_quarantines_then_retries_after_budget() {
    // The guarded inner loop is entered five times by the outer loop
    // (sites 1..; site 0 is the init loop). Entry 2 (site 2) is forged
    // into a conflict: the schedule is poisoned with a 2-entry budget,
    // entries 3 and 4 are pinned sequential, and entry 5 re-inspects
    // from scratch and goes parallel again.
    let rep = compiled(&reentrant_src(8));
    let config = HybridConfig {
        quarantine_retries: 2,
        ..chaos_config()
    };
    let plan = FaultPlan::scripted([(2, FaultKind::ForgeConflict)]);
    let (hybrid, plan) = run_hybrid_with_faults(&rep, config, plan).unwrap();
    expect_parity("nested", &rep, &hybrid);
    let t = hybrid.telemetry;
    assert_eq!(t.fallback_conflict, 1, "{t:?}");
    assert_eq!(t.quarantine_poisonings, 1, "{t:?}");
    assert_eq!(t.quarantined, 2, "budget pins exactly 2 entries: {t:?}");
    assert_eq!(t.guarded_parallel, 3, "entries 1, 2, and 5: {t:?}");
    assert_eq!(t.inspections_run, 2, "initial + post-quarantine: {t:?}");
    assert_eq!(plan.sites(), 4, "quarantined entries consume no site");
    assert_eq!(plan.fired_count("forge-conflict"), 1);
}

/// A panic costs the run a dispatch, not a thread: the panicking job is
/// caught at the job boundary and its thread goes back to the queue, so
/// once the quarantine expires the loop dispatches in parallel again
/// on the pool the run already had — three threads for four chunks,
/// created by the producer loop, for the whole run. The loop is large
/// enough (70 000 iterations, two cost units each) that every entry
/// carries four chunks' worth of work: the panicking entry 2 is sized
/// off entry 1's commit exactly as entry 5 is, so it splits in four
/// like entry 5 and chunk 1 is a pooled thread's to claim.
#[test]
fn a_worker_panic_leaves_the_pool_serving_later_dispatches() {
    let rep = compiled(&reentrant_src(70_000));
    for worker in MASTER_AND_POOLED_CHUNK {
        let plan = FaultPlan::scripted([(2, FaultKind::PanicWorker { worker })]);
        let (hybrid, _) = run_hybrid_with_faults(&rep, chaos_config(), plan).unwrap();
        expect_parity("panic-then-reuse", &rep, &hybrid);
        let t = hybrid.telemetry;
        assert_eq!(t.fallback_panic, 1, "chunk {worker}: {t:?}");
        assert_eq!(t.quarantined, 2, "chunk {worker}: {t:?}");
        assert_eq!(t.guarded_parallel, 3, "entries 1, 2, and 5: {t:?}");
        // Producer + entries 1 and 5 committed, four typed chunks each
        // — entry 5 re-entered, so sized by the work entry 1 did.
        assert_eq!(t.worker_chunks_typed, 12, "chunk {worker}: {t:?}");
        assert_eq!(t.worker_threads_spawned, 3, "chunk {worker}: {t:?}");
    }
}

#[test]
fn zero_retry_budget_drops_the_schedule_immediately() {
    // With a zero budget nothing is pinned: the failed schedule is
    // evicted from the cache and the very next entry re-inspects.
    let rep = compiled(&reentrant_src(8));
    let config = HybridConfig {
        quarantine_retries: 0,
        ..chaos_config()
    };
    let plan = FaultPlan::scripted([(2, FaultKind::ForgeConflict)]);
    let (hybrid, _) = run_hybrid_with_faults(&rep, config, plan).unwrap();
    expect_parity("zero-budget", &rep, &hybrid);
    let t = hybrid.telemetry;
    assert_eq!(t.quarantined, 0, "{t:?}");
    assert_eq!(t.guarded_parallel, 5, "every entry dispatches: {t:?}");
    assert_eq!(t.inspections_run, 2, "failure forces re-inspection: {t:?}");
}

/// Counts the interpreter's loop events for one traced loop.
#[derive(Default)]
struct IterCounter {
    enters: usize,
    iters: Vec<i64>,
    exits: usize,
}

struct IterRecorder(std::rc::Rc<std::cell::RefCell<IterCounter>>);

impl irr_exec::trace::AccessTracer for IterRecorder {
    fn loop_enter(&mut self, _: &Store, _: irr_frontend::StmtId, _: i64, _: i64, _: i64) {
        self.0.borrow_mut().enters += 1;
    }
    fn loop_iter(&mut self, _: irr_frontend::StmtId, iter: i64) {
        self.0.borrow_mut().iters.push(iter);
    }
    fn loop_exit(&mut self, _: irr_frontend::StmtId) {
        self.0.borrow_mut().exits += 1;
    }
    fn read_element(&mut self, _: irr_frontend::VarId, _: usize) {}
    fn write_element(&mut self, _: irr_frontend::VarId, _: usize) {}
    fn read_scalar(&mut self, _: irr_frontend::VarId) {}
    fn write_scalar(&mut self, _: irr_frontend::VarId) {}
}

#[test]
fn fallback_under_tracer_records_the_sequential_re_execution() {
    let rep = compiled(GUARDED_SRC);
    let target = rep.verdict("T/do20").unwrap().loop_stmt;

    // Successful parallel dispatch: the loop is not traced (the
    // sanitizer audits sequential semantics only).
    let counts = std::rc::Rc::new(std::cell::RefCell::new(IterCounter::default()));
    let mut it = Interp::new(&rep.program);
    it.attach_tracer(
        TraceConfig::only([target]),
        Box::new(IterRecorder(counts.clone())),
    );
    let mut d = HybridDispatcher::new(&rep, chaos_config());
    it.run_dispatched(&mut d).unwrap();
    assert_eq!(d.telemetry.guarded_parallel, 1);
    assert_eq!(counts.borrow().iters.len(), 0, "parallel runs are untraced");

    // Forged failure: the fallback re-executes sequentially, and the
    // trace must contain the full iteration stream 1..=8.
    let counts = std::rc::Rc::new(std::cell::RefCell::new(IterCounter::default()));
    let mut it = Interp::new(&rep.program);
    it.attach_tracer(
        TraceConfig::only([target]),
        Box::new(IterRecorder(counts.clone())),
    );
    let mut d = HybridDispatcher::new(&rep, chaos_config());
    d.set_fault_plan(FaultPlan::scripted([(1, FaultKind::ForgeConflict)]));
    it.run_dispatched(&mut d).unwrap();
    assert_eq!(d.telemetry.fallback_conflict, 1, "{:?}", d.telemetry);
    let c = counts.borrow();
    assert_eq!(c.enters, 1);
    assert_eq!(c.exits, 1);
    assert_eq!(c.iters, (1..=8).collect::<Vec<i64>>());
}

// ---- randomized sweep over the benchmark suite and paper figures ----

/// The check `sanitizer-audit` runs on the same programs at CI's seed
/// (`irr_sanitizer::checks::chaos`: parity to the oracle under every
/// schedule, every fired fault attributed under its reason code), here
/// under three other schedules a program.
#[test]
fn randomized_chaos_sweep_preserves_sequential_semantics() {
    let config = AuditConfig {
        seed: 1,
        inputs: 3,
        mode: AuditMode::Soundness,
    };
    for case in paper_cases(Scale::Test) {
        let checked = checks::chaos(&case, &config);
        assert!(checked.violations.is_empty(), "{}: {checked:#?}", case.name);
        assert!(checked.summary.contains("3 schedule(s)"), "{checked:?}");
    }
}

#[test]
fn same_seed_replays_identical_fault_schedule() {
    let rep = compiled(&reentrant_src(8));
    let run = |seed| {
        let plan = FaultPlan::randomized(seed, 500, STALL_MS);
        let (hybrid, plan) = run_hybrid_with_faults(&rep, chaos_config(), plan).unwrap();
        (hybrid.telemetry, plan.fired().to_vec())
    };
    let (t1, fired1) = run(7);
    let (t2, fired2) = run(7);
    assert_eq!(t1, t2);
    assert_eq!(fired1, fired2);
}

#[test]
fn sanitizer_audit_stays_clean_on_chaos_targets() {
    // The dependence sanitizer audits the *sequential* semantics every
    // fallback must reproduce. It must stay clean on exactly the
    // programs the chaos sweep replays — the other check of the `paper`
    // sweep `sanitizer-audit` gates in CI.
    let config = AuditConfig {
        seed: 42,
        inputs: 2,
        mode: AuditMode::Soundness,
    };
    for case in paper_cases(Scale::Test) {
        let checked = checks::replay(&case, &config);
        assert!(checked.violations.is_empty(), "{}: {checked:#?}", case.name);
    }
}
