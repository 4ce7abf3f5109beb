//! Benchmarks of the paper's analyses, including the ablations of
//! DESIGN.md §6:
//!
//! - whole-compiler throughput per benchmark kernel;
//! - demand-driven vs exhaustive property analysis;
//! - early termination on/off (Fig. 5 / Fig. 9);
//! - reverse-topological priority worklist vs FIFO (§3.2.2);
//! - interprocedural vs intraprocedural (the Fig. 15 reorganization);
//! - the §2 single-indexed analyses (bDFS-based);
//! - the §1 run-time-vs-compile-time trade-off, now including the
//!   hybrid runtime's versioned schedule cache.

use irr_bench::harness::Runner;
use irr_core::property::{ArrayPropertyAnalysis, SolverOptions};
use irr_core::{
    consecutively_written, find_index_gathering_loops, single_indexed_arrays, stack_access,
    AnalysisCtx, DistanceSpec, Property, PropertyQuery,
};
use irr_driver::{DispatchTier, DriverOptions};
use irr_exec::{
    exec_do_parallel, inspect_offset_length, ExecutionStrategy, FallbackReason, FaultKind,
    FaultPlan, Interp, LoopDispatcher, ParallelPlan,
};
use irr_frontend::{parse_program, Program, StmtId, StmtKind};
use irr_programs::{all, Scale};
use irr_runtime::{run_hybrid, run_hybrid_with_faults, HybridConfig, HybridDispatcher};
use irr_sanitizer::{audit_report, AuditConfig, AuditMode, DependenceTracer};
use irr_symbolic::{Section, SymExpr};

fn compile_benchmarks(r: &Runner) {
    let mut g = r.group("compile");
    g.sample_size(20);
    for b in all(Scale::Test) {
        let program = parse_program(&b.source).unwrap();
        g.bench_with_setup(
            &format!("{}/with-iaa", b.name),
            || program.clone(),
            |p| irr_driver::compile(p, DriverOptions::with_iaa()),
        );
        g.bench_with_setup(
            &format!("{}/without-iaa", b.name),
            || program.clone(),
            |p| irr_driver::compile(p, DriverOptions::without_iaa()),
        );
    }
    g.finish();
}

/// The DYFESM setup + query scenario used by several ablations.
fn dyfesm_scenario() -> (Program, &'static str) {
    let src = "program t
         integer i, j, pptr(101), iblen(100)
         real x(10000)
         call setup
         do 10 i = 1, 100
           do j = 1, iblen(i)
             x(pptr(i) + j - 1) = 1
           enddo
 10      continue
         end
         subroutine setup
         integer i2
         do i2 = 1, 100
           iblen(i2) = mod(i2, 7) + 1
         enddo
         pptr(1) = 1
         do i2 = 1, 100
           pptr(i2 + 1) = pptr(i2) + iblen(i2)
         enddo
         end";
    (parse_program(src).unwrap(), src)
}

fn labeled_loop(p: &Program, label: u32) -> StmtId {
    let mut all_s = Vec::new();
    for proc in &p.procedures {
        all_s.extend(p.stmts_in(&proc.body));
    }
    all_s
        .into_iter()
        .find(|s| matches!(p.stmt(*s).kind, StmtKind::Do { label: Some(l), .. } if l == label))
        .expect("labeled loop exists")
}

fn query_with(opts: SolverOptions, ctx: &AnalysisCtx<'_>, at: StmtId) -> bool {
    let p = ctx.program;
    let pptr = p.symbols.lookup("pptr").unwrap();
    let iblen = p.symbols.lookup("iblen").unwrap();
    let mut apa = ArrayPropertyAnalysis::with_options(ctx, opts);
    apa.check(&PropertyQuery {
        array: pptr,
        property: Property::ClosedFormDistance {
            distance: DistanceSpec::Array(iblen),
        },
        section: Section::range1(SymExpr::int(1), SymExpr::int(99)),
        at_stmt: at,
    })
}

fn solver_ablations(r: &Runner) {
    let (program, _) = dyfesm_scenario();
    let ctx = AnalysisCtx::new(&program);
    let at = labeled_loop(&program, 10);
    let mut g = r.group("query-solver");
    g.sample_size(30);
    let base = SolverOptions::default();
    assert!(query_with(base, &ctx, at));
    g.bench_function("default", || query_with(base, &ctx, at));
    g.bench_function("no-early-termination", || {
        query_with(
            SolverOptions {
                early_termination: false,
                ..base
            },
            &ctx,
            at,
        )
    });
    g.bench_function("fifo-worklist", || {
        query_with(
            SolverOptions {
                rtop_priority: false,
                ..base
            },
            &ctx,
            at,
        )
    });
    // Summary caching across queries: repeated queries on one engine.
    {
        let p = &program;
        let pptr = p.symbols.lookup("pptr").unwrap();
        let iblen = p.symbols.lookup("iblen").unwrap();
        let mut apa = ArrayPropertyAnalysis::new(&ctx);
        let q = PropertyQuery {
            array: pptr,
            property: Property::ClosedFormDistance {
                distance: DistanceSpec::Array(iblen),
            },
            section: Section::range1(SymExpr::int(1), SymExpr::int(99)),
            at_stmt: at,
        };
        apa.check(&q);
        g.bench_function("cached-requery", || apa.check(&q));
    }
    g.finish();
}

/// Demand-driven (only the queries clients need) vs exhaustive (verify a
/// battery of properties for every array everywhere) — the design choice
/// §3 calls out: "the cost of interprocedural array reaching definition
/// analysis and property checking is high".
fn demand_vs_exhaustive(r: &Runner) {
    let b = all(Scale::Test)
        .into_iter()
        .find(|b| b.name == "DYFESM")
        .unwrap();
    let program = parse_program(&b.source).unwrap();
    let mut g = r.group("demand-vs-exhaustive");
    g.sample_size(10);
    g.bench_with_setup(
        "demand-driven-pipeline",
        || program.clone(),
        |p| irr_driver::compile(p, DriverOptions::with_iaa()),
    );
    g.bench_function("exhaustive-all-arrays", || {
        let ctx = AnalysisCtx::new(&program);
        let mut apa = ArrayPropertyAnalysis::new(&ctx);
        let last = *program.procedures[program.main().index()]
            .body
            .last()
            .unwrap();
        let mut verified = 0;
        for (v, info) in program.symbols.iter() {
            if !info.is_array() {
                continue;
            }
            let battery = [
                Property::Injective,
                Property::MonotoneNonDecreasing,
                Property::ClosedFormBound {
                    lo: Some(SymExpr::int(0)),
                    hi: None,
                },
            ];
            for prop in battery {
                let q = PropertyQuery {
                    array: v,
                    property: prop,
                    section: Section::range1(SymExpr::int(1), SymExpr::int(50)),
                    at_stmt: last,
                };
                if apa.check(&q) {
                    verified += 1;
                }
            }
        }
        verified
    });
    g.finish();
}

fn single_indexed_analyses(r: &Runner) {
    let tree = all(Scale::Test)
        .into_iter()
        .find(|b| b.name == "TREE")
        .unwrap();
    let program = parse_program(&tree.source).unwrap();
    let ctx = AnalysisCtx::new(&program);
    let accel = program.find_procedure("accel").unwrap();
    let do10 = program
        .stmts_in(&program.procedure(accel).body)
        .into_iter()
        .find(|s| program.stmt(*s).kind.is_loop())
        .unwrap();
    let stack = program.symbols.lookup("stack").unwrap();
    let sptr = program.symbols.lookup("sptr").unwrap();
    let mut g = r.group("single-indexed");
    g.bench_function("detect", || single_indexed_arrays(&ctx, do10));
    g.bench_function("stack-access", || stack_access(&ctx, do10, stack, sptr));
    let bdna = all(Scale::Test)
        .into_iter()
        .find(|b| b.name == "BDNA")
        .unwrap();
    let bprog = parse_program(&bdna.source).unwrap();
    let bctx = AnalysisCtx::new(&bprog);
    let actfor = bprog.find_procedure("actfor").unwrap();
    let body = bprog.procedure(actfor).body.clone();
    g.bench_function("gather-scan", || find_index_gathering_loops(&bctx, &body));
    let gather = find_index_gathering_loops(&bctx, &body)[0].loop_stmt;
    let ind = bprog.symbols.lookup("ind").unwrap();
    let q = bprog.symbols.lookup("q").unwrap();
    g.bench_function("consecutively-written", || {
        consecutively_written(&bctx, gather, ind, q)
    });
    g.finish();
}

/// The flagship guarded loop: `p(i) = mod(i*3, n) + 1` is a permutation
/// (gcd(3, 512) = 1) the static injectivity checkers cannot derive, so
/// the compiler leaves a `RuntimeGuarded` verdict on `do 20`.
const GUARDED_SRC: &str = "program t
     integer i, n, p(512)
     real z(512), x(512)
     n = 512
     do i = 1, n
       p(i) = mod(i * 3, n) + 1
       x(i) = i * 1.0
     enddo
     do 20 i = 1, n
       z(p(i)) = x(i) * 2.0
 20  continue
     print z(1)
     end";

/// The paper's §1 argument against run-time tests: the inspector pays on
/// every execution, while the compile-time query pays once at compile
/// time. Compare the per-execution inspector cost against the (cached)
/// compile-time query — and against the hybrid runtime's middle ground,
/// where a versioned schedule cache turns re-entry into a few integer
/// compares.
fn runtime_vs_compile_time(r: &Runner) {
    let (program, _) = dyfesm_scenario();
    let store = Interp::new(&program).run().unwrap().store;
    let ptr = program.symbols.lookup("pptr").unwrap();
    let len = program.symbols.lookup("iblen").unwrap();
    let ctx = AnalysisCtx::new(&program);
    let at = labeled_loop(&program, 10);
    let mut g = r.group("runtime-vs-compile-time");
    g.bench_function("runtime-inspector-per-execution", || {
        inspect_offset_length(&store, ptr, len, 1, 100)
    });
    g.bench_function("compile-time-query-once", || {
        query_with(SolverOptions::default(), &ctx, at)
    });

    // The hybrid tier: dispatch the guarded mod-permutation loop with
    // and without the schedule cache. Uncached pays the O(section)
    // inspector on every entry; cached re-entry compares store versions.
    let rep = irr_driver::compile_source(GUARDED_SRC, DriverOptions::with_iaa()).unwrap();
    let v = rep.verdict("T/do20").expect("verdict for do20");
    assert!(
        matches!(v.tier, DispatchTier::RuntimeGuarded(_)),
        "bench scenario must stay guarded: {v:?}"
    );
    let loop_stmt = v.loop_stmt;
    let guarded_store = Interp::new(&rep.program).run().unwrap().store;
    let mut uncached = HybridDispatcher::new(
        &rep,
        HybridConfig {
            cache_schedules: false,
            ..HybridConfig::default()
        },
    );
    g.bench_function("hybrid-guarded-inspect-per-entry", || {
        uncached.dispatch(&guarded_store, loop_stmt, 1, 512, 1)
    });
    let mut cached = HybridDispatcher::new(&rep, HybridConfig::default());
    cached.dispatch(&guarded_store, loop_stmt, 1, 512, 1); // warm the cache
    cached.dispatch(&guarded_store, loop_stmt, 1, 512, 1);
    assert_eq!(cached.telemetry.cache_hits, 1, "{:?}", cached.telemetry);
    g.bench_function("hybrid-guarded-cached-reentry", || {
        cached.dispatch(&guarded_store, loop_stmt, 1, 512, 1)
    });

    // Write-log merge scaling: the same 16-element write set executed in
    // parallel against a small and a 16×-larger store. Worker clones are
    // copy-on-write and the merge replays write logs, so the cost tracks
    // the write volume, not the store size — `store-8192` must land
    // within ~2× of `store-512` (the old snapshot-diff merge cloned and
    // diffed every element, scaling with the store instead).
    for n in [512usize, 8192] {
        let (program, fill, target) = sixteen_writes_scenario(n);
        g.bench_with_setup(
            &format!("parallel-exec-16-writes/store-{n}"),
            || {
                // Fill the big array sequentially so the workers fork
                // from a store that really holds `n` live elements.
                let mut it = Interp::new(&program);
                it.exec_stmt(fill).unwrap();
                it
            },
            |mut it| {
                exec_do_parallel(&mut it, target, &ParallelPlan::with_threads(4), 1, 16, 1).unwrap()
            },
        );
    }
    g.finish();
}

/// A loop writing 16 elements of a `y` array backed by an `n`-element
/// store — the write-log merge scaling scenario, shared by the
/// parallel-exec, fallback, and parallel-strategy groups. The fill loop
/// materializes both arrays, so workers fork from a store holding `2n`
/// live elements and a worker's first write to `y` pays the
/// copy-on-write clone of the full payload on the write-log path.
/// Returns the program, the fill loop, and the 16-write target loop.
fn sixteen_writes_scenario(n: usize) -> (Program, StmtId, StmtId) {
    let src = format!(
        "program t
         integer i
         real big({n}), y({n})
         do i = 1, {n}
           big(i) = i * 0.5
           y(i) = 0.0
         enddo
         do i = 1, 16
           y(i) = big(i) + i
         enddo
         end"
    );
    let program = parse_program(&src).unwrap();
    let loops: Vec<StmtId> = program
        .stmts_in(&program.procedure(program.main()).body)
        .into_iter()
        .filter(|s| matches!(program.stmt(*s).kind, StmtKind::Do { .. }))
        .collect();
    let (fill, target) = (loops[0], loops[1]);
    (program, fill, target)
}

/// A consecutively-written gather (§2.2): the sequential-tier loop the
/// privatize-and-concat strategy promotes to parallel dispatch.
const GATHER_SRC: &str = "program t
     integer i, n, q, ind(512)
     real x(512)
     n = 512
     q = 0
     do i = 1, n
       x(i) = mod(i, 3) * 1.0
     enddo
     do 20 i = 1, n
       if (x(i) > 0.5) then
         q = q + 1
         ind(q) = i
       endif
 20  continue
     print q, ind(1)
     end";

/// The tentpole measurement: proof-directed in-place commits against
/// the transactional write-log on the identical 16-writes kernel, swept
/// across store sizes. The write-log path pays a per-worker
/// copy-on-write clone of the written array's full payload plus the
/// log-and-merge round trip, so its cost tracks the store size; the
/// in-place path re-proves disjointness and issues 16 raw writes into
/// the master buffer, so its cost tracks the write volume. The gap must
/// widen as the store grows (CI keeps the sweep honest through the
/// `--baseline` soft gate).
fn strategy_sweep(r: &Runner) {
    let mut g = r.group("parallel-strategy");
    g.sample_size(20);
    for n in [512usize, 4096, 16384, 65536] {
        let (program, fill, target) = sixteen_writes_scenario(n);
        let write_log = ParallelPlan {
            deadline_ms: None,
            fault: None,
            ..ParallelPlan::with_threads(4)
        };
        let in_place = ParallelPlan {
            strategy: ExecutionStrategy::InPlaceDisjoint,
            deadline_ms: None,
            fault: None,
            ..ParallelPlan::with_threads(4)
        };
        // The request must hold, not silently downgrade: the executor
        // re-derives the disjointness facts and reports what committed.
        {
            let mut it = Interp::new(&program);
            it.exec_stmt(fill).unwrap();
            let committed = exec_do_parallel(&mut it, target, &in_place, 1, 16, 1).unwrap();
            assert_eq!(committed.strategy, ExecutionStrategy::InPlaceDisjoint);
        }
        g.bench_with_setup(
            &format!("write-log-16-writes/store-{n}"),
            || {
                let mut it = Interp::new(&program);
                it.exec_stmt(fill).unwrap();
                it
            },
            |mut it| exec_do_parallel(&mut it, target, &write_log, 1, 16, 1).unwrap(),
        );
        g.bench_with_setup(
            &format!("in-place-16-writes/store-{n}"),
            || {
                let mut it = Interp::new(&program);
                it.exec_stmt(fill).unwrap();
                it
            },
            |mut it| exec_do_parallel(&mut it, target, &in_place, 1, 16, 1).unwrap(),
        );
    }
    g.finish();

    // The per-strategy dispatch counts behind representative hybrid
    // runs, recorded next to the sweep timings (the JSON report is the
    // cross-commit record of which commit path each kernel took).
    let guarded = irr_driver::compile_source(GUARDED_SRC, DriverOptions::with_iaa()).unwrap();
    let out = run_hybrid(&guarded, HybridConfig::default()).unwrap();
    for (name, v) in out.strategy_counts() {
        r.annotate(&format!("parallel-strategy/hybrid-modperm/{name}"), v);
    }
    for (name, v) in compiled_counts(&out) {
        r.annotate(&format!("parallel-strategy/hybrid-modperm/{name}"), v);
    }
    let gather = irr_driver::compile_source(GATHER_SRC, DriverOptions::with_iaa()).unwrap();
    let out = run_hybrid(&gather, HybridConfig::default()).unwrap();
    for (name, v) in out.strategy_counts() {
        r.annotate(&format!("parallel-strategy/hybrid-gather/{name}"), v);
    }
    for (name, v) in compiled_counts(&out) {
        r.annotate(&format!("parallel-strategy/hybrid-gather/{name}"), v);
    }
}

/// Compiled-tier engagement counters recorded alongside the strategy
/// counts: sequential-tier bytecode entries, parallel dispatches with
/// bytecode workers, the engine their chunks actually finished on and
/// the threads the whole run created for them, and reason-coded
/// tree-walk fallbacks.
fn compiled_counts(out: &irr_runtime::HybridOutcome) -> [(&'static str, u64); 6] {
    let t = &out.telemetry;
    [
        ("compiled_loops", t.compiled_loops),
        ("compiled_worker_dispatches", t.compiled_worker_dispatches),
        ("worker_chunks_typed", t.worker_chunks_typed),
        ("worker_chunks_tree_walk", t.worker_chunks_tree_walk),
        ("worker_threads_spawned", t.worker_threads_spawned),
        ("compiled_fallbacks", t.compiled_fallbacks()),
    ]
}

/// The transactional-fallback costs:
///
/// - `parallel-hot-path-hooks-off` — the exact `parallel-exec-16-writes`
///   scenario through a plan with no fault armed and no deadline; every
///   fault hook is a `None` check, so this must land within noise of
///   `runtime-vs-compile-time/parallel-exec-16-writes/store-512` (CI
///   enforces a same-run ratio).
/// - `hybrid-fault-free-run` / `hybrid-conflict-recovery-run` — a whole
///   guarded-kernel hybrid execution without faults vs with a forged
///   conflict, which pays one discarded parallel attempt plus the
///   sequential re-execution of the loop.
/// - `hybrid-quarantined-reentry-dispatch` — dispatching a poisoned
///   schedule: a cache probe and a counter decrement, no inspection.
fn fallback_overhead(r: &Runner) {
    let mut g = r.group("fallback");
    g.sample_size(20);
    let (program, fill, target) = sixteen_writes_scenario(512);
    g.bench_with_setup(
        "parallel-hot-path-hooks-off/store-512",
        || {
            let mut it = Interp::new(&program);
            it.exec_stmt(fill).unwrap();
            it
        },
        |mut it| {
            let plan = ParallelPlan {
                deadline_ms: None,
                fault: None,
                ..ParallelPlan::with_threads(4)
            };
            exec_do_parallel(&mut it, target, &plan, 1, 16, 1).unwrap()
        },
    );

    let rep = irr_driver::compile_source(GUARDED_SRC, DriverOptions::with_iaa()).unwrap();
    g.bench_function("hybrid-fault-free-run", || {
        run_hybrid(&rep, HybridConfig::default()).unwrap()
    });
    g.bench_function("hybrid-conflict-recovery-run", || {
        // Site 0 is the compile-time-parallel fill loop; site 1 is the
        // guarded `do 20`, which the forged conflict rolls back.
        let plan = FaultPlan::scripted([(1, FaultKind::ForgeConflict)]);
        let (out, plan) = run_hybrid_with_faults(&rep, HybridConfig::default(), plan).unwrap();
        assert_eq!(out.telemetry.fallbacks(), 1, "{:?}", plan.fired());
        out
    });
    // The reason-coded dispatch counters behind the recovery scenario,
    // recorded into the JSON report next to its timing.
    {
        let plan = FaultPlan::scripted([(1, FaultKind::ForgeConflict)]);
        let (out, _) = run_hybrid_with_faults(&rep, HybridConfig::default(), plan).unwrap();
        let t = out.telemetry;
        for (key, v) in [
            ("fallback-conflict", t.fallback_conflict),
            ("quarantine-poisonings", t.quarantine_poisonings),
            ("sequential-proven", t.sequential_proven),
            ("sequential-unknown-loop", t.sequential_unknown_loop),
            ("sequential-non-unit-step", t.sequential_non_unit_step),
        ] {
            r.annotate(&format!("fallback/hybrid-conflict-recovery-run/{key}"), v);
        }
    }

    // A dispatcher whose guarded schedule is pinned sequential: the
    // re-entry cost of a quarantined loop.
    let v = rep.verdict("T/do20").expect("verdict for do20");
    let store = Interp::new(&rep.program).run().unwrap().store;
    let mut quarantined = HybridDispatcher::new(
        &rep,
        HybridConfig {
            quarantine_retries: u32::MAX,
            ..HybridConfig::default()
        },
    );
    quarantined.dispatch(&store, v.loop_stmt, 1, 512, 1);
    quarantined.parallel_failed(v.loop_stmt, FallbackReason::Conflict);
    // One explicit poisoned re-entry, so the scenario holds even when a
    // command-line filter skips the timed entry below.
    quarantined.dispatch(&store, v.loop_stmt, 1, 512, 1);
    assert!(
        quarantined.telemetry.quarantined > 0,
        "{:?}",
        quarantined.telemetry
    );
    g.bench_function("hybrid-quarantined-reentry-dispatch", || {
        quarantined.dispatch(&store, v.loop_stmt, 1, 512, 1)
    });
    g.finish();
}

/// The dependence sanitizer's costs: the interpreter with no tracer
/// attached (every hook site is one null check — the tracing-off
/// overhead must stay within noise of the pre-sanitizer interpreter),
/// the same run under full shadow-memory tracing, and a complete audit
/// of the guarded mod-permutation kernel.
fn sanitizer_overhead(r: &Runner) {
    let trfd = all(Scale::Test)
        .into_iter()
        .find(|b| b.name == "TRFD")
        .unwrap();
    let rep = irr_driver::compile_source(&trfd.source, DriverOptions::with_iaa()).unwrap();
    let mut g = r.group("sanitizer");
    g.sample_size(20);
    g.bench_function("interp-tracing-off", || {
        Interp::new(&rep.program).run().unwrap()
    });
    g.bench_function("interp-tracing-on", || {
        let (tracer, _handle) = DependenceTracer::from_report(&rep);
        let mut it = Interp::new(&rep.program);
        it.attach_tracer(irr_exec::TraceConfig::all(), Box::new(tracer));
        it.run().unwrap()
    });
    let guarded = irr_driver::compile_source(GUARDED_SRC, DriverOptions::with_iaa()).unwrap();
    g.sample_size(10);
    g.bench_function("audit-soundness-modperm-4-inputs", || {
        audit_report(
            &guarded,
            &AuditConfig {
                seed: 42,
                inputs: 4,
                mode: AuditMode::Soundness,
            },
        )
    });
    g.finish();
}

fn main() {
    let r = Runner::from_env();
    compile_benchmarks(&r);
    solver_ablations(&r);
    demand_vs_exhaustive(&r);
    single_indexed_analyses(&r);
    runtime_vs_compile_time(&r);
    strategy_sweep(&r);
    fallback_overhead(&r);
    sanitizer_overhead(&r);
    std::process::exit(r.finalize());
}
