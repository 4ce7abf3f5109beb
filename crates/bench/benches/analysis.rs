//! Benchmarks of the paper's analyses, including the ablations of
//! DESIGN.md §6:
//!
//! - whole-compiler throughput per benchmark kernel;
//! - demand-driven vs exhaustive property analysis;
//! - early termination on/off (Fig. 5 / Fig. 9);
//! - reverse-topological priority worklist vs FIFO (§3.2.2);
//! - interprocedural vs intraprocedural (the Fig. 15 reorganization);
//! - the §2 single-indexed analyses (bDFS-based);
//! - the §1 run-time-vs-compile-time trade-off: inspector per
//!   execution, compile-time query once, and the hybrid runtime's
//!   versioned schedule cache in between.
//!
//! These time the *analyses*. What execution costs — tree-walk, typed
//! loop, hybrid dispatch, commit strategies, the service — is measured
//! by `benchmark/`, per matrix structure and checked against native
//! kernels.

use irr_bench::harness::Runner;
use irr_core::property::{ArrayPropertyAnalysis, SolverOptions};
use irr_core::{
    consecutively_written, find_index_gathering_loops, single_indexed_arrays, stack_access,
    AnalysisCtx, DistanceSpec, Property, PropertyQuery,
};
use irr_driver::{DispatchTier, DriverOptions};
use irr_exec::{inspect_offset_length, Interp, LoopDispatcher};
use irr_frontend::{parse_program, Program, StmtId, StmtKind};
use irr_programs::{all, Scale};
use irr_runtime::{HybridConfig, HybridDispatcher};
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
}

fn main() {
    let r = Runner::from_env();
    compile_benchmarks(&r);
    solver_ablations(&r);
    demand_vs_exhaustive(&r);
    single_indexed_analyses(&r);
    runtime_vs_compile_time(&r);
    std::process::exit(r.finalize());
}
