//! End-to-end acceptance tests for the hybrid inspector–executor
//! runtime: a loop the compile-time solver cannot prove independent is
//! parallelized through a run-time guard, the versioned schedule cache
//! amortizes inspections across executions, and writes to the index
//! array force exactly one re-inspection.

use irr_driver::{compile_source, CompiledPlan, DispatchTier, DriverOptions, ResidualCheck};
use irr_exec::{inspect_injective, inspect_offset_length, FallbackReason, Interp};
use irr_runtime::{run_hybrid, run_hybrid_seeded, HybridConfig, Telemetry};
use irr_sanitizer::parity::{dispatched, first_divergence, sequential, Reals};
use irr_sparse::{int_array, random_permutation, real_array};

/// The flagship scenario: `p(i) = mod(i*3, n) + 1` is a permutation of
/// `1..=n` for `n = 8` (since `gcd(3, 8) = 1`) — a fact the static
/// injectivity checkers cannot derive. The guarded loop executes four
/// times inside the `r` loop; on the fourth pass the program first
/// overwrites `p(1)`, making `p` non-injective.
const HYBRID_SRC: &str = "program t
     integer i, r, n, p(8)
     real z(8), x(8)
     n = 8
     do i = 1, n
       p(i) = mod(i * 3, n) + 1
       x(i) = i * 1.0
     enddo
     do r = 1, 4
       if (r == 4) then
         p(1) = 1
       endif
       do 20 i = 1, n
         z(p(i)) = x(i) + r
 20    continue
     enddo
     print z(1), z(2), z(8)
     end";

#[test]
fn unknown_injectivity_is_guarded_not_parallel() {
    let rep = compile_source(HYBRID_SRC, DriverOptions::with_iaa()).unwrap();
    let v = rep.verdict("T/do20").expect("verdict for the guarded loop");
    assert!(
        !v.parallel,
        "the solver must not prove the mod-permutation injective: {v:?}"
    );
    let DispatchTier::RuntimeGuarded(guard) = &v.tier else {
        panic!("expected a runtime guard, got {:?}", v.tier);
    };
    let program = &rep.program;
    let p = program.symbols.lookup("p").unwrap();
    assert_eq!(
        guard.groups,
        vec![vec![ResidualCheck::Injective { array: p }]]
    );
    // The verdict's blockers name the missing fact, not just "maybe".
    assert!(
        v.blockers.iter().any(|b| b.contains("runtime-checkable")),
        "{:?}",
        v.blockers
    );
}

#[test]
fn schedule_cache_amortizes_inspections_and_invalidates_on_write() {
    let rep = compile_source(HYBRID_SRC, DriverOptions::with_iaa()).unwrap();
    let seq = Interp::new(&rep.program).run().unwrap();
    let hybrid = run_hybrid(&rep, HybridConfig::default()).unwrap();
    // Semantics preserved (the 4th, non-injective pass runs sequentially).
    assert_eq!(hybrid.outcome.output, seq.output);
    let t = hybrid.telemetry;
    // Four dynamic entries: inspect once, reuse twice, re-inspect once
    // after the single store to `p`.
    assert_eq!(t.inspections_run, 2, "{t:?}");
    assert_eq!(t.cache_hits, 2, "{t:?}");
    assert_eq!(t.cache_invalidations, 1, "{t:?}");
    assert_eq!(t.guarded_parallel, 3, "{t:?}");
    assert_eq!(t.guarded_sequential, 1, "{t:?}");
}

/// A run's thread creations are bounded by its widest dispatch, not by
/// how many dispatches it makes, and the threads outlive the run: at
/// two threads the producer loop and the first of 200 guarded entries
/// split in two and share one pooled thread (the master runs the other
/// chunk), and the 199 re-entries, each far below the work worth a
/// second chunk, run as one chunk on the calling thread. The first run
/// creates at most that one thread — none if an earlier run of this
/// process did — and a second run creates none and runs the same
/// chunks. At one thread every dispatch runs on the calling thread and
/// no thread is ever created.
#[test]
fn a_reentered_loop_creates_its_threads_once_per_process() {
    let src = HYBRID_SRC
        .replace("do r = 1, 4", "do r = 1, 200")
        .replace("r == 4", "r == 201");
    let rep = compile_source(&src, DriverOptions::with_iaa()).unwrap();
    let seq = Interp::new(&rep.program).run().unwrap();
    for threads in [2, 1] {
        let config = HybridConfig {
            threads,
            ..HybridConfig::default()
        };
        let runs = [0, 1].map(|_| run_hybrid(&rep, config).unwrap());
        for (k, hybrid) in runs.iter().enumerate() {
            assert_eq!(hybrid.outcome.output, seq.output);
            let t = &hybrid.telemetry;
            assert_eq!(t.guarded_parallel, 200, "{t:?}");
            assert_eq!(t.fallbacks(), 0, "{t:?}");
            assert_eq!(t.worker_chunks_typed, 2 * threads as u64 + 199, "{t:?}");
            let most = if k == 0 { threads as u64 - 1 } else { 0 };
            assert!(
                t.worker_threads_spawned <= most,
                "run {k} at {threads} threads: {t:?}"
            );
        }
    }
}

// ---- how many chunks an entry gets: the work its loop last did ----

/// `irr_runtime`'s private `MIN_CHUNK_COST`: the cost units a chunk
/// must carry before an entry is split further.
const MIN_CHUNK_COST: u64 = 1 << 15;

/// A compile-time parallel sweep over `x(1..m)`, entered three times
/// with the `m` of each entry spliced in as `@M@` (a function of `r`),
/// after a producer loop over all of `y(1..n)`. Each iteration costs
/// two units: its statement and the loop's bookkeeping.
fn sweep_src(n: usize, m: &str) -> String {
    format!(
        "program t
         integer i, r, m, n
         real x({n}), y({n})
         n = {n}
         do i = 1, n
           y(i) = i * 0.5
         enddo
         do r = 1, 3
           m = {m}
           do 20 i = 1, m
             x(i) = y(i) * r
 20        continue
         enddo
         print x(1), x(m)
         end"
    )
}

/// Runs `src` twice at two threads; checks each run against the
/// sequential run and that the sweep is compile-time parallel and never
/// falls back. The first run creates at most the one thread two chunks
/// need; the second creates none and counts everything else as the
/// first did. Returns the sweep's statistics beside the second run's
/// telemetry.
fn run_sweep(src: &str) -> (irr_exec::LoopStats, Telemetry) {
    let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
    let v = rep.verdict("T/do20").unwrap();
    assert!(matches!(v.tier, DispatchTier::CompileTimeParallel), "{v:?}");
    let config = HybridConfig {
        threads: 2,
        ..HybridConfig::default()
    };
    let seq = Interp::new(&rep.program).run().unwrap();
    let [first, second] = [0, 1].map(|_| {
        let hybrid = run_hybrid(&rep, config).unwrap();
        let diff = first_divergence(&rep, &seq, &hybrid.outcome, Reals::Exact);
        assert_eq!(diff, None);
        let t = &hybrid.telemetry;
        assert_eq!((t.compile_time_parallel, t.fallbacks()), (4, 0), "{t:?}");
        hybrid
    });
    let t = second.telemetry;
    assert!(
        first.telemetry.worker_threads_spawned <= 1,
        "{:?}",
        first.telemetry
    );
    assert_eq!(t.worker_threads_spawned, 0, "{t:?}");
    let threads_aside = Telemetry {
        worker_threads_spawned: 0,
        ..first.telemetry
    };
    assert_eq!(threads_aside, t);
    (second.outcome.stats.loops[&v.loop_stmt].clone(), t)
}

/// A small re-entered loop: its first entry knows nothing of its work
/// and splits over every thread; each later entry, sized by what the
/// one before it cost (16 units), runs as one chunk on the calling
/// thread. The producer loop is entered once and keeps its two chunks.
#[test]
fn a_small_reentered_loop_runs_every_later_entry_as_one_chunk() {
    let (_, t) = run_sweep(&sweep_src(8, "8"));
    assert_eq!(t.worker_chunks_typed, 2 + 2 + 1 + 1, "{t:?}");
}

/// A re-entered loop whose every entry carries at least two chunks'
/// worth of work keeps every configured thread on every entry, and the
/// entries share one pooled thread.
#[test]
fn a_reentered_loop_worth_splitting_keeps_its_chunks_on_every_entry() {
    let (sweep, t) = run_sweep(&sweep_src(40_000, "n"));
    assert_eq!(sweep.invocations, 3);
    assert!(
        sweep.total_cost / 3 >= 2 * MIN_CHUNK_COST,
        "{} units an entry",
        sweep.total_cost / 3
    );
    assert_eq!(t.worker_chunks_typed, 2 + 3 * 2, "{t:?}");
}

/// Two runs of splitting sources, on two threads started together and
/// each four times over, share the one process pool: a split entry
/// publishes its batch if the pool holds none and otherwise runs its
/// chunks on its own thread. Every run leaves what its sequential run
/// leaves, bit for bit, and splits every entry.
#[test]
fn concurrent_runs_share_the_pool_and_each_matches_its_sequential_run() {
    let sources = [sweep_src(40_000, "n"), sweep_src(50_000, "n - r")];
    let start = std::sync::Barrier::new(sources.len());
    std::thread::scope(|s| {
        for src in &sources {
            let start = &start;
            s.spawn(move || {
                let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
                let seq = Interp::new(&rep.program).run().unwrap();
                let config = HybridConfig {
                    threads: 2,
                    ..HybridConfig::default()
                };
                start.wait();
                for run in 0..4 {
                    let hybrid = run_hybrid(&rep, config).unwrap();
                    let diff = first_divergence(&rep, &seq, &hybrid.outcome, Reals::Exact);
                    assert_eq!(diff, None, "run {run}");
                    let t = hybrid.telemetry;
                    assert_eq!(t.fallbacks(), 0, "run {run}: {t:?}");
                    assert_eq!(t.worker_chunks_typed, 2 + 3 * 2, "run {run}: {t:?}");
                }
            });
        }
    });
}

/// The rule scales by trip count: a loop whose second entry ran 8
/// iterations as one chunk splits again when its third entry runs
/// 40 000 of the same body.
#[test]
fn a_loop_whose_bounds_grow_between_entries_splits_again() {
    let (_, t) = run_sweep(&sweep_src(40_000, "8 + (r / 3) * 39992"));
    assert_eq!(t.worker_chunks_typed, 2 + 2 + 1 + 2, "{t:?}");
}

/// No clock and no host reading sizes a dispatch: two runs of the same
/// program make the same decisions and count the same telemetry, down
/// to the chunks and the threads.
#[test]
fn the_chunk_counts_repeat_run_for_run() {
    let src = sweep_src(40_000, "8 + (r / 3) * 39992");
    let ((_, a), (_, b)) = (run_sweep(&src), run_sweep(&src));
    assert_eq!(a, b);
    assert_eq!(a.worker_chunks_typed, 7, "{a:?}");
}

#[test]
fn guarded_zero_trip_loop_is_vacuously_parallel() {
    // The guarded loop's bound is 0 at run time but opaque to the solver
    // (`mod` is uninterpreted symbolically, so it cannot prove the
    // section `[1:m]` empty): the loop stays guarded, the inspection
    // section is empty at run time, the guard passes vacuously, and the
    // zero-trip parallel path preserves sequential semantics (induction
    // var left at lo).
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
    let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
    let v = rep.verdict("T/do20").unwrap();
    assert!(matches!(v.tier, DispatchTier::RuntimeGuarded(_)), "{v:?}");
    let seq = Interp::new(&rep.program).run().unwrap();
    let hybrid = run_hybrid(&rep, HybridConfig::default()).unwrap();
    assert_eq!(hybrid.outcome.output, seq.output);
    assert_eq!(
        hybrid.telemetry.guarded_parallel, 1,
        "{:?}",
        hybrid.telemetry
    );
}

#[test]
fn mutation_can_also_clear_a_previously_failing_guard() {
    // First entry: p collides (mod 4) -> sequential fallback. The fix-up
    // pass rewrites p into a permutation; second entry re-inspects (the
    // version moved) and dispatches parallel.
    let src = "program t
         integer i, r, n, p(8)
         real z(8), x(8)
         n = 8
         do i = 1, n
           p(i) = mod(i, 4) + 1
           x(i) = i * 1.0
         enddo
         do r = 1, 2
           do 20 i = 1, n
             z(p(i)) = x(i) + r
 20        continue
           if (r == 1) then
             do i = 1, n
               p(i) = i
             enddo
           endif
         enddo
         print z(1), z(8)
         end";
    let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
    let seq = Interp::new(&rep.program).run().unwrap();
    let hybrid = run_hybrid(&rep, HybridConfig::default()).unwrap();
    assert_eq!(hybrid.outcome.output, seq.output);
    let t = hybrid.telemetry;
    assert_eq!(t.guarded_sequential, 1, "{t:?}");
    assert_eq!(t.guarded_parallel, 1, "{t:?}");
    assert_eq!(t.inspections_run, 2, "{t:?}");
    assert_eq!(t.cache_invalidations, 1, "{t:?}");
}

#[test]
fn hybrid_store_and_stats_match_sequential_end_to_end() {
    // The write-log executor must leave the hybrid run observably
    // identical to the sequential run: final store, loop statistics,
    // and total statement cost — the workers' accounting is aggregated,
    // not dropped, and the O(writes) merge reconstructs the exact
    // sequential store from the chunks' write logs.
    let rep = compile_source(HYBRID_SRC, DriverOptions::with_iaa()).unwrap();
    let seq = Interp::new(&rep.program).run().unwrap();
    let hybrid = run_hybrid(&rep, HybridConfig::default()).unwrap();
    assert!(
        hybrid.telemetry.guarded_parallel > 0,
        "{:?}",
        hybrid.telemetry
    );
    let diff = first_divergence(&rep, &seq, &hybrid.outcome, Reals::Exact);
    assert_eq!(diff, None);
}

/// The certificates an inspection issues belong to the schedule key it
/// cleared, and the cache keeps several keys a loop. A guarded scatter
/// entered twenty times under two alternating upper bounds inspects
/// twice and hits eighteen times — and every one of the twenty entries
/// commits in place, whichever of the two sections was inspected last
/// (with one certificate list per *loop*, the hits on the key that
/// covers the other lost theirs and silently paid for the write-log:
/// 11 in place, 9 logged).
#[test]
fn a_cache_hit_on_any_live_key_commits_under_that_keys_certificate() {
    const N: usize = 4096;
    for parity in ["it", "it + 1"] {
        let src = format!(
            "program t
             integer it, k, m, nnz, perm({N})
             real aval({N}), pval({N})
             nnz = {N}
             do 10 it = 1, 20
               m = nnz - mod({parity}, 2)
               do 800 k = 1, m
                 pval(perm(k)) = aval(k) * 2.0
 800           continue
 10          continue
             print pval(1), pval({N})
             end"
        );
        let rep = compile_source(&src, DriverOptions::with_iaa()).unwrap();
        let v = rep.verdict("T/do800").unwrap();
        assert!(matches!(v.tier, DispatchTier::RuntimeGuarded(_)), "{v:?}");
        assert_eq!(v.strategy_facts.name(), "certified-scatter");
        let var = |name: &str| rep.program.symbols.lookup(name).unwrap();
        let values: Vec<f64> = (0..N).map(|k| k as f64 * 0.25).collect();
        let presets = [
            (var("perm"), int_array(&random_permutation(N, 7))),
            (var("aval"), real_array(&values)),
        ];
        let config = HybridConfig {
            threads: 2,
            ..HybridConfig::default()
        };
        let hybrid = run_hybrid_seeded(&rep, config, &presets).unwrap();
        let t = &hybrid.telemetry;
        assert_eq!(
            (t.inspections_run, t.cache_hits),
            (2, 18),
            "{parity}: {t:?}"
        );
        assert_eq!(
            (t.strategy_in_place, t.strategy_write_log, t.fallbacks()),
            (20, 0, 0),
            "{parity}: {t:?}"
        );
        let seq = sequential(&rep, &presets).unwrap();
        let diff = first_divergence(&rep, &seq, &hybrid.outcome, Reals::Exact);
        assert_eq!(diff, None, "{parity}");
    }
}

// ---- compiled-tier trust discipline: the plan is advisory ----

/// A scalar recurrence: proven sequential, leaf nest. `extra` is
/// spliced into the loop body.
fn recurrence_src(extra: &str) -> String {
    format!(
        "program t
         integer i, n
         real s, x(100)
         n = 100
         s = 0
         do i = 1, n
           x(i) = s
           s = s * 2 + 1
           {extra}
         enddo
         print x(3)
         end"
    )
}

#[test]
fn forged_compiled_plan_falls_back_to_the_tree_walk() {
    // `print` does not lower, so the honest verdict carries no plan. A
    // forged one makes the runtime request the bytecode tier; the
    // executor lowers the nest itself, rejects it, and tree-walks.
    let src = recurrence_src("print s");
    let mut rep = compile_source(&src, DriverOptions::with_iaa()).unwrap();
    let seq = Interp::new(&rep.program).run().unwrap();
    let v = &mut rep.verdicts[0];
    assert!(matches!(v.tier, DispatchTier::Sequential), "{v:?}");
    assert_eq!(v.compiled, None, "{v:?}");
    v.compiled = Some(CompiledPlan::default());
    let hybrid = run_hybrid(&rep, HybridConfig::default()).unwrap();
    let diff = first_divergence(&rep, &seq, &hybrid.outcome, Reals::Exact);
    assert_eq!(diff, None);
    let t = &hybrid.telemetry;
    assert_eq!(t.compiled_fallback_unsupported, 1, "{t:?}");
    assert_eq!(t.compiled_loops, 0, "{t:?}");
}

#[test]
fn cleared_compiled_plan_keeps_a_lowerable_loop_on_the_tree_walk() {
    // The conservative direction: dropping an honest plan only costs
    // the tier, never the result.
    let src = recurrence_src("");
    let mut rep = compile_source(&src, DriverOptions::with_iaa()).unwrap();
    let seq = Interp::new(&rep.program).run().unwrap();
    let honest = run_hybrid(&rep, HybridConfig::default()).unwrap();
    assert_eq!(honest.telemetry.compiled_loops, 1, "{:?}", honest.telemetry);
    let v = &mut rep.verdicts[0];
    assert!(matches!(v.tier, DispatchTier::Sequential), "{v:?}");
    assert!(v.compiled.take().is_some());
    let hybrid = run_hybrid(&rep, HybridConfig::default()).unwrap();
    let diff = first_divergence(&rep, &seq, &hybrid.outcome, Reals::Exact);
    assert_eq!(diff, None);
    let t = &hybrid.telemetry;
    assert_eq!(t.compiled_loops, 0, "{t:?}");
    assert_eq!(t.compiled_fallbacks(), 0, "{t:?}");
}

/// A preset of the other element type — an integer payload for the
/// real array `x` the nest stores to — is a compiled entry the typed
/// loop cannot run: the `Do` arm walks it, reports it `Unsupported`, and
/// ends where the tree-walk does, under the all-compiled dispatcher and
/// under the hybrid runtime alike.
#[test]
fn a_mistyped_preset_walks_and_is_reported_unsupported() {
    let rep = compile_source(&recurrence_src(""), DriverOptions::with_iaa()).unwrap();
    assert!(rep.verdicts[0].compiled.is_some());
    let x = rep.program.symbols.lookup("x").unwrap();
    let presets = [(x, int_array(&[7; 100]))];
    let seq = sequential(&rep, &presets).unwrap();
    let mut d = irr_exec::CompiledDispatch::new();
    let comp = dispatched(&rep, &presets, &mut d).unwrap();
    let hybrid = run_hybrid_seeded(&rep, HybridConfig::default(), &presets).unwrap();
    let ran = |o: &irr_exec::ExecOutcome| (o.output.clone(), o.store.clone(), o.stats.total_cost);
    assert_eq!(ran(&comp), ran(&seq));
    assert_eq!(ran(&hybrid.outcome), ran(&seq));
    let unsupported = vec![(FallbackReason::Unsupported, 1)];
    assert_eq!((d.compiled, d.fallbacks), (0, unsupported));
    let t = hybrid.telemetry;
    let walked = (t.compiled_loops, t.compiled_fallback_unsupported);
    assert_eq!(walked, (0, 1), "{t:?}");
}

/// The parallel twin: an integer preset for the real array `x` a
/// compile-time-parallel loop stores to. The dispatch is refused before
/// any chunk pins `x` (a chunk would write reals into an integer
/// payload), reported `Unsupported` — not a panic — and the sequential
/// fallback ends where the tree-walk does, at one thread and at two.
#[test]
fn a_mistyped_preset_refuses_a_parallel_dispatch_as_unsupported() {
    let src = "program t
         integer i
         real x(100), y(100)
         do i = 1, 100
           y(i) = i * 0.5
         enddo
         do 20 i = 1, 100
           x(i) = y(i) * 2.0 + 1.0
 20      continue
         print x(1), x(100)
         end";
    let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
    let v = rep.verdict("T/do20").expect("verdict for the store to x");
    assert_eq!(v.tier, DispatchTier::CompileTimeParallel);
    let x = rep.program.symbols.lookup("x").unwrap();
    let presets = [(x, int_array(&[7; 100]))];
    let seq = sequential(&rep, &presets).unwrap();
    for threads in [1, 2] {
        let config = HybridConfig {
            threads,
            ..HybridConfig::default()
        };
        let hybrid = run_hybrid_seeded(&rep, config, &presets).unwrap();
        let o = &hybrid.outcome;
        assert_eq!((&o.output, &o.store), (&seq.output, &seq.store));
        let t = hybrid.telemetry;
        let fell = (t.fallback_unsupported, t.fallback_panic);
        assert_eq!(fell, (1, 0), "{threads} thread(s): {t:?}");
    }
}

// ---- inspector edge cases (empty / unallocated / out-of-bounds) ----

/// A store no run has started on: its arrays are not allocated yet (a
/// run allocates every declared array before its first statement).
fn empty_store() -> (irr_frontend::Program, irr_exec::Store) {
    let p = irr_frontend::parse_program(
        "program t
         integer idx(10), ptr(11), len(10)
         end",
    )
    .unwrap();
    let store = irr_exec::Store::new(&p);
    (p, store)
}

#[test]
fn empty_sections_are_parallel_ok_in_all_inspectors() {
    // hi < lo is vacuously fine even when the arrays are not
    // allocated: a zero-trip loop reads nothing.
    let (p, store) = empty_store();
    let idx = p.symbols.lookup("idx").unwrap();
    let ptr = p.symbols.lookup("ptr").unwrap();
    let len = p.symbols.lookup("len").unwrap();
    assert!(inspect_injective(&store, idx, 5, 4));
    assert!(inspect_injective(&store, idx, 1, 0));
    assert!(inspect_offset_length(&store, ptr, len, 5, 4));
}

/// In a store no run has allocated yet the arrays are absent, and a
/// non-empty inspection of one is sequential rather than a panic.
#[test]
fn unmaterialized_arrays_fail_nonempty_inspections() {
    let (p, store) = empty_store();
    let idx = p.symbols.lookup("idx").unwrap();
    let ptr = p.symbols.lookup("ptr").unwrap();
    let len = p.symbols.lookup("len").unwrap();
    assert!(!inspect_injective(&store, idx, 1, 3));
    assert!(!inspect_offset_length(&store, ptr, len, 1, 3));
}

#[test]
fn out_of_bounds_sections_fail_inspections() {
    let p = irr_frontend::parse_program(
        "program t
         integer idx(10), i
         do i = 1, 10
           idx(i) = i
         enddo
         end",
    )
    .unwrap();
    let store = Interp::new(&p).run().unwrap().store;
    let idx = p.symbols.lookup("idx").unwrap();
    assert!(!inspect_injective(&store, idx, 0, 5));
    assert!(!inspect_injective(&store, idx, 1, 11));
}

#[test]
fn store_versions_track_writes_not_reads() {
    let p = irr_frontend::parse_program(
        "program t
         integer idx(10), i
         real s
         do i = 1, 10
           idx(i) = i
         enddo
         s = idx(3) * 1.0
         print s
         end",
    )
    .unwrap();
    let idx = p.symbols.lookup("idx").unwrap();
    let out = Interp::new(&p).run().unwrap();
    let v0 = out.store.array_version(idx);
    assert!(v0 > 0, "writes must bump the version");
    // Reads (the `s = idx(3)` line already ran) leave no further trace:
    // re-running an identical program yields the same version.
    let out2 = Interp::new(&p).run().unwrap();
    assert_eq!(out2.store.array_version(idx), v0);
}

#[test]
fn loop_ending_at_i64_max_terminates_identically_on_the_hybrid_runtime() {
    // The last iteration sits at `i64::MAX`: stepping past it would
    // overflow, so every executor ends the loop there (induction
    // variable at the wrapped sum), and the chunked executor declines
    // the unrepresentable `hi + 1` instead of panicking.
    let src = "program t
         integer i, n
         real a(3)
         do i = 9223372036854775805, 9223372036854775807
           a(i - 9223372036854775804) = 1.5
           n = n + 1
         enddo
         print n, i, a(3)
         end";
    let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
    let seq = Interp::new(&rep.program).run().unwrap();
    assert_eq!(seq.output, vec!["3 -9223372036854775808 1.5"]);
    let hybrid = run_hybrid(&rep, HybridConfig::default()).unwrap();
    let t = &hybrid.telemetry;
    assert_eq!(
        (t.compile_time_parallel, t.fallback_unsupported),
        (1, 1),
        "{t:?}"
    );
    let diff = first_divergence(&rep, &seq, &hybrid.outcome, Reals::Exact);
    assert_eq!(diff, None);
}
