//! Hybrid inspector–executor runtime (§1 revisited).
//!
//! The paper argues that compile-time analysis beats run-time
//! inspection because "the inspector pays on every execution". This
//! crate implements the *hybrid* middle ground the comparison implies:
//!
//! - loops the compile-time analysis **proved** parallel dispatch
//!   straight to the chunked executor ([`DispatchTier::CompileTimeParallel`]);
//! - loops it **disproved** (or cannot pattern-match) stay sequential;
//! - loops left **Unknown** — where the dependence tester matched a
//!   parallelizable shape but one property didn't prove — carry a
//!   [`GuardPlan`] naming the residual checks. At each dynamic entry a
//!   run-time inspector evaluates exactly those checks against the live
//!   store and dispatches parallel or sequential *for that execution*.
//!
//! The inspection cost is then amortized with a [`ScheduleCache`]: the
//! interpreter's [`Store`] bumps a write-version counter per array, and
//! a cached verdict is reused as long as the guard's index arrays (and
//! the loop's evaluated bounds) are unchanged — within a run,
//! re-inspection happens per *mutation*, not per execution. The cache
//! and the index facts live for one run, so between runs it still
//! happens per execution. [`Telemetry`] counts inspections,
//! cache hits/invalidations, and per-tier dispatches so the trade-off
//! stays measurable (see `tests/hybrid_runtime.rs` and
//! `examples/hybrid_fallback.rs`).
//!
//! Parallel dispatches go through the exec crate's chunked executor:
//! each chunk reads the live store and writes only its own sinks, on
//! the dispatching thread or on one of the process's pooled worker
//! threads, which the first dispatch wide enough to need them creates
//! and every later dispatch reuses
//! ([`Telemetry::worker_threads_spawned`]). The pool serves one
//! dispatch at a time: a run whose split entry finds another run's
//! batch in flight runs that entry's chunks on its own thread. An
//! entry's chunk count is sized by its work: a loop's first entry
//! splits over every configured thread, a later one over as many as
//! its loop's last committed entry says it can fill, and a small
//! re-entered loop runs as one chunk on the dispatching thread
//! ([`HybridConfig::threads`]). A
//! loop whose verdict carries in-place facts writes the master's
//! buffers directly, each chunk confined to its own windows — or, for a
//! scatter, under the injective [`IndexFacts`] the guard's own
//! inspection found, which the [`ScheduleCache`] keeps with the
//! schedule key it cleared and hands to every entry that hits that key.
//! Everything else
//! returns a write log, merged in `O(total writes)` with positional
//! conflict detection. Worker statement costs and loop statistics are
//! aggregated back into the dispatched interpreter, so a hybrid run's
//! [`ExecOutcome`] stats match the sequential run's.

pub mod cache;
pub mod telemetry;

pub use cache::{CacheProbe, ScheduleCache, ScheduleKey};
pub use telemetry::Telemetry;

use irr_driver::{CompilationReport, DispatchTier, GuardPlan, ResidualCheck, StrategyFacts};
use irr_exec::{
    inspect_guard, Committed, ExecError, ExecOutcome, ExecutionStrategy, FallbackReason, FaultKind,
    FaultPlan, IndexFacts, Interp, LoopDecision, LoopDispatcher, ParallelPlan, Store,
};
use irr_frontend::{StmtId, VarId};
use std::collections::HashMap;
use std::sync::Arc;

/// Configuration of the hybrid runtime.
#[derive(Clone, Copy, Debug)]
pub struct HybridConfig {
    /// The most chunks a parallel dispatch is split into, and so the
    /// most threads (the master included) that work on a loop at once.
    /// A loop's first entry gets all of them; a later one gets as many
    /// as the work its loop's previous committed entry did
    /// ([`Committed::cost`]), scaled to this entry's trip count, fills
    /// at 2^15 cost units a chunk — at least one, at most this. Defaults
    /// to the host's available parallelism as the process had it when it
    /// first asked ([`ParallelPlan::default`]).
    pub threads: usize,
    /// After a parallel dispatch fails at runtime, how many subsequent
    /// entries of the same `(loop, key)` schedule are pinned sequential
    /// before the verdict is dropped and re-inspected. `0` retries
    /// immediately (the pre-quarantine behavior).
    pub quarantine_retries: u32,
    /// Per-worker wall-clock deadline for parallel dispatches, in
    /// milliseconds: a worker still running past it turns the dispatch
    /// into a timeout fallback. `None` (the default) disables the
    /// watchdog and keeps the worker hot path clock-free.
    pub worker_deadline_ms: Option<u64>,
    /// Use proof-directed execution strategies (in-place-disjoint,
    /// privatize-and-concat) for loops whose verdicts carry the facts.
    /// `false` — the pre-strategy behavior, kept for A/B measurement —
    /// forces every parallel dispatch through the write-log, and keeps
    /// a sequential-tier loop with consecutive-append facts sequential
    /// instead of promoting it to a concat dispatch.
    pub enable_strategies: bool,
    /// Use the compiled execution tier for the sequential tier:
    /// sequential-tier leaf loops whose verdict carries a compiled plan
    /// dispatch as [`LoopDecision::Compiled`]. `false` walks them on the
    /// AST. Parallel workers run the typed loop either way (a dispatch
    /// whose nest cannot is refused and falls back), so the A/B
    /// baseline `runtime.hybrid_treewalk_ms` in `benchmark/` measures
    /// typed workers under a walked sequential tier.
    pub enable_compiled: bool,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            threads: ParallelPlan::default().threads,
            quarantine_retries: 2,
            worker_deadline_ms: None,
            enable_strategies: true,
            enable_compiled: true,
        }
    }
}

/// Everything the dispatcher needs to know about one compiled loop.
#[derive(Debug)]
struct LoopEntry {
    tier: DispatchTier,
    /// [`ParallelPlan::for_verdict`]: what every dispatch of the loop
    /// privatizes and reduces.
    plan: ParallelPlan,
    /// The arrays a guarded loop's inspectors read, sorted and
    /// deduplicated: what its schedule key versions (empty unguarded).
    guard_arrays: Vec<VarId>,
    /// Strategy requested from the verdict's proven facts. The executor
    /// re-derives the facts itself on every dispatch, so a wrong entry
    /// here (or a forged verdict) downgrades safely to the write-log.
    strategy: ExecutionStrategy,
    /// Residual checks the value-evolution analysis discharged at
    /// compile time: inspections this loop entry never pays for.
    retired: u64,
    /// The discharge crossed a procedure boundary (summary-carried
    /// facts): promotions to attribute to interprocedural analysis.
    interproc: bool,
    /// The verdict carries an advisory compiled-tier plan. Purely a
    /// request: the executor re-lowers from the AST at dispatch and
    /// falls back (reason-coded) when the plan was wrong.
    compiled_plan: bool,
    /// The nest contains no inner `do` loop. Only such leaves take the
    /// sequential compiled tier — an inner `do` must keep consulting
    /// this dispatcher (it may itself be parallel), and the bytecode
    /// executor never dispatches. Inner `while` loops are fine: the
    /// tree-walk never routes those through the dispatcher either.
    leaf_do: bool,
}

/// The hybrid dispatcher: consulted by the interpreter at every dynamic
/// `do`-loop entry (with evaluated bounds); decides the tier, runs
/// inspectors for guarded loops, and maintains the schedule cache.
pub struct HybridDispatcher {
    /// Shared, so a loop entry costs the dispatch a reference count.
    loops: HashMap<StmtId, Arc<LoopEntry>>,
    config: HybridConfig,
    cache: ScheduleCache,
    /// Injected fault schedule for chaos testing; `None` (the default)
    /// keeps every dispatch on the ordinary path at the cost of a
    /// single `Option` check.
    fault: Option<FaultPlan>,
    /// The schedule key of the entry being decided — after a parallel
    /// decision, that decision's, until the interpreter settles it
    /// ([`LoopDispatcher::parallel_committed`] or
    /// [`LoopDispatcher::parallel_failed`]) before it consults the
    /// dispatcher again: chunks run the typed loop, which never
    /// dispatches. So a failure quarantines exactly the schedule that
    /// failed, and a commit reads the bounds it ran. Rebuilt in place
    /// at every entry from the live versions, so probing the cache
    /// allocates nothing; only a schedule the cache admits takes a
    /// copy.
    key: ScheduleKey,
    /// Per loop, what its last committed parallel entry cost
    /// ([`Committed::cost`]) and over how many iterations: what sizes
    /// the loop's next entry ([`HybridDispatcher::chunks_for`]).
    work: HashMap<StmtId, (u64, u64)>,
    /// Counters for this dispatcher's lifetime.
    pub telemetry: Telemetry,
}

impl HybridDispatcher {
    /// Builds a dispatcher from a compilation report's verdicts.
    pub fn new(report: &CompilationReport, config: HybridConfig) -> HybridDispatcher {
        let mut loops = HashMap::new();
        for v in &report.verdicts {
            let strategy = match &v.strategy_facts {
                StrategyFacts::InPlace { .. } => ExecutionStrategy::InPlaceDisjoint,
                StrategyFacts::ConsecutiveAppend { .. } => ExecutionStrategy::PrivatizeAndConcat,
                StrategyFacts::None => ExecutionStrategy::WriteLog,
            };
            let leaf_do = match &report.program.stmt(v.loop_stmt).kind {
                irr_frontend::StmtKind::Do { body, .. } => {
                    report.program.stmts_in(body).iter().all(|s| {
                        !matches!(
                            report.program.stmt(*s).kind,
                            irr_frontend::StmtKind::Do { .. }
                        )
                    })
                }
                _ => false,
            };
            let guard_arrays = match &v.tier {
                DispatchTier::RuntimeGuarded(guard) => guard_arrays(guard),
                _ => Vec::new(),
            };
            loops.insert(
                v.loop_stmt,
                Arc::new(LoopEntry {
                    tier: v.tier.clone(),
                    plan: ParallelPlan::for_verdict(v, config.threads.max(1)),
                    guard_arrays,
                    strategy,
                    retired: v.retired_checks.len() as u64,
                    interproc: v.promoted_interproc,
                    compiled_plan: v.compiled.is_some(),
                    leaf_do,
                }),
            );
        }
        HybridDispatcher {
            loops,
            config,
            cache: ScheduleCache::new(),
            fault: None,
            key: ScheduleKey::new((0, 0), Vec::new()),
            work: HashMap::new(),
            telemetry: Telemetry::default(),
        }
    }

    /// Attaches a fault-injection schedule for chaos testing. Every
    /// parallel dispatch attempt with at least one iteration consumes
    /// one site of the plan; decided faults that go live are recorded
    /// in it (retrieve with [`HybridDispatcher::take_fault_plan`]).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// Detaches the fault plan (with its fired-fault record), if any.
    pub fn take_fault_plan(&mut self) -> Option<FaultPlan> {
        self.fault.take()
    }

    /// Closes the run's telemetry with the two end-of-run readings (the
    /// cache's evictions, the threads the run's dispatches created)
    /// and pairs it with the interpreter's outcome.
    fn finish(mut self, outcome: ExecOutcome) -> HybridOutcome {
        self.telemetry.cache_evictions = self.cache.evictions();
        self.telemetry.worker_threads_spawned = outcome.worker_threads_spawned;
        HybridOutcome {
            outcome,
            telemetry: self.telemetry,
        }
    }

    /// How many chunks the entry of `loop_stmt` over `lo..=hi` is
    /// split into. The first entry of a loop gets every configured
    /// thread: nothing has committed yet, and a static estimate would
    /// undercount a nest whose inner trip counts are data. A later
    /// entry gets one chunk per [`MIN_CHUNK_COST`] of the work the
    /// loop's last committed entry did per iteration times this entry's
    /// trip count, at least one and at most the configured threads — so
    /// a small re-entered loop runs as one chunk on the calling thread.
    /// Cost units are deterministic, so the same program and inputs
    /// chunk alike on every host.
    fn chunks_for(&self, loop_stmt: StmtId, lo: i64, hi: i64) -> usize {
        let threads = self.config.threads.max(1);
        let Some(&(cost, iters)) = self.work.get(&loop_stmt) else {
            return threads;
        };
        let work = u128::from(cost) * u128::from(trip(lo, hi));
        let chunks = work / (u128::from(iters) * u128::from(MIN_CHUNK_COST));
        chunks.clamp(1, threads as u128) as usize
    }

    fn plan_for(
        &mut self,
        entry: &LoopEntry,
        chunks: usize,
        fault: Option<FaultKind>,
        facts: Arc<[IndexFacts]>,
    ) -> ParallelPlan {
        // Every worker runs the typed loop: the master re-lowers before
        // dispatching and refuses the dispatch when that fails.
        self.telemetry.compiled_worker_dispatches += 1;
        ParallelPlan {
            threads: chunks,
            deadline_ms: self.config.worker_deadline_ms,
            fault,
            strategy: if self.config.enable_strategies {
                entry.strategy
            } else {
                ExecutionStrategy::WriteLog
            },
            facts,
            ..entry.plan.clone()
        }
    }

    /// The plan of an unguarded parallel entry — a compile-time verdict
    /// or a promoted concat — or `None` when its schedule is
    /// quarantined. Such an entry inspects no arrays, so its schedule
    /// key is bounds-only, enough for the quarantine to pin the shape
    /// that failed; and a lie fault is meaningless without an inspector,
    /// while worker and merge faults are armed into the plan.
    fn unguarded(
        &mut self,
        entry: &LoopEntry,
        loop_stmt: StmtId,
        lo: i64,
        hi: i64,
    ) -> Option<ParallelPlan> {
        self.rekey((lo, hi), []);
        if self.cache.consume_quarantine(loop_stmt, &self.key) {
            self.telemetry.quarantined += 1;
            return None;
        }
        let fault = if lo <= hi { self.decide_fault() } else { None };
        let fault = self.arm_fault(fault.filter(|k| *k != FaultKind::LieInspector));
        let chunks = self.chunks_for(loop_stmt, lo, hi);
        Some(self.plan_for(entry, chunks, fault, Arc::default()))
    }

    /// Rebuilds [`HybridDispatcher::key`] in place for an entry over
    /// `bounds` whose guard reads `versions`, in array order — canonical
    /// as [`ScheduleKey::new`] would make it, since a guard's arrays are
    /// sorted and deduplicated.
    fn rekey(&mut self, bounds: (i64, i64), versions: impl IntoIterator<Item = (VarId, u64)>) {
        self.key.bounds = bounds;
        self.key.versions.clear();
        self.key.versions.extend(versions);
    }

    /// Draws the injected fault (if any) for the next parallel dispatch
    /// site. Zero-trip dispatches never call this: no chunk runs, so
    /// no fault could fire and the site numbering stays aligned with
    /// dispatches where injection is observable. A worker index is
    /// drawn over the configured threads, so a seed draws the same
    /// schedule however entries are chunked; the executor addresses it
    /// modulo the chunks that run.
    fn decide_fault(&mut self) -> Option<FaultKind> {
        let threads = self.config.threads.max(1);
        self.fault.as_mut()?.decide(threads)
    }

    /// Stamps a decided executor-level fault (conflict forge, worker
    /// panic/stall) into a plan that is definitely dispatching, and
    /// records it as fired. [`FaultKind::LieInspector`] is handled at
    /// decision time and never reaches here.
    fn arm_fault(&mut self, kind: Option<FaultKind>) -> Option<FaultKind> {
        let kind = kind?;
        if let Some(plan) = self.fault.as_mut() {
            plan.record_fired(kind);
        }
        Some(kind)
    }
}

/// The work a chunk must carry, in [`Committed::cost`] units, before
/// an entry is split further: below two of these an entry runs as one
/// chunk on the dispatching thread. Measured on `benchmark/`'s
/// `exec-reentry` (2-vCPU KVM guest): a 4 096-nonzero sweep entry costs
/// 8 192–8 960 units, 3–4 µs on the typed loop (0.4–0.45 ns a unit).
/// Split in two, a dispatch cost 3.0–4.0 µs on top of the typed loop;
/// as one chunk 1.4–1.9 µs — the second chunk's pool hand-off,
/// snapshot, sinks, register planes and outcome — and two threads ran
/// the sweeps at 0.27–0.73 of one thread's speed. (A lone chunk now
/// runs on the master itself, at 0.9–1.4 µs.) At 2^15 units
/// (≈13–15 µs of body) a chunk carries about seven times what adding it
/// costs; every `exec-large` entry (32 768–573 440 units) still splits.
/// A private constant, not a setting, and no clock: the chunk count is a
/// function of the program and its inputs.
const MIN_CHUNK_COST: u64 = 1 << 15;

/// The trip count of a unit-step loop over `lo..=hi` (0 when empty),
/// saturating at `u64::MAX`.
fn trip(lo: i64, hi: i64) -> u64 {
    u64::try_from((i128::from(hi) - i128::from(lo) + 1).max(0)).unwrap_or(u64::MAX)
}

/// Arrays a guard's inspectors read, for version keying.
fn guard_arrays(guard: &GuardPlan) -> Vec<VarId> {
    let mut out = Vec::new();
    for check in guard.all_checks() {
        match check {
            ResidualCheck::Injective { array } => out.push(*array),
            ResidualCheck::OffsetLength { ptr, len } => {
                out.push(*ptr);
                out.push(*len);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

impl LoopDispatcher for HybridDispatcher {
    fn dispatch(
        &mut self,
        store: &Store,
        loop_stmt: StmtId,
        lo: i64,
        hi: i64,
        step: i64,
    ) -> LoopDecision {
        let Some(entry) = self.loops.get(&loop_stmt).cloned() else {
            self.telemetry.sequential_unknown_loop += 1;
            return LoopDecision::Sequential;
        };
        // The chunked executor only handles unit-step loops.
        if step != 1 {
            self.telemetry.sequential_non_unit_step += 1;
            return LoopDecision::Sequential;
        }
        match &entry.tier {
            DispatchTier::Sequential => {
                // A sequential-tier loop whose verdict proved the
                // consecutive-append shape is *promoted* to parallel
                // dispatch under the privatize-and-concat strategy: the
                // pointer dependence that forced the sequential verdict
                // is exactly what the strategy removes. The executor
                // re-validates the shape per dispatch and the append
                // discipline dynamically; a failed dispatch falls back
                // and quarantines like any other schedule.
                if self.config.enable_strategies
                    && entry.strategy == ExecutionStrategy::PrivatizeAndConcat
                {
                    let Some(plan) = self.unguarded(&entry, loop_stmt, lo, hi) else {
                        return LoopDecision::Sequential;
                    };
                    self.telemetry.concat_parallel += 1;
                    return LoopDecision::Parallel(plan);
                }
                self.telemetry.sequential_proven += 1;
                // The compiled tier changes the engine, not the
                // decision: the entry is still a proven-sequential
                // dispatch (counted above), executed on bytecode. Only
                // leaf nests qualify — an inner `do` loop must keep
                // consulting this dispatcher.
                if self.config.enable_compiled && entry.compiled_plan && entry.leaf_do {
                    return LoopDecision::Compiled;
                }
                LoopDecision::Sequential
            }
            DispatchTier::CompileTimeParallel => {
                let Some(plan) = self.unguarded(&entry, loop_stmt, lo, hi) else {
                    return LoopDecision::Sequential;
                };
                self.telemetry.compile_time_parallel += 1;
                if entry.retired > 0 {
                    // This entry reached the unguarded tier on
                    // evolution facts: count the inspections a
                    // pre-evolution runtime would have run here.
                    self.telemetry.promoted_by_evolution += 1;
                    self.telemetry.inspections_retired += entry.retired;
                    if entry.interproc {
                        self.telemetry.promoted_interproc += 1;
                    }
                }
                LoopDecision::Parallel(plan)
            }
            DispatchTier::RuntimeGuarded(guard) => {
                let versions = entry.guard_arrays.iter();
                self.rekey((lo, hi), versions.map(|&a| (a, store.array_version(a))));
                if self.cache.consume_quarantine(loop_stmt, &self.key) {
                    self.telemetry.quarantined += 1;
                    return LoopDecision::Sequential;
                }
                // A loop can stay guarded with a *shorter* plan when
                // evolution discharged only some of its arrays; those
                // checks are still inspections this entry skips.
                self.telemetry.inspections_retired += entry.retired;
                let fault = if lo <= hi { self.decide_fault() } else { None };
                let lie = fault == Some(FaultKind::LieInspector);
                // A cached verdict comes with what its inspection
                // found: the facts belong to the schedule key, not to
                // the loop, so a hit on any live key of the loop
                // commits under the scan that cleared that key.
                let hit = if lie {
                    // The inspector "passes" a guard it never ran. The
                    // forged verdict is deliberately not cached: the
                    // lie corrupts one dispatch, not the cache. It ran
                    // no scan, so it carries no facts either.
                    if let Some(plan) = self.fault.as_mut() {
                        plan.record_fired(FaultKind::LieInspector);
                    }
                    Some((true, Arc::default()))
                } else {
                    match self.cache.probe_certified(loop_stmt, &self.key) {
                        (CacheProbe::Hit(v), facts) => {
                            self.telemetry.cache_hits += 1;
                            Some((v, facts))
                        }
                        (probe, _) => {
                            if probe == CacheProbe::Stale {
                                self.telemetry.cache_invalidations += 1;
                            }
                            None
                        }
                    }
                };
                // A miss inspects, and the scans that clear the guard
                // leave the key's facts.
                let (parallel_ok, facts) = hit.unwrap_or_else(|| {
                    let (inspected, run) = inspect_guard(store, guard, lo, hi);
                    self.telemetry.inspections_run += run;
                    let v = inspected.is_some();
                    // An empty `Arc` slice allocates nothing.
                    let facts = inspected
                        .filter(|f| !f.is_empty())
                        .map_or_else(Arc::default, Arc::from);
                    let cached = Arc::clone(&facts);
                    self.cache
                        .insert_certified(loop_stmt, self.key.clone(), v, cached);
                    self.telemetry.cache_evictions = self.cache.evictions();
                    (v, facts)
                });
                if parallel_ok {
                    // Executor-level faults go live only on a dispatch
                    // that actually happens; a fault decided for a
                    // guard that honestly failed is silently dropped.
                    let fault = self.arm_fault(if lie { None } else { fault });
                    self.telemetry.guarded_parallel += 1;
                    let chunks = self.chunks_for(loop_stmt, lo, hi);
                    LoopDecision::Parallel(self.plan_for(&entry, chunks, fault, facts))
                } else {
                    self.telemetry.guarded_sequential += 1;
                    LoopDecision::Sequential
                }
            }
        }
    }

    fn parallel_committed(&mut self, loop_stmt: StmtId, committed: &Committed) {
        match committed.strategy {
            ExecutionStrategy::WriteLog => self.telemetry.strategy_write_log += 1,
            ExecutionStrategy::InPlaceDisjoint => self.telemetry.strategy_in_place += 1,
            ExecutionStrategy::PrivatizeAndConcat => self.telemetry.strategy_concat += 1,
        }
        self.telemetry.worker_chunks_typed += committed.chunks;
        // What this entry cost sizes the loop's next one. A zero-trip
        // entry ran no chunk and says nothing about the body.
        if committed.chunks > 0 {
            let (lo, hi) = self.key.bounds;
            self.work.insert(loop_stmt, (committed.cost, trip(lo, hi)));
        }
    }

    fn compiled_committed(&mut self, _loop_stmt: StmtId) {
        self.telemetry.compiled_loops += 1;
    }

    fn compiled_fallback(&mut self, _loop_stmt: StmtId, reason: FallbackReason) {
        self.telemetry.record_compiled_fallback(reason);
    }

    fn parallel_failed(&mut self, loop_stmt: StmtId, reason: FallbackReason) {
        self.telemetry.record_fallback(reason);
        // Quarantine exactly the schedule that failed: pinned
        // sequential for `quarantine_retries` entries, then dropped so
        // the loop re-inspects from scratch. With a zero budget the
        // poisoning still drops any cached parallel verdict for the
        // key, so a failed schedule is never answered from cache again.
        let key = self.key.clone();
        self.cache
            .poison(loop_stmt, key, self.config.quarantine_retries);
        self.telemetry.quarantine_poisonings += 1;
        self.telemetry.cache_evictions = self.cache.evictions();
    }
}

/// Outcome of a hybrid execution.
#[derive(Clone, Debug)]
pub struct HybridOutcome {
    /// The interpreter outcome (printed output, final store, stats).
    pub outcome: ExecOutcome,
    /// What the runtime did to get there.
    pub telemetry: Telemetry,
}

/// Compiles-and-runs glue: executes a compiled program under the hybrid
/// dispatcher and returns the outcome together with the telemetry.
///
/// Parallel dispatch is transactional: a dispatch that fails at runtime
/// (conflict, panic, a nest workers cannot run, timeout) re-executes sequentially
/// on the untouched master store, is counted under a reason-coded
/// fallback counter in [`Telemetry`], and quarantines the failing
/// schedule — it never surfaces as an error.
///
/// # Errors
///
/// Propagates genuine interpreter errors (out-of-bounds access, fuel
/// exhaustion, …), whether they occur sequentially or inside a parallel
/// worker.
pub fn run_hybrid(
    report: &CompilationReport,
    config: HybridConfig,
) -> Result<HybridOutcome, ExecError> {
    run_hybrid_seeded(report, config, &[])
}

/// [`run_hybrid`] with preset arrays installed before execution — the
/// entry point for generated sparse workloads, whose index and value
/// arrays are injected rather than initialized by interpreted loops.
/// A preset is its array's storage for the whole run: the run allocates
/// only the arrays no preset installed. It is shared, not copied: the
/// run copies a preset's buffer only to store to it, and the caller's
/// arrays never change.
///
/// # Errors
///
/// Propagates genuine interpreter errors, exactly as [`run_hybrid`].
pub fn run_hybrid_seeded(
    report: &CompilationReport,
    config: HybridConfig,
    presets: &[(VarId, irr_exec::ArrayData)],
) -> Result<HybridOutcome, ExecError> {
    let mut dispatcher = HybridDispatcher::new(report, config);
    let mut interp = Interp::new(&report.program);
    for (var, data) in presets {
        interp.preset_array(*var, data.clone());
    }
    let outcome = interp.run_dispatched(&mut dispatcher)?;
    Ok(dispatcher.finish(outcome))
}

/// Runs a compiled program under the hybrid dispatcher with an injected
/// fault schedule (chaos testing). Returns the outcome together with
/// the consumed [`FaultPlan`], whose [`fired`](FaultPlan::fired) record
/// says exactly which faults went live at which dispatch sites — the
/// chaos suite checks it against the telemetry's fallback counters.
///
/// # Errors
///
/// Propagates genuine interpreter errors, exactly as [`run_hybrid`]:
/// injected faults are recoverable by construction and never error.
pub fn run_hybrid_with_faults(
    report: &CompilationReport,
    config: HybridConfig,
    fault: FaultPlan,
) -> Result<(HybridOutcome, FaultPlan), ExecError> {
    let mut dispatcher = HybridDispatcher::new(report, config);
    dispatcher.set_fault_plan(fault);
    let outcome = Interp::new(&report.program).run_dispatched(&mut dispatcher)?;
    let fault = dispatcher
        .take_fault_plan()
        .expect("fault plan attached above");
    Ok((dispatcher.finish(outcome), fault))
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_driver::{compile_source, DriverOptions};

    /// `p(i) = mod(i*3, n) + 1` is a permutation of `1..=n` whenever
    /// `gcd(3, n) = 1` — true at run time for n = 8, but not provable by
    /// the compile-time injectivity checkers (which only recognize
    /// identity and gather shapes).
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
 20      continue
         print z(1), z(8)
         end";

    #[test]
    fn guarded_loop_parallelizes_at_runtime() {
        let rep = compile_source(GUARDED_SRC, DriverOptions::with_iaa()).unwrap();
        let v = rep.verdict("T/do20").expect("verdict for do20");
        assert!(!v.parallel, "solver must not prove mod-permutation: {v:?}");
        assert!(
            matches!(v.tier, DispatchTier::RuntimeGuarded(_)),
            "expected guarded tier: {v:?}"
        );
        let seq = Interp::new(&rep.program).run().unwrap();
        let hybrid = run_hybrid(&rep, HybridConfig::default()).unwrap();
        assert_eq!(hybrid.outcome.output, seq.output);
        assert_eq!(hybrid.telemetry.guarded_parallel, 1);
        assert_eq!(hybrid.telemetry.inspections_run, 1);
        // The scan that cleared the guard certified `p`, so the scatter
        // (like the producer loop before it) committed in place.
        assert_eq!(v.strategy_facts.name(), "certified-scatter");
        assert_eq!(hybrid.telemetry.strategy_in_place, 2);
        assert_eq!(hybrid.telemetry.strategy_write_log, 0);
    }

    #[test]
    fn non_injective_index_falls_back_sequential() {
        // p(i) = mod(i, 4) + 1 collides for n = 8: inspection must fail
        // and the loop must still produce sequential semantics.
        let src = "program t
             integer i, n, p(8)
             real z(8), x(8)
             n = 8
             do i = 1, n
               p(i) = mod(i, 4) + 1
               x(i) = i * 1.0
             enddo
             do 20 i = 1, n
               z(p(i)) = x(i) * 2.0
 20          continue
             print z(1), z(4)
             end";
        let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
        let v = rep.verdict("T/do20").unwrap();
        assert!(matches!(v.tier, DispatchTier::RuntimeGuarded(_)), "{v:?}");
        let seq = Interp::new(&rep.program).run().unwrap();
        let hybrid = run_hybrid(&rep, HybridConfig::default()).unwrap();
        assert_eq!(hybrid.outcome.output, seq.output);
        assert_eq!(hybrid.telemetry.guarded_sequential, 1);
        assert_eq!(hybrid.telemetry.guarded_parallel, 0);
    }

    #[test]
    fn compile_time_parallel_skips_inspection() {
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
        let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
        let hybrid = run_hybrid(&rep, HybridConfig::default()).unwrap();
        assert!(hybrid.telemetry.compile_time_parallel >= 1);
        assert_eq!(hybrid.telemetry.inspections_run, 0);
        assert_eq!(hybrid.telemetry.guarded_dispatches(), 0);
    }

    /// The write-log executor aggregates worker costs and loop stats
    /// into the dispatching interpreter, so a hybrid run's statistics
    /// are identical to the sequential run's — parallel-dispatched
    /// loops no longer drop their workers' accounting.
    #[test]
    fn parallel_dispatch_aggregates_worker_stats() {
        let rep = compile_source(GUARDED_SRC, DriverOptions::with_iaa()).unwrap();
        let v = rep.verdict("T/do20").expect("verdict for do20");
        let seq = Interp::new(&rep.program).run().unwrap();
        let hybrid = run_hybrid(&rep, HybridConfig::default()).unwrap();
        assert_eq!(hybrid.telemetry.guarded_parallel, 1);
        let par_stats = &hybrid.outcome.stats.loops[&v.loop_stmt];
        let seq_stats = &seq.stats.loops[&v.loop_stmt];
        assert_eq!(par_stats.invocations, seq_stats.invocations);
        assert_eq!(par_stats.total_cost, seq_stats.total_cost);
        assert_eq!(hybrid.outcome.stats.total_cost, seq.stats.total_cost);
    }

    #[test]
    fn compile_time_loops_commit_in_place() {
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
        let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
        let seq = Interp::new(&rep.program).run().unwrap();
        let hybrid = run_hybrid(&rep, HybridConfig::default()).unwrap();
        assert_eq!(hybrid.outcome.output, seq.output);
        // Both loops are proven disjoint-affine: the whole run commits
        // without a single write-log merge.
        assert_eq!(
            hybrid.telemetry.strategy_in_place, 2,
            "{:?}",
            hybrid.telemetry
        );
        assert_eq!(hybrid.telemetry.strategy_write_log, 0);
        assert_eq!(hybrid.telemetry.fallbacks(), 0);
        // Disabling strategies reverts every dispatch to the write-log
        // with an identical result.
        let off = run_hybrid(
            &rep,
            HybridConfig {
                enable_strategies: false,
                ..HybridConfig::default()
            },
        )
        .unwrap();
        assert_eq!(off.outcome.output, seq.output);
        assert_eq!(off.telemetry.strategy_in_place, 0);
        assert_eq!(off.telemetry.strategy_write_log, 2);
    }

    #[test]
    fn sequential_gather_promotes_to_concat() {
        // A FIG1B-style gather: the pointer dependence proves the loop
        // sequential, but the consecutive-append facts promote it to a
        // privatize-and-concat parallel dispatch.
        let src = "program t
             integer i, q, x(64), ind(64)
             do i = 1, 64
               x(i) = mod(i, 3)
             enddo
             do i = 1, 64
               if (x(i) > 0) then
                 q = q + 1
                 ind(q) = i
               endif
             enddo
             print ind(1), q
             end";
        let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
        let seq = Interp::new(&rep.program).run().unwrap();
        let hybrid = run_hybrid(&rep, HybridConfig::default()).unwrap();
        assert_eq!(hybrid.outcome.output, seq.output);
        assert!(
            hybrid.telemetry.concat_parallel >= 1,
            "{:?}",
            hybrid.telemetry
        );
        assert!(hybrid.telemetry.strategy_concat >= 1);
        assert_eq!(hybrid.telemetry.fallbacks(), 0);
        let q = rep.program.symbols.lookup("q").unwrap();
        let ind = rep.program.symbols.lookup("ind").unwrap();
        assert_eq!(hybrid.outcome.store.scalar(q), seq.store.scalar(q));
        assert_eq!(
            hybrid.outcome.store.array_as_reals(ind),
            seq.store.array_as_reals(ind)
        );
        // With strategies off the loop stays sequential, as the tier
        // says.
        let off = run_hybrid(
            &rep,
            HybridConfig {
                enable_strategies: false,
                ..HybridConfig::default()
            },
        )
        .unwrap();
        assert_eq!(off.outcome.output, seq.output);
        assert_eq!(off.telemetry.concat_parallel, 0);
        assert_eq!(off.telemetry.strategy_concat, 0);
    }

    #[test]
    fn sequential_tier_leaf_loops_run_on_the_compiled_tier() {
        // A scalar-dependence loop: proven sequential, leaf nest,
        // lowerable — the canonical compiled-tier customer.
        let src = "program t
             integer i, n
             real s, x(100)
             n = 100
             s = 0
             do i = 1, n
               x(i) = s
               s = s * 2 + 1
             enddo
             print x(3)
             end";
        let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
        let v = &rep.verdicts[0];
        assert!(matches!(v.tier, DispatchTier::Sequential), "{v:?}");
        assert!(v.compiled.is_some(), "{v:?}");
        let seq = Interp::new(&rep.program).run().unwrap();
        let hybrid = run_hybrid(&rep, HybridConfig::default()).unwrap();
        assert_eq!(hybrid.outcome.output, seq.output);
        assert_eq!(hybrid.outcome.stats.total_cost, seq.stats.total_cost);
        let t = &hybrid.telemetry;
        assert_eq!(t.compiled_loops, 1, "{t:?}");
        assert_eq!(t.compiled_fallbacks(), 0, "{t:?}");
        // The decision is still a proven-sequential dispatch.
        assert_eq!(t.sequential_proven, 1, "{t:?}");
        // A/B switch: same semantics, zero compiled dispatches.
        let off = run_hybrid(
            &rep,
            HybridConfig {
                enable_compiled: false,
                ..HybridConfig::default()
            },
        )
        .unwrap();
        assert_eq!(off.outcome.output, seq.output);
        assert_eq!(off.outcome.stats.total_cost, seq.stats.total_cost);
        assert_eq!(off.telemetry.compiled_loops, 0);
        assert_eq!(off.telemetry.sequential_proven, 1);
    }

    #[test]
    fn sequential_nests_with_inner_do_loops_stay_on_the_tree_walk() {
        // The inner do must keep consulting the dispatcher, so the
        // outer sequential loop is not a compiled-tier leaf.
        let src = "program t
             integer i, j, n
             real s, x(10)
             n = 10
             s = 0
             do i = 1, n
               s = s + 1
               do j = 1, n
                 x(j) = x(j) + s
               enddo
               s = s * 2
             enddo
             print x(1), s
             end";
        let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
        let outer = &rep.verdicts[0];
        assert!(matches!(outer.tier, DispatchTier::Sequential), "{outer:?}");
        let seq = Interp::new(&rep.program).run().unwrap();
        let hybrid = run_hybrid(&rep, HybridConfig::default()).unwrap();
        assert_eq!(hybrid.outcome.output, seq.output);
        assert_eq!(hybrid.telemetry.compiled_loops, 0, "{:?}", hybrid.telemetry);
    }

    #[test]
    fn one_inspection_serves_every_cached_reentry() {
        let src = "program t
             integer i, r, n, p(8)
             real z(8), x(8)
             n = 8
             do i = 1, n
               p(i) = mod(i * 3, n) + 1
               x(i) = i * 1.0
             enddo
             do r = 1, 3
               do 20 i = 1, n
                 z(p(i)) = x(i) + r
 20            continue
             enddo
             print z(1)
             end";
        let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
        let cached = run_hybrid(&rep, HybridConfig::default()).unwrap();
        assert_eq!(
            cached.telemetry.inspections_run, 1,
            "{:?}",
            cached.telemetry
        );
        assert_eq!(cached.telemetry.cache_hits, 2);
        // The one certificate serves the two cache hits as well.
        assert_eq!(cached.telemetry.strategy_in_place, 4);
        assert_eq!(cached.telemetry.strategy_write_log, 0);
    }

    #[test]
    fn mutating_a_preset_index_array_forces_reinspection() {
        // Stale-schedule soundness: `p` arrives as a *preset* (no
        // in-program producer), passes injectivity on the first guarded
        // entry, then the program corrupts one element. The second
        // entry must see a stale cache key (the preset array's write
        // version moved), re-inspect, and fall back sequential — a
        // cache hit here would dispatch parallel on a duplicate target.
        let src = "program t
             integer i, r, n, p(8)
             real z(8), x(8)
             n = 8
             do i = 1, n
               x(i) = i * 1.0
             enddo
             do r = 1, 2
               do 20 i = 1, n
                 z(p(i)) = x(i) + r
 20            continue
               p(2) = p(1)
             enddo
             print z(1), z(8)
             end";
        let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
        let v = rep.verdict("T/do20").unwrap();
        assert!(matches!(v.tier, DispatchTier::RuntimeGuarded(_)), "{v:?}");
        let p_var = rep.program.symbols.lookup("p").unwrap();
        let perm: Vec<i64> = (1..=8).rev().collect();
        let presets = [(
            p_var,
            irr_exec::ArrayData::Int {
                data: perm.into(),
                dims: [8].into(),
            },
        )];
        let hybrid = run_hybrid_seeded(&rep, HybridConfig::default(), &presets).unwrap();
        let t = &hybrid.telemetry;
        assert_eq!(t.guarded_parallel, 1, "{t:?}");
        assert_eq!(t.guarded_sequential, 1, "{t:?}");
        assert_eq!(t.inspections_run, 2, "{t:?}");
        assert_eq!(t.cache_invalidations, 1, "{t:?}");
        assert_eq!(t.cache_hits, 0, "{t:?}");
        let mut seq = Interp::new(&rep.program);
        for (var, data) in &presets {
            seq.preset_array(*var, data.clone());
        }
        let seq = seq.run().unwrap();
        assert_eq!(hybrid.outcome.output, seq.output);
    }
}
