//! Counters describing what the hybrid runtime actually did: how often
//! inspectors ran, how often the versioned schedule cache saved a
//! re-inspection, which tier every dynamic loop entry dispatched
//! through, and — since the dispatch became transactional — why any
//! parallel attempt was abandoned for sequential re-execution. The
//! hybrid-runtime tests, the `hybrid_fallback` example, and the chaos
//! suite read these to quantify the §1
//! trade-off and to attribute every injected fault.

use irr_exec::FallbackReason;

/// Counters accumulated over one hybrid execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Telemetry {
    /// Inspector executions: one per residual check actually evaluated
    /// against the live store (cache hits do not inspect).
    pub inspections_run: u64,
    /// Guarded loop entries answered from the schedule cache without
    /// re-inspection.
    pub cache_hits: u64,
    /// Cached schedules discarded because an index array's version (or
    /// the loop's bounds) changed since the inspection.
    pub cache_invalidations: u64,
    /// Cached schedules evicted by the cache's capacity bound (global
    /// LRU) or the per-loop key limit.
    pub cache_evictions: u64,
    /// Loop entries dispatched parallel on compile-time evidence alone.
    pub compile_time_parallel: u64,
    /// Compile-time-parallel loop entries that owe their tier to the
    /// value-evolution analysis (the verdict retired at least one
    /// residual check a pre-evolution compiler would have inspected).
    pub promoted_by_evolution: u64,
    /// Runtime inspections *not* run because value evolution discharged
    /// the residual check at compile time: one per retired check per
    /// dynamic loop entry — directly comparable to `inspections_run`.
    pub inspections_retired: u64,
    /// The subset of `promoted_by_evolution` entries whose discharging
    /// fact crossed a `call` via the interprocedural summaries: the
    /// promotions only summary-based propagation can deliver.
    pub promoted_interproc: u64,
    /// Guarded loop entries whose inspection (or cached verdict) cleared
    /// parallel execution.
    pub guarded_parallel: u64,
    /// Guarded loop entries whose inspection (or cached verdict) forced
    /// the sequential fallback.
    pub guarded_sequential: u64,
    /// Loop entries dispatched sequential because the driver proved the
    /// loop sequential at compile time.
    pub sequential_proven: u64,
    /// Sequential-tier loop entries *promoted* to parallel dispatch by
    /// the privatize-and-concat strategy (the loop carries a pointer
    /// dependence, but its appends concatenate).
    pub concat_parallel: u64,
    /// Committed parallel dispatches whose results reached the master
    /// through the transactional write-log merge (including silent
    /// strategy downgrades).
    pub strategy_write_log: u64,
    /// Committed parallel dispatches that wrote the master buffers in
    /// place — no clone, no log, no merge — under write shapes the
    /// executor re-derived: affine or offset–length windows it
    /// enforced, or a scatter it held a live certificate for.
    pub strategy_in_place: u64,
    /// Committed parallel dispatches that concatenated per-worker
    /// append buffers positionally.
    pub strategy_concat: u64,
    /// Loop entries dispatched sequential because the loop is unknown
    /// to the driver's verdict table.
    pub sequential_unknown_loop: u64,
    /// Loop entries dispatched sequential because of a non-unit step,
    /// which the chunked executor does not support.
    pub sequential_non_unit_step: u64,
    /// Loop entries pinned sequential by schedule quarantine (a prior
    /// runtime failure of the same `(loop, key)` schedule).
    pub quarantined: u64,
    /// Schedules poisoned after a runtime failure (one per fallback
    /// that had a cacheable schedule key to blame).
    pub quarantine_poisonings: u64,
    /// Parallel dispatches abandoned for a write-write conflict found
    /// at merge time; the loop re-executed sequentially.
    pub fallback_conflict: u64,
    /// Parallel dispatches abandoned because a worker panicked.
    pub fallback_panic: u64,
    /// Parallel dispatches abandoned because the executor cannot run
    /// the loop's shape (non-unit step, not a `do` loop) or its workers
    /// cannot run the nest on the typed loop.
    pub fallback_unsupported: u64,
    /// Parallel dispatches abandoned because a worker overran the
    /// per-worker deadline (watchdog).
    pub fallback_timeout: u64,
    /// Parallel dispatches abandoned because an execution strategy's
    /// dynamic self-check failed (in-place write outside its proven
    /// window, broken append discipline, appends past the target).
    pub fallback_strategy: u64,
    /// Sequential-tier loop entries the typed loop ran instead of the
    /// tree-walk (a zero-trip entry runs neither). Always also counted under
    /// `sequential_proven`: the compiled tier changes the engine, not
    /// the dispatch decision.
    pub compiled_loops: u64,
    /// Parallel plans handed to the executor. Every worker runs the
    /// typed loop (the compiled tier inside the parallel path): the
    /// master re-lowers before dispatching, and a dispatch whose nest
    /// cannot run typed is refused and counted under
    /// `fallback_unsupported`.
    pub compiled_worker_dispatches: u64,
    /// Worker chunks of committed parallel dispatches, every one run on
    /// the typed loop: the configured threads for a loop's first entry
    /// (fewer only when it has fewer iterations), then as many as the
    /// loop's work fills (see [`HybridConfig::threads`]) — one for each
    /// entry of a small re-entered loop.
    ///
    /// [`HybridConfig::threads`]: crate::HybridConfig::threads
    pub worker_chunks_typed: u64,
    /// Worker threads the run's parallel dispatches added to the
    /// process's pool, all of them together: at most its largest chunk
    /// count minus one (the master runs chunks too), whatever the number
    /// of dispatches, and 0 when the pool already had that many — as it
    /// has for every run after the first of the same width; 0 when no
    /// dispatch had more than one chunk. The threads outlive the run.
    pub worker_threads_spawned: u64,
    /// Compiled-tier dispatches that fell back to the tree-walk because
    /// the executor's own lowering rejected the nest — the verdict's
    /// advisory plan was forged or stale: both sides call one
    /// `lower_do_loop` — or because an array the nest references holds
    /// another element type than declared (a preset may install
    /// either).
    pub compiled_fallback_unsupported: u64,
    /// Compiled-tier dispatches that fell back because instrumentation
    /// (access tracing or per-loop recording) was attached — the
    /// bytecode path carries no tracer hooks.
    pub compiled_fallback_traced: u64,
}

impl Telemetry {
    /// Total loop entries dispatched parallel.
    pub fn parallel_dispatches(&self) -> u64 {
        self.compile_time_parallel + self.guarded_parallel + self.concat_parallel
    }

    /// Loop entries dispatched sequential without any guard: proven
    /// sequential, unknown loop, or non-unit step.
    pub fn sequential_unguarded(&self) -> u64 {
        self.sequential_proven + self.sequential_unknown_loop + self.sequential_non_unit_step
    }

    /// Total guarded loop entries (inspected or cache-answered).
    pub fn guarded_dispatches(&self) -> u64 {
        self.guarded_parallel + self.guarded_sequential
    }

    /// Total parallel dispatches abandoned at runtime and re-executed
    /// sequentially, over all reason codes.
    pub fn fallbacks(&self) -> u64 {
        self.fallback_conflict
            + self.fallback_panic
            + self.fallback_unsupported
            + self.fallback_timeout
            + self.fallback_strategy
    }

    /// Records one abandoned parallel dispatch under its reason code.
    pub fn record_fallback(&mut self, reason: FallbackReason) {
        match reason {
            FallbackReason::Conflict => self.fallback_conflict += 1,
            FallbackReason::Panic => self.fallback_panic += 1,
            FallbackReason::Unsupported => self.fallback_unsupported += 1,
            FallbackReason::Timeout => self.fallback_timeout += 1,
            FallbackReason::Strategy => self.fallback_strategy += 1,
            // A traced fallback is a compiled-tier reason; route it to
            // that family even if it arrives through this entry point.
            FallbackReason::Traced => self.compiled_fallback_traced += 1,
        }
    }

    /// Records one compiled-tier dispatch that fell back to the
    /// tree-walk, under its reason code.
    pub fn record_compiled_fallback(&mut self, reason: FallbackReason) {
        match reason {
            FallbackReason::Traced => self.compiled_fallback_traced += 1,
            _ => self.compiled_fallback_unsupported += 1,
        }
    }

    /// Total compiled-tier dispatches that fell back to the tree-walk,
    /// over all reason codes.
    pub fn compiled_fallbacks(&self) -> u64 {
        self.compiled_fallback_unsupported + self.compiled_fallback_traced
    }

    /// The fallback counter for one reason code.
    pub fn fallback_count(&self, reason: FallbackReason) -> u64 {
        match reason {
            FallbackReason::Conflict => self.fallback_conflict,
            FallbackReason::Panic => self.fallback_panic,
            FallbackReason::Unsupported => self.fallback_unsupported,
            FallbackReason::Timeout => self.fallback_timeout,
            FallbackReason::Strategy => self.fallback_strategy,
            FallbackReason::Traced => self.compiled_fallback_traced,
        }
    }
}
