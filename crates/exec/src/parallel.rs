//! The chunked parallel executor: a loop the hybrid runtime dispatches
//! parallel runs as a transaction on the master store.
//!
//! Its iteration space is split into contiguous chunks, one per thread
//! its plan asks for. One chunk runs on the dispatching thread, with no
//! pool. More are the worker pool's (`pool.rs`) one batch, claimed in
//! chunk order by the pool's threads — one set per process, shared by
//! every run and never joined — and by the dispatching thread; a
//! dispatch that finds another run's batch in flight runs all its
//! chunks itself. Either way it waits for every chunk, whatever became
//! of it (a panic is caught at the chunk boundary), before it looks at
//! one outcome.
//!
//! # What a chunk runs
//!
//! **Every chunk runs the typed loop over the master's store, which it
//! only reads**: the loop's lowering (memoized per statement in the
//! run's [`ProgramScope`](crate::interp::ProgramScope)) over its whole
//! range in one call (`FState::run`), with the master's fuel and the
//! deadline and strategy checks between the iterations of every loop of
//! the nest. It writes only its sinks — one per array the body stores
//! to (`WriteSink`), built from the dispatch's mode: its in-place window
//! of the master's buffer, its append buffer, or its own copy, logged
//! or privatized — and its slot (`Chunk`): registers, cost, fuel,
//! counters and the finals of the scalars the commit reads. Each
//! strategy's rules live in those sinks and nowhere else. No chunk
//! writes the master's scalars, statistics or fuel, so a failed
//! dispatch has nothing to put back but its in-place targets' old
//! payloads.
//!
//! # One commit
//!
//! One two-phase commit walks the body's pin slots across the chunks,
//! whatever the strategy, in `O(total writes)`. It validates before the
//! first master mutation — append deltas against buffer lengths and the
//! concatenated extent, then each logged write's claim in a dense owner
//! table per array, so two chunks writing one location conflict whatever
//! values they wrote — and then applies: logs replayed, append buffers
//! concatenated in chunk order, window targets' versions bumped,
//! reductions combined under the plan's [`ReduceOp`] from the first
//! chunk's final (so one chunk leaves the sequential walk's bits). The
//! chunks' cost, fuel and counters reach the master after it.
//!
//! # One failure vocabulary
//!
//! The typed loop's checks, a chunk, the commit and the dispatch all
//! return one `Abort`: the program's own `ExecError`, which propagates,
//! or the [`FallbackReason`] the interpreter hands the dispatcher before
//! it runs the loop sequentially, with the variable it blames where
//! there is one. Before any chunk runs, with the master untouched, a
//! dispatch is `Unsupported` for a non-unit step, a trip count the
//! chunk arithmetic cannot hold, a nest that does not lower, an array of
//! another element type than declared (a preset may install either),
//! or a scalar the nest can assign that the commit cannot claim
//! (neither privatized, nor a reduction, nor the concat pointer). After
//! hand-off it is `Panic`, `Timeout`, `Strategy` (an access outside a
//! window, a broken append discipline, appends past the extent) or
//! `Conflict`. A violation in any chunk outranks every other failure;
//! otherwise the first in chunk order — iteration order — is reported,
//! so a chunk's error is the one the sequential run raises.
//!
//! # Execution strategies
//!
//! Logged columns are the safety net. When the compiler proved *where*
//! a loop writes, the dispatch skips the conflict machinery the proof
//! made redundant ([`ExecutionStrategy`]); the executor re-derives the
//! proof itself per loop ([`irr_driver::derive_in_place_facts`],
//! [`irr_driver::derive_concat_shape`]) and downgrades to the write-log
//! when it cannot, so a forged verdict never reaches the raw write path.
//!
//! - [`ExecutionStrategy::InPlaceDisjoint`] — every access to a target
//!   has one [`WriteShape`], from which each chunk's window follows:
//!   `[clo + c, chi + c]` for an affine `a(i + c)`, `[ptr(clo),
//!   ptr(chi + 1))` off the live `ptr` for an offset–length `a(ptr(i) +
//!   e)` (boundaries that do not rise downgrade). The typed loop's pin
//!   *is* the window, so its one bounds compare per access confines
//!   loads and stores alike, and a miss inside the array is a `Strategy`
//!   fallback at that access. A scatter `b(p(i + c))` has no window: it
//!   writes in place only under [`IndexFacts`] from this crate's index
//!   scan that say `p` is injective on the section, of the live store
//!   and `p`'s current write-version. A target the nest reads keeps its
//!   payload as the dispatch found it — the undo image, a reference
//!   count — while the chunks write the copy `Store::payload_raw`
//!   makes, and gets it back on every exit but the commit; in a nest
//!   that reads any target the write-only ones do too (a chunk beside a
//!   violating one may have branched on state the sequential run would
//!   have changed), unless the fallback rewrites them anyway (one cell
//!   per iteration, written unconditionally).
//! - [`ExecutionStrategy::PrivatizeAndConcat`] — consecutively written
//!   arrays (`p = p + 1; a(p) = ...`) buffer per chunk and concatenate
//!   in chunk order at commit; the append discipline (pointer delta ==
//!   buffer length per chunk) is re-validated there.

use crate::bytecode::{CompiledBody, Deadline, FState, Typed};
use crate::dispatch::{Abort, FallbackReason};
use crate::fault::FaultKind;
use crate::interp::{
    ArrayData, InPlaceWindow, Interp, RawSlice, Store, TypedBuf, Value, WriteSink,
};
use crate::pool::WorkerPool;
use crate::runtime_test::IndexFacts;
use irr_driver::{InPlaceTarget, LoopVerdict, ReductionOp, WriteShape};
use irr_frontend::{Program, StmtId, StmtKind, VarId};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a parallel dispatch writes results back to the master store.
///
/// The plan's strategy is a *request*; the executor re-derives
/// the facts behind it and downgrades to [`WriteLog`] when the proof
/// does not hold for this loop, so the value returned by a committed
/// dispatch is the strategy that actually ran.
///
/// [`WriteLog`]: ExecutionStrategy::WriteLog
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ExecutionStrategy {
    /// Each chunk writes its own copy of every array it stores to and
    /// logs those stores, and a validating commit replays the logs —
    /// the transactional safety net, always correct, used for
    /// runtime-guarded and unproven loops.
    #[default]
    WriteLog,
    /// Chunks touch disjoint parts of every written array — enforced
    /// windows, or sets under injective index facts — so accesses
    /// land directly in the master store's buffers: no clone, no log,
    /// nothing to replay.
    InPlaceDisjoint,
    /// Consecutively-written arrays buffer per worker and concatenate
    /// positionally; scalar reductions combine per chunk.
    PrivatizeAndConcat,
}

impl ExecutionStrategy {
    /// Short stable name, used in telemetry dumps and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            ExecutionStrategy::WriteLog => "write-log",
            ExecutionStrategy::InPlaceDisjoint => "in-place-disjoint",
            ExecutionStrategy::PrivatizeAndConcat => "privatize-concat",
        }
    }
}

/// How a chunk-merged scalar reduction combines.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReduceOp {
    /// `s = s + e`: merged by summing per-thread deltas.
    Sum,
    /// `s = min(s, e)`: merged by taking the minimum of thread results.
    Min,
    /// `s = max(s, e)`.
    Max,
}

/// What a committed parallel dispatch reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Committed {
    /// The strategy that actually ran: the plan's when the executor's
    /// own re-derivation confirmed it, [`ExecutionStrategy::WriteLog`]
    /// after a silent downgrade.
    pub strategy: ExecutionStrategy,
    /// The worker chunks that ran, every one on the typed loop (zero
    /// for a zero-trip dispatch).
    pub chunks: u64,
    /// The body cost the chunks charged the master together: the
    /// statement and loop-bookkeeping units of the typed loop
    /// ([`crate::ExecStats::total_cost`]), the same whatever the chunk count
    /// and on every host — a deterministic measure of the entry's work,
    /// not wall time (zero for a zero-trip dispatch).
    pub cost: u64,
}

/// How a designated loop is run in parallel.
#[derive(Clone, Debug)]
pub struct ParallelPlan {
    /// Number of chunks the iteration space is split into, and so the
    /// most threads (the dispatching one included) that can work on the
    /// loop at once. Defaults to the host's available parallelism as the
    /// process had it when it first asked.
    pub threads: usize,
    /// Variables whose final values are per-thread scratch (privatized
    /// arrays and scalars) — excluded from the commit. Shared, not
    /// copied, like both lists below: a plan built per entry from a
    /// loop's plan copies no list.
    pub privatized: Arc<[VarId]>,
    /// Scalar reductions and their combining operators.
    pub reductions: Arc<[(VarId, ReduceOp)]>,
    /// Per-chunk wall-clock deadline in milliseconds, checked between
    /// the iterations (and stream strips) of every loop of the nest, not
    /// only the root's: a worker still running past it aborts its chunk
    /// and the dispatch falls back for [`FallbackReason::Timeout`] (so a
    /// runaway worker becomes a sequential fallback instead of a wedged
    /// run). `None` disables the watchdog — the hot path then never
    /// reads a clock.
    pub deadline_ms: Option<u64>,
    /// An injected fault for this dispatch (chaos testing); `None` in
    /// ordinary runs, checked once per dispatch.
    pub fault: Option<FaultKind>,
    /// How committed results should reach the master store. This is a
    /// request: the executor re-derives the facts behind a non-default
    /// strategy on every dispatch and silently downgrades to the
    /// write-log when the proof does not hold for this loop.
    pub strategy: ExecutionStrategy,
    /// What the scans that cleared this entry's guard found. An
    /// in-place dispatch writes a scatter target through the master
    /// buffer only under facts that are injective and still cover the
    /// scattered section in the live store (see [`IndexFacts::covers`]);
    /// with none that do, it downgrades to the write-log. Shared, not
    /// copied: a schedule cache hands a hit's facts over by reference
    /// count.
    pub facts: Arc<[IndexFacts]>,
}

impl Default for ParallelPlan {
    /// A plan on the host's available parallelism: what the process had
    /// when it first asked, read from the operating system once.
    fn default() -> Self {
        ParallelPlan::with_threads(host_threads())
    }
}

/// The host's available parallelism (1 when it cannot be read), read
/// once per process: every read goes to the operating system (on Linux,
/// the cgroup files), and default plans and configurations are built on
/// hot paths.
fn host_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

impl ParallelPlan {
    /// A plan with the given thread count and nothing privatized.
    /// Reads nothing from the host.
    pub fn with_threads(threads: usize) -> ParallelPlan {
        ParallelPlan {
            threads,
            // An empty `Arc` slice allocates nothing.
            privatized: Arc::default(),
            reductions: Arc::default(),
            deadline_ms: None,
            fault: None,
            strategy: ExecutionStrategy::WriteLog,
            facts: Arc::default(),
        }
    }

    /// What a verdict says about running its loop in `threads` chunks:
    /// the variables it privatizes and the reductions it recognizes,
    /// each with its merge operator. A product has none — partial
    /// products do not combine by deltas, and the driver never tiers
    /// such a loop parallel — so it is left out. Everything else is as
    /// [`ParallelPlan::with_threads`] has it.
    pub fn for_verdict(verdict: &LoopVerdict, threads: usize) -> ParallelPlan {
        let reductions = || {
            verdict.reductions.iter().filter_map(|(var, op)| {
                let op = match op {
                    ReductionOp::Sum => ReduceOp::Sum,
                    ReductionOp::Min => ReduceOp::Min,
                    ReductionOp::Max => ReduceOp::Max,
                    ReductionOp::Product => return None,
                };
                Some((*var, op))
            })
        };
        ParallelPlan {
            privatized: shared(|| verdict.privatized_vars()),
            reductions: shared(reductions),
            ..ParallelPlan::with_threads(threads)
        }
    }
}

/// The items `items()` yields, in one shared slice: one allocation,
/// none for no items. Collecting the iterator itself would take two
/// (a `Vec`, then the slice), and one for no items; the runtime builds a
/// plan per parallel loop, and `tests/allocations.rs` counts the build.
fn shared<T, I: Iterator<Item = T>>(items: impl Fn() -> I) -> Arc<[T]> {
    match items().count() {
        0 => Arc::default(),
        n => {
            let mut items = items();
            (0..n).map(|_| items.next().expect("counted")).collect()
        }
    }
}

/// One chunk's slot, kept by the run between dispatches: the state the
/// chunk runs in — its registers, cost and counters, which the commit
/// reads instead of a store ([`FState`]) — its sinks, the final values
/// of the scalars the commit reads, and how the chunk ended. The pool
/// hands chunk `k` slot `k`.
#[derive(Default)]
pub(crate) struct Chunk {
    st: FState,
    /// One per pin slot of the body: the sink of an array it stores
    /// to, `None` for one it only reads ([`Mode::sinks`]).
    sinks: Vec<Option<WriteSink>>,
    /// The final value of each of the plan's reductions, in its order,
    /// then, under concat, of the append pointer.
    finals: Vec<Value>,
    /// Why the chunk failed; `None` when it ran its range.
    failed: Option<Abort>,
}

/// One in-place target of a dispatch: the master buffer, and the
/// payload it replaced, to put back if the dispatch does not commit.
struct InPlaceSpec {
    var: VarId,
    /// Element 0 of the master's buffer.
    slice: RawSlice,
    /// The undo image: the target's payload as the dispatch found it,
    /// which no chunk writes; `None` for a target the sequential
    /// fallback is sure to rewrite ([`prepare_in_place`]).
    image: Option<ArrayData>,
}

/// The in-place targets of a dispatch and what each chunk may touch of
/// them. The run keeps it between dispatches ([`DispatchBuffers`]) and
/// [`prepare_in_place`] refills it, so a re-entered loop reuses its
/// vectors; the targets, their images with them, go at the end of the
/// dispatch ([`run`]).
#[derive(Default)]
pub(crate) struct InPlace {
    specs: Vec<InPlaceSpec>,
    /// How many chunks the dispatch has.
    chunks: usize,
    /// Per target, in target order, its chunks' windows `(first flat
    /// index, length)` in chunk order: target `k`'s are
    /// `windows[k * chunks..][..chunks]`. Pairwise disjoint per target —
    /// except for a scatter target, where every chunk gets the whole
    /// array and injective facts keep the written sets apart.
    windows: Vec<(usize, usize)>,
}

/// What a run's typed entries and parallel dispatches keep between
/// entries, for the allocations: the vectors a re-entered loop would
/// otherwise build again every time, and the chunks' slots.
#[derive(Default)]
pub(crate) struct DispatchBuffers {
    in_place: InPlace,
    /// Chunk `k`'s slot is `slots[k]`. Slot 0's state is also every
    /// sequential typed entry's: the master runs one typed loop at a
    /// time, and a dispatch runs its chunk 0 on the master's thread.
    slots: Vec<Chunk>,
}

impl DispatchBuffers {
    /// The planes every typed loop the master runs itself runs in.
    pub(crate) fn planes(&mut self) -> &mut FState {
        &mut first(&mut self.slots, 1)[0].st
    }
}

/// The first `n` of `slots`, grown to hold them.
fn first(slots: &mut Vec<Chunk>, n: usize) -> &mut [Chunk] {
    if slots.len() < n {
        slots.resize_with(n, Chunk::default);
    }
    &mut slots[..n]
}

/// The write-back mode a dispatch actually runs with, after the
/// executor re-derived (or failed to re-derive) the plan's strategy.
enum Mode<'k> {
    WriteLog,
    InPlace(&'k InPlace),
    Concat {
        ptr: VarId,
        targets: Arc<[VarId]>,
        p0: i64,
    },
}

impl Mode<'_> {
    fn strategy(&self) -> ExecutionStrategy {
        match self {
            Mode::WriteLog => ExecutionStrategy::WriteLog,
            Mode::InPlace(_) => ExecutionStrategy::InPlaceDisjoint,
            Mode::Concat { .. } => ExecutionStrategy::PrivatizeAndConcat,
        }
    }

    /// The append pointer and its value at hand-off (concat only).
    fn pointer(&self) -> Option<(VarId, i64)> {
        match self {
            Mode::Concat { ptr, p0, .. } => Some((*ptr, *p0)),
            _ => None,
        }
    }

    /// Fills `out` with the sinks chunk `widx` stores through, one per
    /// pin slot of `body` ([`Chunk::sinks`]): its window of an in-place
    /// target, a fresh append buffer for a concat target, an own copy for
    /// privatized scratch (the commit has no use for it), and a logged
    /// own copy for anything else — except in place, where the
    /// derivation admits no other stored array. Each strategy's rules
    /// live in these sinks, and [`commit`] walks them.
    fn sinks(
        &self,
        program: &Program,
        plan: &ParallelPlan,
        body: &CompiledBody,
        widx: usize,
        out: &mut Vec<Option<WriteSink>>,
    ) {
        let sink = |a: VarId| {
            let ty = program.symbols.var(a).ty;
            let window = |ip: &InPlace| {
                let k = ip.specs.iter().position(|s| s.var == a)?;
                let (lo, len) = ip.windows[k * ip.chunks + widx];
                let slice = ip.specs[k].slice;
                Some(WriteSink::Window(InPlaceWindow { slice, lo, len }))
            };
            match self {
                Mode::InPlace(ip) => {
                    window(ip).unwrap_or_else(|| WriteSink::Private(TypedBuf::new(ty)))
                }
                Mode::Concat { targets, p0, .. } if targets.contains(&a) => WriteSink::Append {
                    base: *p0 as usize,
                    buf: TypedBuf::new(ty),
                },
                _ if plan.privatized.contains(&a) => WriteSink::Private(TypedBuf::new(ty)),
                _ => WriteSink::Logged {
                    idx: Vec::new(),
                    vals: TypedBuf::new(ty),
                    copy: TypedBuf::new(ty),
                },
            }
        };
        out.clear();
        let slots = body.arrays().iter().zip(body.stored());
        out.extend(slots.map(|(&a, &stored)| stored.then(|| sink(a))));
    }

    /// Puts back the payloads the in-place targets with an undo image
    /// had at hand-off, one handle each: the copy the chunks wrote is
    /// dropped, and the versions never moved. Every exit of a dispatch
    /// but the commit goes through here, so the sequential fallback
    /// starts from the state the dispatch started from — up to the
    /// targets that have no image because the fallback rewrites every
    /// location the chunks wrote.
    fn roll_back(&self, store: &mut Store) {
        let Mode::InPlace(ip) = self else {
            return;
        };
        for s in &ip.specs {
            if let Some(image) = &s.image {
                *store.array_mut(s.var) = image.clone();
            }
        }
    }
}

/// How a dispatch splits its iteration space `lo..lo + n`: `count`
/// contiguous chunks in iteration order, the first `n % count` of them
/// one iteration longer. Computed, not stored, so splitting allocates
/// nothing.
#[derive(Clone, Copy)]
struct Chunks {
    lo: i64,
    n: usize,
    count: usize,
}

impl Chunks {
    /// `threads` chunks of `n ≥ 1` iterations from `lo` — one at
    /// least, none empty, at most [`MAX_WORKERS`]. The caller checked
    /// that `lo + n` is representable.
    fn new(lo: i64, n: usize, threads: usize) -> Chunks {
        let count = threads.clamp(1, n).min(MAX_WORKERS);
        Chunks { lo, n, count }
    }

    /// The bounds `(clo, chi)` of chunk `t`.
    fn bounds(self, t: usize) -> (i64, i64) {
        let (base, extra) = (self.n / self.count, self.n % self.count);
        let start = self.lo + (t * base + t.min(extra)) as i64;
        (start, start + (base + usize::from(t < extra)) as i64 - 1)
    }

    fn iter(self) -> impl Iterator<Item = (i64, i64)> {
        (0..self.count).map(move |t| self.bounds(t))
    }

    /// The last iteration of the last chunk.
    fn hi(self) -> i64 {
        self.lo + self.n as i64 - 1
    }
}

/// Appends to `out` the windows `target` gives the chunks of this
/// dispatch, one per chunk in chunk order, from its shape and the live
/// store; `None` when the shape does not yield windows inside the array
/// (the write-log then reproduces whatever the program does out there)
/// or lacks its facts — `out` may then hold some of them.
fn chunk_windows(
    store: &Store,
    target: &InPlaceTarget,
    facts: &[IndexFacts],
    chunks: Chunks,
    out: &mut Vec<(usize, usize)>,
) -> Option<()> {
    let len = store.array(target.array).len();
    let (lo, hi) = (chunks.lo, chunks.hi());
    match target.shape {
        WriteShape::Affine { off } => {
            // Checked: an i64::MAX-adjacent offset must downgrade, not
            // overflow the window arithmetic.
            let (wlo, whi) = (lo.checked_add(off)?, hi.checked_add(off)?);
            if wlo < 1 || whi as u64 > len as u64 {
                return None;
            }
            let window =
                |(clo, chi): (i64, i64)| ((clo + off - 1) as usize, (chi - clo + 1) as usize);
            out.extend(chunks.iter().map(window));
        }
        WriteShape::Segment { ptr } => {
            // Chunk `t` owns `[ptr(clo), ptr(clo'))`, `clo'` the next
            // chunk's first row (or `hi + 1`), off the live `ptr` (the
            // nest does not write it). The boundaries must rise for the
            // windows to tile, and the whole tiling lie inside the
            // target — or be empty: rows that write nothing may sit
            // anywhere.
            let bound =
                |i: i64| store.element_as_int(ptr, usize::try_from(i.checked_sub(1)?).ok()?);
            let (first, last) = (bound(lo)?, bound(hi.checked_add(1)?)?);
            let empty = first == last;
            (empty || (first >= 1 && last as u64 <= len as u64 + 1)).then_some(())?;
            let mut from = first;
            for t in 1..=chunks.count {
                let to = match t < chunks.count {
                    true => bound(chunks.bounds(t).0)?,
                    false => last,
                };
                (from <= to).then_some(())?;
                out.push(match empty {
                    true => (0, 0),
                    false => ((from - 1) as usize, (to - from) as usize),
                });
                from = to;
            }
        }
        WriteShape::Scatter { index, off } => {
            let (slo, shi) = (lo.checked_add(off)?, hi.checked_add(off)?);
            let certified = facts
                .iter()
                .any(|f| f.injective() && f.covers(store, index, slo, shi));
            certified.then_some(())?;
            out.extend(std::iter::repeat_n((0, len), chunks.count));
        }
    }
    Some(())
}

/// The executor's own strategy derivations for one loop statement,
/// kept in the run's memo of the loop beside its lowered body. Both
/// are pure functions of the AST and of the plan's privatized and
/// reduction lists, so a re-entered loop derives them once per pair of
/// lists — still by the executor, still never read off the verdict.
/// Windows, index facts and undo images depend on the live store and
/// are derived at every dispatch, which shares the derived lists with
/// the memo instead of copying them.
#[derive(Default)]
pub(crate) struct DerivedShapes {
    privatized: Arc<[VarId]>,
    reductions: Arc<[(VarId, ReduceOp)]>,
    in_place: Option<Option<Arc<[InPlaceTarget]>>>,
    concat: Option<Option<(VarId, Arc<[VarId]>)>>,
}

/// What the executor's own derivation made of a plan's strategy, before
/// the live store is consulted.
enum Derived {
    WriteLog,
    InPlace(Arc<[InPlaceTarget]>),
    Concat(VarId, Arc<[VarId]>),
}

impl DerivedShapes {
    /// This memo, emptied if `plan` names other lists than the ones it
    /// was derived under. A re-entered loop's plans share its lists, so
    /// the check is two pointer compares.
    fn keyed(&mut self, plan: &ParallelPlan) -> &mut DerivedShapes {
        let shared = Arc::ptr_eq(&self.privatized, &plan.privatized)
            && Arc::ptr_eq(&self.reductions, &plan.reductions);
        if !shared {
            if self.privatized != plan.privatized || self.reductions != plan.reductions {
                *self = DerivedShapes::default();
            }
            (self.privatized, self.reductions) = (plan.privatized.clone(), plan.reductions.clone());
        }
        self
    }

    /// The shapes behind `strategy` for `loop_stmt` under these lists,
    /// derived on first use; [`Derived::WriteLog`] when they do not
    /// derive.
    fn derive(
        &mut self,
        program: &Program,
        loop_stmt: StmtId,
        strategy: ExecutionStrategy,
    ) -> Derived {
        let privatized = &self.privatized;
        let reductions = || self.reductions.iter().map(|(v, _)| *v).collect::<Vec<_>>();
        let derived = match strategy {
            ExecutionStrategy::WriteLog => None,
            ExecutionStrategy::InPlaceDisjoint => (self.in_place)
                .get_or_insert_with(|| {
                    irr_driver::derive_in_place_facts(program, loop_stmt, privatized, &reductions())
                        .map(Arc::from)
                })
                .clone()
                .map(Derived::InPlace),
            ExecutionStrategy::PrivatizeAndConcat => (self.concat)
                .get_or_insert_with(|| {
                    irr_driver::derive_concat_shape(program, loop_stmt, privatized, &reductions())
                        .map(|(ptr, targets)| (ptr, Arc::from(targets)))
                })
                .clone()
                .map(|(ptr, targets)| Derived::Concat(ptr, targets)),
        };
        derived.unwrap_or(Derived::WriteLog)
    }
}

/// Prepares the master buffers of the in-place `targets` for this
/// dispatch into `ip`: their windows, and undo images where a failed
/// dispatch would leave the fallback a target it does not rewrite.
/// Returns `None` — downgrade to the write-log, the store untouched —
/// when a target is not one-dimensional or a shape yields no windows
/// ([`chunk_windows`]).
fn prepare_in_place(
    store: &mut Store,
    targets: &[InPlaceTarget],
    facts: &[IndexFacts],
    chunks: Chunks,
    ip: &mut InPlace,
) -> Option<()> {
    ip.specs.clear();
    ip.windows.clear();
    ip.chunks = chunks.count;
    for t in targets {
        if store.array(t.array).dims().len() != 1 {
            return None;
        }
        chunk_windows(store, t, facts, chunks, &mut ip.windows)?;
    }
    let any_read = targets.iter().any(|t| t.read);
    for t in targets {
        // What a failed dispatch wrote to a target it never read, the
        // sequential fallback writes again — when the chunks did what
        // the sequential run does, which only a nest that reads no
        // target guarantees (beside a violating chunk, one that reads
        // may have branched on values a sequential run would have
        // changed), or when the target has one cell per iteration and
        // a top-level statement that always writes it.
        let one_cell = !matches!(t.shape, WriteShape::Segment { .. });
        let rewritten = !t.read && (!any_read || (t.always_written && one_cell));
        // The image is the payload itself: holding a handle on it makes
        // `payload_raw` copy it, and the chunks' windows write the copy.
        let image = (!rewritten).then(|| store.array(t.array).clone());
        let slice = store.payload_raw(t.array);
        ip.specs.push(InPlaceSpec {
            var: t.array,
            slice,
            image,
        });
    }
    Some(())
}

/// What a dispatch's chunks meet at their start: an injected worker
/// fault addressed to them, and the deadline they run under.
#[derive(Clone, Copy)]
struct Watch {
    panic: Option<usize>,
    stall: Option<(usize, u64)>,
    deadline: Option<Duration>,
}

impl Watch {
    fn new(plan: &ParallelPlan, chunks: Chunks) -> Watch {
        // Injected worker faults address a chunk modulo the chunk count,
        // so a randomly drawn worker index always lands on a chunk that
        // runs — on whichever thread claims it.
        let (panic, stall) = match plan.fault {
            Some(FaultKind::PanicWorker { worker }) => (Some(worker % chunks.count), None),
            Some(FaultKind::StallWorker { worker, stall_ms }) => {
                (None, Some((worker % chunks.count, stall_ms)))
            }
            _ => (None, None),
        };
        let deadline = plan.deadline_ms.map(Duration::from_millis);
        Watch {
            panic,
            stall,
            deadline,
        }
    }

    /// Starts chunk `widx`: panics or stalls it when an injected fault
    /// addresses it, and returns its deadline, armed. The clock starts
    /// only when a deadline is set (the hot path never reads wall time),
    /// and before any stall — so a stalled chunk trips the deadline on
    /// its first iteration check.
    fn start(self, widx: usize) -> Deadline {
        if self.panic == Some(widx) {
            // Unwinds to the chunk's `catch_unwind` without calling the
            // panic hook: an injected fault prints nothing.
            resume_unwind(Box::new("injected fault: worker panic"));
        }
        let armed = self.deadline.map(|limit| (Instant::now(), limit));
        if let Some((_, ms)) = self.stall.filter(|&(w, _)| w == widx) {
            std::thread::sleep(Duration::from_millis(ms));
        }
        armed
    }
}

/// Executes one `do` loop in parallel chunks per `plan`, with the bounds
/// already evaluated. This is the dispatch hook the hybrid runtime uses
/// after a guard (or a compile-time verdict) clears the loop: the
/// iteration space `lo..=hi` is split into contiguous chunks, each chunk
/// runs the typed loop over the master's store, on the interpreter's
/// pooled threads or the calling thread, and what the chunks' sinks
/// collected is committed by one two-phase commit, whatever the
/// strategy, in `O(total writes)` ([`run_chunks`]).
///
/// **The dispatch is a transaction.** The master interpreter — store,
/// statistics, fuel — is mutated only after every chunk completed and
/// the commit validated what the chunks wrote; an in-place dispatch,
/// whose chunks write the master's buffers as they go, instead puts
/// back the old payloads it kept at hand-off, its undo images. On any
/// [`Abort`] the
/// master is as it was at entry — up to in-place targets that needed no
/// image, possibly dirty, which a sequential re-execution rewrites
/// location by location — so the interpreter's `Do` arm can run the
/// loop sequentially.
///
/// The chunks' statistics and fuel consumption are folded into the
/// master interpreter; the induction variable is left at `hi + 1` (or
/// `lo` for a zero-trip loop), matching sequential semantics. A
/// `plan.deadline_ms` arms a cooperative per-chunk watchdog (checked
/// between the iterations of every loop of the nest, so a long inner
/// `do` or `while` stops too); `plan.fault` injects one failure for
/// chaos testing.
///
/// Returns what was [`Committed`]: the strategy that actually ran (a
/// zero-trip dispatch commits trivially under the planned one) and how
/// many chunks ran; otherwise why not, as the module docs list it.
pub(crate) fn exec_do_parallel(
    interp: &mut Interp<'_>,
    loop_stmt: StmtId,
    plan: &ParallelPlan,
    lo: i64,
    hi: i64,
    step: i64,
) -> Result<Committed, Abort> {
    let program = interp.program();
    let StmtKind::Do { var, .. } = &program.stmt(loop_stmt).kind else {
        unreachable!("only the interpreter's `Do` arm dispatches");
    };
    let var = *var;
    let unsupported = || Err(Abort::Fallback(FallbackReason::Unsupported, None));
    if step != 1 {
        return unsupported();
    }
    let ty = program.symbols.var(var).ty;
    if lo > hi {
        // Zero-trip: no workers, nothing can fail. Count the entry and
        // leave the induction variable at `lo` (sequential semantics).
        interp.stats.loops.entry(loop_stmt).or_default().invocations += 1;
        interp.store.set_scalar(var, ty, Value::Int(lo));
        return Ok(Committed {
            strategy: plan.strategy,
            chunks: 0,
            cost: 0,
        });
    }
    // The chunk arithmetic below (trip count, chunk bounds, the
    // workers' `i += 1`, the final `hi + 1`) needs `hi + 1` and the
    // trip count representable; an `i64`-edge loop that is not takes
    // the sequential fallback like any other unsupported shape.
    let trip = hi.checked_add(1).and_then(|end| end.checked_sub(lo));
    let Some(n) = trip.and_then(|t| usize::try_from(t).ok()) else {
        return unsupported();
    };
    // The loop's one memo lookup: its lowering — every chunk runs the
    // typed loop, or the dispatch does not happen; a pure function of
    // the program, so every chunk shares it — and the executor's own
    // derivation of the shapes behind the plan's strategy. A forged
    // verdict upstream can request a strategy but can never make an
    // unproven loop take the raw-write path; it just downgrades to the
    // (always safe) write-log.
    let memo = interp.memo(loop_stmt);
    let Some(body) = memo.body.clone() else {
        return unsupported();
    };
    let derived = memo
        .shapes
        .keyed(plan)
        .derive(program, loop_stmt, plan.strategy);
    if !interp.fast_ready(&body) {
        return unsupported();
    }
    let chunks = Chunks::new(lo, n, plan.threads);
    let mut buffers = std::mem::take(&mut interp.scope.buffers);
    let ran = run(interp, plan, &body, chunks, derived, &mut buffers);
    interp.scope.buffers = buffers;
    let (strategy, cost) = ran?;
    // The transaction committed: count the entry and the body cost the
    // master paid for it.
    let entry = interp.stats.loops.entry(loop_stmt).or_default();
    entry.invocations += 1;
    entry.total_cost += cost;
    // Sequential semantics: the induction variable ends one past `hi`.
    interp.store.set_scalar(var, ty, Value::Int(hi + 1));
    Ok(Committed {
        strategy,
        chunks: chunks.count as u64,
        cost,
    })
}

/// Checks that the commit can claim every scalar the nest assigns,
/// resolves the dispatch's mode against the live store, runs the chunks
/// and commits them ([`run_chunks`]). Every exit drops the in-place
/// targets' undo images, so no payload outlives its dispatch. Returns
/// the strategy that committed and the body cost the master paid.
fn run(
    interp: &mut Interp<'_>,
    plan: &ParallelPlan,
    body: &CompiledBody,
    chunks: Chunks,
    derived: Derived,
    buffers: &mut DispatchBuffers,
) -> Result<(ExecutionStrategy, u64), Abort> {
    let DispatchBuffers { in_place, slots } = buffers;
    // Hole-freedom (every increment is followed by a write) is *not*
    // re-proven statically; the append sinks and the commit validate
    // it dynamically instead. A negative live pointer downgrades.
    let pointer = match &derived {
        Derived::Concat(ptr, _) => Some((*ptr, interp.store.scalar(*ptr).as_int())),
        _ => None,
    };
    let pointer = pointer.filter(|&(_, p0)| p0 >= 0);
    // The commit reads a chunk's final value of a privatized scalar
    // (never), a reduction (combined) and the concat pointer (summed);
    // any other scalar the nest can assign would have to be claimed by
    // the one chunk that wrote it, which the typed loop, ending every
    // such scalar's register at chunk exit, cannot tell.
    let claim_exempt = |v: VarId| {
        plan.privatized.contains(&v)
            || plan.reductions.iter().any(|(r, _)| *r == v)
            || pointer.is_some_and(|(ptr, _)| ptr == v)
    };
    if let Some(v) = body.assigned_scalars().find(|&v| !claim_exempt(v)) {
        return Err(Abort::Fallback(FallbackReason::Unsupported, Some(v)));
    }
    let mode = match (derived, pointer) {
        (Derived::InPlace(targets), _) => {
            match prepare_in_place(&mut interp.store, &targets, &plan.facts, chunks, in_place) {
                Some(()) => Mode::InPlace(in_place),
                None => Mode::WriteLog,
            }
        }
        (Derived::Concat(ptr, targets), Some((_, p0))) => Mode::Concat { ptr, targets, p0 },
        _ => Mode::WriteLog,
    };
    // Chunk `k` runs in slot `k`.
    let slots = first(slots, chunks.count);
    let ran = run_chunks(interp, plan, body, &mode, chunks, slots);
    let strategy = mode.strategy();
    in_place.specs.clear();
    ran.map(|cost| (strategy, cost))
}

/// Runs a dispatch's chunks — one on the calling thread, more on the
/// process's pool as well — each in its slot, over the master's store, which
/// every chunk only reads: a chunk writes only its sinks (its windows of
/// the master's buffers among them) and its own [`FState`], and the
/// commit reads the rest — its registers, cost and counters — from
/// there. Then commits what they wrote and folds what they counted into
/// the master, or reports the one failure the dispatch fails with,
/// having changed nothing of the master that the mode's undo images do
/// not put back. Returns the body cost the chunks charged the master
/// together.
fn run_chunks(
    interp: &mut Interp<'_>,
    plan: &ParallelPlan,
    body: &CompiledBody,
    mode: &Mode<'_>,
    chunks: Chunks,
    slots: &mut [Chunk],
) -> Result<u64, Abort> {
    let program = interp.program();
    let (store, fuel) = (&interp.store, interp.fuel);
    let watch = Watch::new(plan, chunks);
    let finals = plan.reductions.iter().map(|&(v, _)| v);
    let finals = finals.chain(mode.pointer().map(|(ptr, _)| ptr));
    let run_chunk = |widx: usize, c: &mut Chunk| {
        mode.sinks(program, plan, body, widx, &mut c.sinks);
        let (clo, chi) = chunks.bounds(widx);
        let cx = Typed { program, store };
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let deadline = watch.start(widx);
            c.st.run(cx, body, (clo, chi, 1), (fuel, deadline), &mut c.sinks)
        }));
        let ran = ran.unwrap_or(Err(Abort::Fallback(FallbackReason::Panic, None)));
        c.finals.clear();
        if ran.is_ok() {
            let ended = finals.clone().map(|v| c.st.scalar(body, store, v));
            c.finals.extend(ended);
        }
        c.failed = ran.err();
    };
    interp.scope.spawned += WorkerPool::dispatch(&mut interp.scope.pool, slots, run_chunk);
    // Test-only and outside the transaction: lets a test see what the
    // chunks that ran to an end ran on, also in a dispatch that fails.
    #[cfg(test)]
    for c in slots.iter() {
        if !matches!(c.failed, Some(Abort::Fallback(FallbackReason::Panic, _))) {
            interp.probe.add(&c.st.probe);
        }
    }
    let settled = match failure(slots) {
        Some(e) => Err(e),
        None => forged(plan).and_then(|()| commit(interp, plan, mode, body, slots)),
    };
    // What the chunks wrote ends with the dispatch: the slots keep their
    // vectors, not their logs and append buffers.
    for c in slots.iter_mut() {
        c.sinks.clear();
    }
    if let Err(e) = settled {
        mode.roll_back(&mut interp.store);
        return Err(e);
    }
    // The transaction commits: the master pays the chunks' execution
    // cost (statements + fuel) and takes their counters.
    let cost: u64 = slots.iter().map(|c| c.st.spent).sum();
    interp.charge(cost)?;
    for c in slots.iter() {
        c.st.fold(body, &mut interp.stats);
    }
    Ok(cost)
}

/// The one failure the dispatch reports, taken out of its chunks'
/// slots; `None` when every chunk ran its range.
///
/// A strategy violation in *any* chunk comes first: in-place chunks
/// read their targets, so one that ran beside a violating chunk may
/// have computed — and failed — on state a sequential run would have
/// changed under it; its error is not the program's. Otherwise the
/// first failure in chunk order, which is iteration order, so a chunk's
/// error is the one the sequential run raises.
fn failure(chunks: &mut [Chunk]) -> Option<Abort> {
    let violated =
        |c: &Chunk| matches!(c.failed, Some(Abort::Fallback(FallbackReason::Strategy, _)));
    let first = chunks.iter().position(violated);
    let k = first.or_else(|| chunks.iter().position(|c| c.failed.is_some()))?;
    chunks[k].failed.take()
}

/// Chaos hook: reports a conflict that never happened, exactly at the
/// point the commit would — after every chunk completed, before the
/// commit — so the chunks' sinks are discarded and the master falls
/// back sequentially. (An in-place mode's chunks have written their
/// windows by then: the caller rolls those back like after any other
/// failure.)
fn forged(plan: &ParallelPlan) -> Result<(), Abort> {
    match plan.fault {
        Some(FaultKind::ForgeConflict) => Err(Abort::Fallback(FallbackReason::Conflict, None)),
        _ => Ok(()),
    }
}

/// The most worker chunks one dispatch may have: the owner tables
/// number chunks from 1 in a `u16`.
const MAX_WORKERS: usize = u16::MAX as usize - 1;

/// Commits what the chunks' sinks collected — the one commit of every
/// strategy, walking the body's pin slots across the chunks. Its cost
/// is `O(total writes)` plus one owner entry per element of each logged
/// array some chunk wrote — never a function of the store's size.
///
/// **Validate** before the first master mutation, so a commit that
/// fails leaves the master as the dispatch found it and the caller can
/// fall back to sequential re-execution:
///
/// 1. under concat, every chunk's pointer delta must be non-negative
///    and equal each of its append buffers' lengths — holes or
///    double-appends surface here even though hole-freedom was never
///    statically re-proven;
/// 2. the concatenated appends must fit each target's extent. Each chunk
///    appended from `p0`, so its own subscripts stayed in range even
///    where the concatenation does not: an overrun is a
///    [`FallbackReason::Strategy`] on the target (outranking any
///    conflict), and the sequential fallback raises the program's own
///    out-of-bounds error;
/// 3. every logged write claims its location for its chunk in the
///    array's owner table (one small integer per element: unclaimed, or
///    the claiming chunk, zero-allocated, touched only where written). A
///    chunk may rewrite its own location; a second chunk touching one
///    is a [`FallbackReason::Conflict`] — values are never compared,
///    so a write that restores the pre-loop value cannot mask a
///    conflict. Chunks bounds-checked every write against their copies,
///    whose extents are the master's.
///
/// **Apply**, which cannot fail: logged columns are replayed in chunk
/// order (a chunk's last write to a location wins, and chunks never
/// share one), the version rising by the distinct locations written;
/// append buffers are concatenated in chunk (= sequential) order, the
/// version rising by one per element; a window target, whose writes
/// landed already, has its version bumped once, so schedule caches and
/// the dependence auditor see the mutation; the reductions combine
/// (from the first chunk's final) and the pointer moves past the
/// appends.
fn commit(
    interp: &mut Interp<'_>,
    plan: &ParallelPlan,
    mode: &Mode<'_>,
    body: &CompiledBody,
    chunks: &[Chunk],
) -> Result<(), Abort> {
    let program = interp.program();
    let sinks = |k: usize| chunks.iter().map(move |c| c.sinks[k].as_ref());
    // ---- Validate (no master mutation) ----
    let mut appended: i64 = 0;
    if let Some((ptr, p0)) = mode.pointer() {
        let violation = |v: VarId| Abort::Fallback(FallbackReason::Strategy, Some(v));
        for c in chunks {
            let dp = c.finals[plan.reductions.len()].as_int() - p0;
            if dp < 0 {
                return Err(violation(ptr));
            }
            for (&a, sink) in body.arrays().iter().zip(&c.sinks) {
                if matches!(sink, Some(WriteSink::Append { buf, .. }) if buf.len() as i64 != dp) {
                    return Err(violation(a));
                }
            }
            appended += dp;
        }
        for (k, &a) in body.arrays().iter().enumerate() {
            let target = matches!(chunks[0].sinks[k], Some(WriteSink::Append { .. }));
            if target && appended > 0 && p0 + appended > interp.store.array(a).len() as i64 {
                return Err(violation(a));
            }
        }
    }
    // Per logged slot, its owner table (0 while unclaimed, else the
    // claiming chunk plus one) and the distinct locations claimed —
    // chunk by chunk, so the conflict reported is the first one a chunk
    // meets. A column nobody wrote gets no table, and its array is
    // neither copied nor bumped below.
    let mut claims: Vec<(Vec<u16>, u64)> = Vec::new();
    for (widx, c) in chunks.iter().enumerate() {
        let me = u16::try_from(widx + 1).expect("chunk count is capped at MAX_WORKERS");
        for (k, (&a, sink)) in body.arrays().iter().zip(&c.sinks).enumerate() {
            let Some(WriteSink::Logged { idx, .. }) = sink else {
                continue;
            };
            if idx.is_empty() {
                continue;
            }
            if claims.is_empty() {
                claims.resize_with(c.sinks.len(), Default::default);
            }
            let (owner, claimed) = &mut claims[k];
            if owner.is_empty() {
                *owner = vec![0; interp.store.array(a).len()];
            }
            for &idx in idx {
                let owner = &mut owner[idx];
                if *owner == 0 {
                    *owner = me;
                    *claimed += 1;
                } else if *owner != me {
                    return Err(Abort::Fallback(FallbackReason::Conflict, Some(a)));
                }
            }
        }
    }
    // ---- Apply (cannot fail) ----
    for (k, &a) in body.arrays().iter().enumerate() {
        match chunks[0].sinks[k] {
            Some(WriteSink::Logged { .. }) => {
                let Some(&(_, claimed @ 1..)) = claims.get(k) else {
                    continue;
                };
                let data = interp.store.array_mut(a);
                for sink in sinks(k) {
                    if let Some(WriteSink::Logged { idx, vals, .. }) = sink {
                        vals.scatter_into(data, idx.iter().copied());
                    }
                }
                interp.store.bump_version_by(a, claimed);
            }
            Some(WriteSink::Append { base, .. }) if appended > 0 => {
                let (data, mut at) = (interp.store.array_mut(a), base);
                for sink in sinks(k) {
                    if let Some(WriteSink::Append { buf, .. }) = sink {
                        buf.scatter_into(data, at..at + buf.len());
                        at += buf.len();
                    }
                }
                interp.store.bump_version_by(a, appended as u64);
            }
            Some(WriteSink::Window(_)) => interp.store.bump_version(a),
            _ => {}
        }
    }
    // Every chunk started its reductions at the master's value, so the
    // first chunk's final is the sequential walk's over its range — a
    // lone chunk's is the walk's — and each later one adds its own.
    for (k, &(rv, op)) in plan.reductions.iter().enumerate() {
        let base = interp.store.scalar(rv);
        let combine = |acc, c: &Chunk| combine_reduction(op, acc, c.finals[k], base);
        let acc = chunks[1..].iter().fold(chunks[0].finals[k], combine);
        interp.store.set_scalar(rv, program.symbols.var(rv).ty, acc);
    }
    if let Some((ptr, p0)) = mode.pointer() {
        let pty = program.symbols.var(ptr).ty;
        interp.store.set_scalar(ptr, pty, Value::Int(p0 + appended));
    }
    Ok(())
}

/// Folds one worker's final reduction value into the accumulator.
/// Integer sums wrap, like the language's own integer arithmetic
/// (`apply_bin`): the sequential loop wraps and completes, so the
/// commit must too.
fn combine_reduction(op: ReduceOp, acc: Value, theirs: Value, base: Value) -> Value {
    match op {
        ReduceOp::Sum => match (acc, theirs, base) {
            (Value::Int(a), Value::Int(x), Value::Int(b)) => {
                Value::Int(a.wrapping_add(x.wrapping_sub(b)))
            }
            (a, x, b) => Value::Real(a.as_real() + (x.as_real() - b.as_real())),
        },
        ReduceOp::Min => match (acc, theirs) {
            (Value::Int(a), Value::Int(x)) => Value::Int(a.min(x)),
            (a, x) => Value::Real(a.as_real().min(x.as_real())),
        },
        ReduceOp::Max => match (acc, theirs) {
            (Value::Int(a), Value::Int(x)) => Value::Int(a.max(x)),
            (a, x) => Value::Real(a.as_real().max(x.as_real())),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{ArrayData, ExecError, ExecStats};
    use irr_frontend::parse_program;

    /// A fresh interpreter on `p` with every array allocated, as a run
    /// has them at its first statement.
    fn live(p: &Program) -> Interp<'_> {
        let mut interp = Interp::new(p);
        interp.allocate_arrays();
        interp
    }

    fn first_do(p: &Program) -> StmtId {
        p.stmts_in(&p.procedure(p.main()).body)
            .into_iter()
            .find(|s| matches!(p.stmt(*s).kind, StmtKind::Do { .. }))
            .unwrap()
    }

    fn nth_do(p: &Program, n: usize) -> StmtId {
        p.stmts_in(&p.procedure(p.main()).body)
            .into_iter()
            .filter(|s| matches!(p.stmt(*s).kind, StmtKind::Do { .. }))
            .nth(n)
            .unwrap()
    }

    #[test]
    fn parallel_matches_sequential_for_independent_loop() {
        let src = "program t
             integer i
             real x(100), y(100)
             do i = 1, 100
               y(i) = i * 0.5
             enddo
             do i = 1, 100
               x(i) = y(i) * 2 + 1
             enddo
             end";
        let p = parse_program(src).unwrap();
        let seq = Interp::new(&p).run().unwrap();
        let plan = ParallelPlan::with_threads(4);
        let (par, res) = dispatch_nth_do(&p, 1, &plan);
        assert_eq!(res.unwrap().chunks, 4);
        let x = p.symbols.lookup("x").unwrap();
        assert_eq!(seq.store.array_as_reals(x), par.store.array_as_reals(x));
    }

    /// Runs `p`'s main body on a fresh master up to its `n`th top-level
    /// `do` loop, dispatches that loop under `plan` with the bounds the
    /// master evaluates, and returns the master with the result.
    fn dispatch_nth_do<'p>(
        p: &'p Program,
        n: usize,
        plan: &ParallelPlan,
    ) -> (Interp<'p>, Result<Committed, Abort>) {
        let mut interp = live(p);
        let target = nth_do(p, n);
        for &s in p.procedure(p.main()).body.iter() {
            if s == target {
                break;
            }
            interp.exec_stmt(s).unwrap();
        }
        let StmtKind::Do { lo, hi, .. } = &p.stmt(target).kind else {
            unreachable!("a do loop")
        };
        let (lo, hi) = (interp.eval(lo).unwrap(), interp.eval(hi).unwrap());
        let res = exec_do_parallel(&mut interp, target, plan, lo.as_int(), hi.as_int(), 1);
        (interp, res)
    }

    /// The master's store after a [`dispatch_nth_do`] that commits.
    fn committed_store(p: &Program, n: usize, plan: &ParallelPlan) -> Store {
        let (master, res) = dispatch_nth_do(p, n, plan);
        res.unwrap();
        master.store
    }

    /// [`dispatch_nth_do`] of `p`'s first `do` loop.
    fn dispatch_first_do<'p>(
        p: &'p Program,
        plan: &ParallelPlan,
    ) -> (Interp<'p>, Result<Committed, Abort>) {
        dispatch_nth_do(p, 0, plan)
    }

    #[test]
    fn conflicting_writes_are_detected() {
        let src = "program t
             integer i
             real x(10)
             do i = 1, 100
               x(1) = i
             enddo
             end";
        let p = parse_program(src).unwrap();
        let (master, res) = dispatch_first_do(&p, &ParallelPlan::with_threads(4));
        let x = p.symbols.lookup("x");
        assert_eq!(res, Err(Abort::Fallback(FallbackReason::Conflict, x)));
        // Every chunk ran typed, through the logged sink.
        assert_eq!(master.probe.typed_root_iters, 100);
    }

    /// Regression for the snapshot-diff soundness hole: one chunk writes
    /// `x(1) = i`, the other writes `x(1) = x(1)` — a write whose value
    /// equals the pre-loop value and was therefore invisible to the old
    /// value-diff merge. Positional detection must still flag the
    /// overlap (there is a real flow dependence between the chunks).
    #[test]
    fn masked_same_value_write_is_a_conflict() {
        let src = "program t
             integer i
             real x(10)
             do i = 1, 100
               if (i < 51) then
                 x(1) = i
               endif
               if (i > 50) then
                 x(1) = x(1)
               endif
             enddo
             end";
        let p = parse_program(src).unwrap();
        let (master, res) = dispatch_first_do(&p, &ParallelPlan::with_threads(2));
        let x = p.symbols.lookup("x");
        assert_eq!(res, Err(Abort::Fallback(FallbackReason::Conflict, x)));
        assert_eq!(master.probe.typed_root_iters, 100);
    }

    /// Every chunk writing the pre-loop value back is still an
    /// overlapping write set — the loop carries an output dependence
    /// even though the store never changes.
    #[test]
    fn snapshot_equal_overlapping_writes_conflict() {
        let src = "program t
             integer i
             real x(10)
             do i = 1, 100
               x(1) = 0
             enddo
             end";
        let p = parse_program(src).unwrap();
        let (master, res) = dispatch_first_do(&p, &ParallelPlan::with_threads(4));
        let x = p.symbols.lookup("x");
        assert_eq!(res, Err(Abort::Fallback(FallbackReason::Conflict, x)));
        assert_eq!(master.probe.typed_root_iters, 100);
    }

    /// The owner table claims per worker, not per write: a chunk may
    /// store to its own location any number of times (`y(i)` three
    /// times an iteration here, as spmv does per nonzero) without
    /// conflicting with itself, and the last value wins.
    #[test]
    fn a_worker_rewriting_its_own_location_is_not_a_conflict() {
        let src = "program t
             integer i, j
             real y(100)
             do i = 1, 100
               do j = 1, 3
                 y(i) = y(i) + i * j
               enddo
             enddo
             end";
        let p = parse_program(src).unwrap();
        let jv = p.symbols.lookup("j").unwrap();
        let y = p.symbols.lookup("y").unwrap();
        let plan = ParallelPlan {
            privatized: vec![jv].into(),
            ..ParallelPlan::with_threads(4)
        };
        let (master, res) = dispatch_first_do(&p, &plan);
        let got = res.unwrap();
        assert_eq!((got.strategy, got.chunks), (ExecutionStrategy::WriteLog, 4));
        let seq = Interp::new(&p).run().unwrap();
        assert_eq!(master.store.array_as_reals(y), seq.store.array_as_reals(y));
        // 300 logged writes claimed 100 distinct locations.
        assert_eq!(
            master.store.array_version(y),
            1 + 100,
            "one allocation plus one bump per distinct location"
        );
    }

    /// A body that reads what it wrote earlier in the same chunk sees
    /// its own write (the logged sink stores into the worker's payload
    /// as well as the log) and matches sequential bit for bit.
    #[test]
    fn a_chunk_reads_back_its_own_logged_writes() {
        let src = "program t
             integer i
             real a(64)
             do i = 1, 64
               a(i) = i * 0.37
             enddo
             do i = 1, 64
               a(i) = a(i) * 2.0 + 1.0
               a(i) = a(i) * 2.0
             enddo
             end";
        let p = parse_program(src).unwrap();
        let a = p.symbols.lookup("a").unwrap();
        let mut interp = live(&p);
        interp.exec_stmt(first_do(&p)).unwrap();
        let plan = ParallelPlan::with_threads(3);
        let got = exec_do_parallel(&mut interp, nth_do(&p, 1), &plan, 1, 64, 1).unwrap();
        assert_eq!(got.strategy, ExecutionStrategy::WriteLog);
        assert_eq!((got.chunks, interp.probe.typed_root_iters), (3, 64));
        let seq = Interp::new(&p).run().unwrap();
        let bits = |st: &Store| -> Vec<u64> {
            st.array_as_reals(a)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&interp.store), bits(&seq.store));
    }

    /// Arrays no statement has touched yet are live in the master's
    /// store every chunk pins, so each chunk runs typed from its first
    /// iteration and the merge has writes to replay and nothing else.
    #[test]
    fn untouched_arrays_are_live_and_every_chunk_is_typed_from_its_first_iteration() {
        let src = "program t
             integer i
             real x(100), y(100)
             do i = 1, 100
               y(i) = x(i) + i
             enddo
             end";
        let p = parse_program(src).unwrap();
        let (master, res) = dispatch_first_do(&p, &ParallelPlan::with_threads(4));
        assert_eq!(res.unwrap().chunks, 4);
        assert_eq!(master.probe.typed_root_iters, 100);
        let seq = Interp::new(&p).run().unwrap();
        assert_eq!(master.store, seq.store);
    }

    /// The typed loop writes every scalar its nest *can* assign back at
    /// chunk exit, so the commit cannot tell which chunk wrote one: a
    /// nest assigning a scalar the plan neither privatizes nor reduces
    /// is refused before any chunk runs, with the master untouched, and
    /// the sequential fallback runs it. `last` is assigned in iteration
    /// 77 alone.
    #[test]
    fn a_nest_assigning_an_unexempt_scalar_is_refused_before_any_chunk_runs() {
        let src = "program t
             integer i, last
             real x(100)
             do i = 1, 100
               x(i) = i * 0.5
               if (i == 77) then
                 last = i
               endif
             enddo
             end";
        let p = parse_program(src).unwrap();
        let (master, res) = dispatch_first_do(&p, &ParallelPlan::with_threads(4));
        let last = p.symbols.lookup("last");
        assert_eq!(res, Err(Abort::Fallback(FallbackReason::Unsupported, last)));
        assert_eq!(master.probe.typed_root_iters, 0);
        assert_eq!(master.store, live(&p).store);
        assert_eq!(master.stats.total_cost, 0);
        // Not for want of a typed body: privatizing `last` exempts it
        // from claiming and the same nest runs typed.
        let last = p.symbols.lookup("last").unwrap();
        let plan = ParallelPlan {
            privatized: vec![last].into(),
            ..ParallelPlan::with_threads(4)
        };
        let (master, res) = dispatch_first_do(&p, &plan);
        assert_eq!(res.unwrap().chunks, 4);
        let x = p.symbols.lookup("x").unwrap();
        let seq = Interp::new(&p).run().unwrap();
        assert_eq!(master.store.array_as_reals(x), seq.store.array_as_reals(x));
    }

    /// A runtime error raised inside a typed chunk is the program's
    /// own error — the one the sequential run raises — and the
    /// dispatch leaves the master exactly as it found it.
    #[test]
    fn errors_inside_a_typed_chunk_leave_the_master_untouched() {
        let cases: [(usize, u64, ExecError); 2] = [
            // Iteration 61 leaves `a(60)`: the second chunk's error,
            // and the first in chunk order.
            (
                60,
                2_000_000_000,
                ExecError::OutOfBounds {
                    array: "a".to_string(),
                    index: 61,
                    extent: 60,
                },
            ),
            // 201 for the first loop, 67 left. Every worker starts
            // with all of the master's fuel: the 34-iteration chunk
            // needs 68 and runs dry on its last bookkeeping charge; the
            // two 33-iteration chunks complete.
            (100, 268, ExecError::OutOfFuel),
        ];
        for (extent, fuel, expected) in cases {
            let src = format!(
                "program t
                 integer i, idx(100)
                 real a({extent})
                 do i = 1, 100
                   idx(i) = i
                 enddo
                 do i = 1, 100
                   a(idx(i)) = i * 0.5
                 enddo
                 end"
            );
            let p = parse_program(&src).unwrap();
            let a = p.symbols.lookup("a").unwrap();
            let mut seq = Interp::new(&p);
            seq.fuel = fuel;
            assert_eq!(seq.run().unwrap_err(), expected);

            let mut interp = live(&p);
            interp.fuel = fuel;
            interp.exec_stmt(first_do(&p)).unwrap();
            let state = |it: &Interp<'_>| {
                (
                    it.store.clone(),
                    it.store.array_version(a),
                    it.fuel,
                    it.stats.total_cost,
                    it.stats.loops.len(),
                    it.output.clone(),
                )
            };
            let before = state(&interp);
            let plan = ParallelPlan::with_threads(3);
            let err = exec_do_parallel(&mut interp, nth_do(&p, 1), &plan, 1, 100, 1).unwrap_err();
            assert!(
                matches!(&err, Abort::Exec(e) if *e == expected),
                "fuel {fuel}: {err:?}"
            );
            assert!(before == state(&interp), "fuel {fuel}: master changed");
            // The chunks that completed did so on the typed loop, and
            // the failing one ran the same body over the same arrays.
            assert!(interp.probe.typed_root_iters >= 34, "fuel {fuel}");
        }
    }

    /// Integer sum reductions wrap at commit exactly as the
    /// language's integer arithmetic does in the loop: the sequential
    /// run wraps past `i64::MAX` and completes, so must every
    /// strategy's combine.
    #[test]
    fn integer_sum_reduction_wraps_at_commit() {
        let src = "program t
             integer i, s
             real x(100)
             s = 9223372036854775800
             do i = 1, 100
               x(i) = i
               s = s + i
             enddo
             end";
        let p = parse_program(src).unwrap();
        let s = p.symbols.lookup("s").unwrap();
        let seq = Interp::new(&p).run().unwrap();
        assert!(seq.store.scalar(s).as_int() < 0, "the sum wrapped");
        for strategy in [
            ExecutionStrategy::WriteLog,
            ExecutionStrategy::InPlaceDisjoint,
        ] {
            let plan = ParallelPlan {
                threads: 3,
                reductions: vec![(s, ReduceOp::Sum)].into(),
                strategy,
                ..ParallelPlan::default()
            };
            let (master, res) = dispatch_first_do(&p, &plan);
            res.unwrap();
            assert_eq!(master.store, seq.store, "{strategy:?}");
        }
    }

    #[test]
    fn sum_reduction_merges() {
        let src = "program t
             integer i
             real s, x(100)
             do i = 1, 100
               x(i) = i
             enddo
             do i = 1, 100
               s = s + x(i)
             enddo
             end";
        let p = parse_program(src).unwrap();
        let s = p.symbols.lookup("s").unwrap();
        let plan = ParallelPlan {
            threads: 3,
            privatized: vec![].into(),
            reductions: vec![(s, ReduceOp::Sum)].into(),
            ..ParallelPlan::default()
        };
        let st = committed_store(&p, 1, &plan);
        assert_eq!(st.scalar(s).as_real(), 5050.0);
    }

    #[test]
    fn min_and_max_reductions_merge_from_write_logs() {
        let src = "program t
             integer i
             real s, x(100)
             s = 1000
             do i = 1, 100
               x(i) = abs(i - 37) + 2.0
             enddo
             do i = 1, 100
               s = min(s, x(i))
             enddo
             end";
        let p = parse_program(src).unwrap();
        let s = p.symbols.lookup("s").unwrap();
        let plan = ParallelPlan {
            threads: 4,
            privatized: vec![].into(),
            reductions: vec![(s, ReduceOp::Min)].into(),
            ..ParallelPlan::default()
        };
        let st = committed_store(&p, 1, &plan);
        assert_eq!(st.scalar(s).as_real(), 2.0);

        let src_max = src
            .replace("min(s, x(i))", "max(s, x(i))")
            .replace("s = 1000", "s = 0 - 1000");
        let p = parse_program(&src_max).unwrap();
        let s = p.symbols.lookup("s").unwrap();
        let plan = ParallelPlan {
            threads: 4,
            privatized: vec![].into(),
            reductions: vec![(s, ReduceOp::Max)].into(),
            ..ParallelPlan::default()
        };
        let st = committed_store(&p, 1, &plan);
        // max over abs(i - 37) + 2 on 1..=100 is abs(100 - 37) + 2.
        assert_eq!(st.scalar(s).as_real(), 65.0);
    }

    #[test]
    fn privatized_scratch_is_ignored_in_merge() {
        let src = "program t
             integer i, j
             real tmp(10), z(100)
             do i = 1, 100
               do j = 1, 10
                 tmp(j) = i + j
               enddo
               z(i) = tmp(1) + tmp(10)
             enddo
             end";
        let p = parse_program(src).unwrap();
        let tmp = p.symbols.lookup("tmp").unwrap();
        let jv = p.symbols.lookup("j").unwrap();
        let plan = ParallelPlan {
            threads: 4,
            privatized: vec![tmp, jv].into(),
            reductions: vec![].into(),
            ..ParallelPlan::default()
        };
        let (master, res) = dispatch_first_do(&p, &plan);
        assert_eq!(res.unwrap().chunks, 4);
        let seq = Interp::new(&p).run().unwrap();
        let z = p.symbols.lookup("z").unwrap();
        assert_eq!(master.store.array_as_reals(z), seq.store.array_as_reals(z));
        // The scratch was written in each worker's own copy only.
        assert_eq!(master.store.array_as_reals(tmp), Some(vec![0.0; 10]));
    }

    #[test]
    fn zero_trip_loop_matches_sequential() {
        let src = "program t
             integer i, k
             real x(10)
             k = 7
             do i = 5, 1
               x(1) = 99
               k = 0
             enddo
             end";
        let p = parse_program(src).unwrap();
        let plan = ParallelPlan::with_threads(4);
        let st = committed_store(&p, 0, &plan);
        let seq = Interp::new(&p).run().unwrap();
        let k = p.symbols.lookup("k").unwrap();
        let i = p.symbols.lookup("i").unwrap();
        assert_eq!(st.scalar(k), seq.store.scalar(k));
        assert_eq!(st.scalar(i), Value::Int(5));
    }

    #[test]
    fn single_iteration_loop_matches_sequential() {
        let src = "program t
             integer i
             real x(10)
             do i = 3, 3
               x(i) = i * 2.0
             enddo
             end";
        let p = parse_program(src).unwrap();
        // More threads than iterations: clamps to one chunk.
        let plan = ParallelPlan::with_threads(8);
        let st = committed_store(&p, 0, &plan);
        let seq = Interp::new(&p).run().unwrap();
        let x = p.symbols.lookup("x").unwrap();
        let i = p.symbols.lookup("i").unwrap();
        assert_eq!(st.array_as_reals(x), seq.store.array_as_reals(x));
        assert_eq!(st.scalar(i), Value::Int(4));
    }

    #[test]
    fn zero_trip_reduction_leaves_scalar_untouched() {
        let src = "program t
             integer i
             real s
             s = 42
             do i = 9, 2
               s = s + 1
             enddo
             end";
        let p = parse_program(src).unwrap();
        let s = p.symbols.lookup("s").unwrap();
        let plan = ParallelPlan {
            threads: 4,
            privatized: vec![].into(),
            reductions: vec![(s, ReduceOp::Sum)].into(),
            ..ParallelPlan::default()
        };
        let st = committed_store(&p, 0, &plan);
        assert_eq!(st.scalar(s).as_real(), 42.0);
    }

    #[test]
    fn non_unit_step_reports_unsupported_step() {
        let src = "program t
             integer i
             real x(100)
             do i = 1, 100, 2
               x(i) = i
             enddo
             end";
        let p = parse_program(src).unwrap();
        let mut interp = live(&p);
        let plan = ParallelPlan::with_threads(4);
        let err = exec_do_parallel(&mut interp, first_do(&p), &plan, 1, 100, 2).unwrap_err();
        assert_eq!(err, Abort::Fallback(FallbackReason::Unsupported, None));
    }

    /// A nest the lowering rejects — `min` with one argument, which the
    /// parser admits and the tree-walk panics on — never reaches a
    /// worker: the dispatch is refused before any chunk runs.
    #[test]
    fn a_nest_that_does_not_lower_is_refused_before_any_chunk_runs() {
        let src = "program t
             integer i
             real x(10)
             do i = 1, 10
               x(i) = min(i)
             enddo
             end";
        let p = parse_program(src).unwrap();
        let (master, res) = dispatch_first_do(&p, &ParallelPlan::with_threads(2));
        assert_eq!(res, Err(Abort::Fallback(FallbackReason::Unsupported, None)));
        assert_eq!(master.worker_threads_spawned(), 0);
    }

    /// `threads` is caller-supplied: a plan may ask for more threads
    /// than the OS grants. The pool keeps what it got — here none, then
    /// one — and the chunks are claimed by whoever is free, the master
    /// included; the chunk count, and so the result, is the plan's.
    #[test]
    fn a_dispatch_refused_its_threads_still_commits() {
        let src = "program t
             integer i
             real x(64)
             do i = 1, 64
               x(i) = i * 0.5
             enddo
             end";
        let p = parse_program(src).unwrap();
        let seq = Interp::new(&p).run().unwrap();
        for granted in [0, 1] {
            let mut interp = live(&p);
            interp.scope.pool = Some(WorkerPool::with_spawn_limit(granted));
            let plan = ParallelPlan::with_threads(16);
            let got = exec_do_parallel(&mut interp, first_do(&p), &plan, 1, 64, 1).unwrap();
            assert_eq!(got.chunks, 16, "{granted} thread(s) granted");
            assert_eq!(interp.worker_threads_spawned(), granted as u64);
            assert_eq!(interp.store, seq.store, "{granted} thread(s) granted");
        }
    }

    /// The defect as reported: with a scoped thread spawned per chunk
    /// this plan panicked the master ("failed to spawn thread ...
    /// WouldBlock"). The chunk count is still the plan's; the threads
    /// are the pool's ceiling, and the queue does the rest.
    #[test]
    fn a_plan_asking_for_40_000_threads_is_served_by_a_bounded_pool() {
        let src = "program t
             integer i
             real a(100000)
             do i = 1, 100000
               a(i) = i
             enddo
             end";
        let p = parse_program(src).unwrap();
        let seq = Interp::new(&p).run().unwrap();
        let (master, res) = dispatch_first_do(&p, &ParallelPlan::with_threads(40_000));
        assert_eq!(res.unwrap().chunks, 40_000);
        assert!(master.worker_threads_spawned() <= crate::pool::MAX_POOL_THREADS as u64);
        assert_eq!(master.store, seq.store);
    }

    /// An injected panic is the chunk's, whichever thread runs it —
    /// chunk 0 is claimed by the master, chunk 1 by a pooled thread —
    /// and costs the dispatch, not the pool: the master is untouched,
    /// and the next dispatch runs on the same threads, creating none.
    #[test]
    fn a_panic_in_any_chunk_is_a_worker_panic_and_the_pool_survives() {
        let src = "program t
             integer i
             real x(90)
             do i = 1, 90
               x(i) = i * 0.5
             enddo
             end";
        let p = parse_program(src).unwrap();
        let seq = Interp::new(&p).run().unwrap();
        for worker in [0, 1] {
            let mut interp = live(&p);
            let before = interp.store.clone();
            let plan = ParallelPlan {
                fault: Some(FaultKind::PanicWorker { worker }),
                ..ParallelPlan::with_threads(3)
            };
            let err = exec_do_parallel(&mut interp, first_do(&p), &plan, 1, 90, 1).unwrap_err();
            assert_eq!(err, Abort::Fallback(FallbackReason::Panic, None));
            assert_eq!(interp.store, before);
            assert_eq!(interp.stats.total_cost, 0);
            // The two healthy chunks were awaited, not abandoned.
            assert_eq!(interp.probe.typed_root_iters, 60);
            let spawned = interp.worker_threads_spawned();
            assert!(spawned <= 2, "{spawned} threads for three chunks");
            let plan = ParallelPlan::with_threads(3);
            exec_do_parallel(&mut interp, first_do(&p), &plan, 1, 90, 1).unwrap();
            assert_eq!(interp.store, seq.store);
            let again = interp.worker_threads_spawned();
            assert_eq!(again, spawned, "no thread was replaced");
        }
    }

    /// A chunk that panics before it runs leaves its slot's state as an
    /// earlier dispatch of another loop left it — planes of that body's
    /// sizes — and hands back no finals: the dispatch is a worker panic
    /// like any other, whichever slot the chunk reused.
    #[test]
    fn a_chunk_that_panics_before_it_runs_hands_back_no_finals() {
        let src = "program t
             integer i, k(64)
             real s, x(64)
             do i = 1, 64
               k(i) = i
             enddo
             do i = 1, 64
               s = s + x(i) * 0.5
             enddo
             end";
        let p = parse_program(src).unwrap();
        let s = p.symbols.lookup("s").unwrap();
        let mut interp = live(&p);
        let ints = ParallelPlan::with_threads(2);
        exec_do_parallel(&mut interp, nth_do(&p, 0), &ints, 1, 64, 1).unwrap();
        let before = interp.store.clone();
        let plan = ParallelPlan {
            reductions: vec![(s, ReduceOp::Sum)].into(),
            fault: Some(FaultKind::PanicWorker { worker: 1 }),
            ..ParallelPlan::with_threads(2)
        };
        let err = exec_do_parallel(&mut interp, nth_do(&p, 1), &plan, 1, 64, 1).unwrap_err();
        assert_eq!(err, Abort::Fallback(FallbackReason::Panic, None));
        assert_eq!(interp.store, before);
    }

    /// A private pool's threads end with the interpreter, however the
    /// run ended: the `Weak` is dead only once every thread has dropped
    /// its `Arc`, i.e. has been joined. The process's pool and its
    /// threads outlive every run.
    #[test]
    fn dropping_the_interpreter_joins_a_private_pool_however_the_run_ended() {
        let src = "program t
             integer i
             real x(4), y(64)
             do i = 1, 64
               y(i) = i
             enddo
             x(5) = 1.0
             x(1) = min(i)
             end";
        let p = parse_program(src).unwrap();
        let body = &p.procedure(p.main()).body;
        let (lp, out_of_bounds, panics) = (body[0], body[1], body[2]);
        let dispatched = || {
            let mut interp = live(&p);
            interp.scope.pool = Some(Arc::default());
            exec_do_parallel(&mut interp, lp, &ParallelPlan::with_threads(3), 1, 64, 1).unwrap();
            let alive = interp.scope.pool.as_ref().expect("three chunks").liveness();
            assert_eq!(alive.strong_count(), 3, "the pool and its two threads");
            (interp, alive)
        };

        let (interp, alive) = dispatched();
        drop(interp);
        assert_eq!(alive.strong_count(), 0, "after a clean run");

        let (mut interp, alive) = dispatched();
        assert!(matches!(
            interp.exec_stmt(out_of_bounds),
            Err(ExecError::OutOfBounds { .. })
        ));
        drop(interp);
        assert_eq!(alive.strong_count(), 0, "after an ExecError");

        let (mut interp, alive) = dispatched();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _ = interp.exec_stmt(panics);
        }));
        assert!(unwound.is_err(), "`min` with one argument panics");
        assert_eq!(alive.strong_count(), 0, "after the master unwound");

        let mut interp = live(&p);
        exec_do_parallel(&mut interp, lp, &ParallelPlan::with_threads(3), 1, 64, 1).unwrap();
        let alive = interp.scope.pool.as_ref().expect("three chunks").liveness();
        drop(interp);
        assert!(
            alive.strong_count() >= 3,
            "the process's pool and two threads"
        );
    }

    #[test]
    fn worker_stats_are_aggregated() {
        let src = "program t
             integer i, j
             real z(8)
             do i = 1, 8
               do j = 1, 3
                 z(i) = z(i) + 1.0
               enddo
             enddo
             end";
        let p = parse_program(src).unwrap();
        let jv = p.symbols.lookup("j").unwrap();
        let outer = first_do(&p);
        let inner = p
            .stmts_in(&p.procedure(p.main()).body)
            .into_iter()
            .filter(|s| matches!(p.stmt(*s).kind, StmtKind::Do { .. }))
            .find(|s| *s != outer)
            .unwrap();
        let plan = ParallelPlan {
            threads: 4,
            privatized: vec![jv].into(),
            reductions: vec![].into(),
            ..ParallelPlan::default()
        };
        let seq = Interp::new(&p).run().unwrap();
        let mut interp = live(&p);
        exec_do_parallel(&mut interp, outer, &plan, 1, 8, 1).unwrap();
        // Every chunk's inner-loop invocations are absorbed, and the
        // loop's cost is charged to the master, as the sequential run
        // spends it.
        assert_eq!(interp.stats.loops[&inner].invocations, 8);
        assert!(interp.stats.total_cost > 0);
        let cost = |it: &ExecStats, l| it.loops[&l].total_cost;
        assert_eq!(cost(&interp.stats, outer), cost(&seq.stats, outer));
        assert_eq!(cost(&interp.stats, inner), cost(&seq.stats, inner));
    }

    #[test]
    fn in_place_strategy_commits_and_matches_sequential() {
        let src = "program t
             integer i
             real x(100)
             do i = 1, 100
               x(i) = i * 2.0
             enddo
             end";
        let p = parse_program(src).unwrap();
        let plan = ParallelPlan {
            strategy: ExecutionStrategy::InPlaceDisjoint,
            ..ParallelPlan::with_threads(4)
        };
        let mut interp = live(&p);
        let got = exec_do_parallel(&mut interp, first_do(&p), &plan, 1, 100, 1).unwrap();
        assert_eq!(got.strategy, ExecutionStrategy::InPlaceDisjoint);
        // Every chunk is typed, through the window sink.
        assert_eq!((got.chunks, interp.probe.typed_root_iters), (4, 100));
        let seq = Interp::new(&p).run().unwrap();
        let x = p.symbols.lookup("x").unwrap();
        let i = p.symbols.lookup("i").unwrap();
        assert_eq!(interp.store.array_as_reals(x), seq.store.array_as_reals(x));
        assert_eq!(interp.store.scalar(i), Value::Int(101));
    }

    #[test]
    fn in_place_strategy_handles_affine_offsets() {
        // Writes at `i + 1`: chunks own shifted disjoint windows.
        let src = "program t
             integer i
             real y(101)
             do i = 1, 100
               y(i + 1) = i * 3.0
             enddo
             end";
        let p = parse_program(src).unwrap();
        let plan = ParallelPlan {
            strategy: ExecutionStrategy::InPlaceDisjoint,
            ..ParallelPlan::with_threads(4)
        };
        let mut interp = live(&p);
        let got = exec_do_parallel(&mut interp, first_do(&p), &plan, 1, 100, 1).unwrap();
        assert_eq!(got.strategy, ExecutionStrategy::InPlaceDisjoint);
        let seq = Interp::new(&p).run().unwrap();
        let y = p.symbols.lookup("y").unwrap();
        assert_eq!(interp.store.array_as_reals(y), seq.store.array_as_reals(y));
    }

    #[test]
    fn in_place_strategy_combines_reductions() {
        let src = "program t
             integer i
             real s, x(100)
             do i = 1, 100
               x(i) = i
               s = s + i
             enddo
             end";
        let p = parse_program(src).unwrap();
        let s = p.symbols.lookup("s").unwrap();
        let plan = ParallelPlan {
            threads: 4,
            reductions: vec![(s, ReduceOp::Sum)].into(),
            strategy: ExecutionStrategy::InPlaceDisjoint,
            ..ParallelPlan::default()
        };
        let mut interp = live(&p);
        let got = exec_do_parallel(&mut interp, first_do(&p), &plan, 1, 100, 1).unwrap();
        assert_eq!(got.strategy, ExecutionStrategy::InPlaceDisjoint);
        assert_eq!(interp.store.scalar(s).as_real(), 5050.0);
        let x = p.symbols.lookup("x").unwrap();
        let seq = Interp::new(&p).run().unwrap();
        assert_eq!(interp.store.array_as_reals(x), seq.store.array_as_reals(x));
    }

    /// The shapes memoized per loop statement belong to the plan's
    /// lists they were derived under: the same loop dispatched without
    /// its reduction declared has no in-place shape (`s` is an
    /// unexplained scalar write) and with it does, in either order on
    /// one interpreter, and a repeat dispatch is answered from the memo.
    #[test]
    fn memoized_shapes_follow_the_plans_privatized_and_reduction_lists() {
        let src = "program t
             integer i
             real s, x(100), z(100)
             do i = 1, 100
               s = s + z(i)
               x(i) = z(i) + 1.0
             enddo
             end";
        let p = parse_program(src).unwrap();
        let s = p.symbols.lookup("s").unwrap();
        // One chunk: undeclared, `s` would be a write conflict.
        let plan = |reductions| ParallelPlan {
            threads: 1,
            reductions,
            strategy: ExecutionStrategy::InPlaceDisjoint,
            ..ParallelPlan::default()
        };
        let (bare, reducing) = (plan(Arc::default()), plan(vec![(s, ReduceOp::Sum)].into()));
        for order in [[&bare, &reducing, &reducing], [&reducing, &bare, &bare]] {
            let mut interp = live(&p);
            for plan in order {
                let got = exec_do_parallel(&mut interp, first_do(&p), plan, 1, 100, 1);
                let declared = !plan.reductions.is_empty();
                if declared {
                    assert_eq!(got.unwrap().strategy, ExecutionStrategy::InPlaceDisjoint);
                } else {
                    // Nor can a typed worker hand back an unexplained
                    // `s`: the dispatch is refused.
                    let refused = Abort::Fallback(FallbackReason::Unsupported, Some(s));
                    assert_eq!(got, Err(refused));
                }
                let memo = &interp.scope.loops[&first_do(&p)].shapes;
                assert_eq!(memo.in_place.as_ref().unwrap().is_some(), declared);
            }
        }
    }

    /// An in-place request for the second loop of a program whose
    /// first loop fills `x`; returns what committed and whether the
    /// master equals the sequential run's store.
    fn in_place_second_loop(body: &str) -> (ExecutionStrategy, bool) {
        let src = format!(
            "program t
             integer i
             real x(101), y(100)
             do i = 1, 101
               x(i) = i * 0.25
             enddo
             do i = 1, 100
               {body}
             enddo
             end"
        );
        let p = parse_program(&src).unwrap();
        let plan = ParallelPlan {
            strategy: ExecutionStrategy::InPlaceDisjoint,
            ..ParallelPlan::with_threads(4)
        };
        let mut interp = live(&p);
        interp.exec_stmt(first_do(&p)).unwrap();
        let got = exec_do_parallel(&mut interp, nth_do(&p, 1), &plan, 1, 100, 1).unwrap();
        let seq = Interp::new(&p).run().unwrap();
        (got.strategy, interp.store == seq.store)
    }

    #[test]
    fn in_place_request_runs_a_target_read_where_it_is_written_and_downgrades_any_other_read() {
        // `x(i) = x(i) + 1` reads the target at the subscript it writes:
        // the chunk that writes an element is the only one to read it.
        assert_eq!(
            in_place_second_loop("x(i) = x(i) + 1.0"),
            (ExecutionStrategy::InPlaceDisjoint, true)
        );
        assert_eq!(
            in_place_second_loop("y(i) = 1.0\n x(i) = x(i) + y(i)"),
            (ExecutionStrategy::InPlaceDisjoint, true)
        );
        // A read one element over is in the next chunk's window: the
        // executor's own derivation refuses and the loop runs (and,
        // every chunk reading its copy of the pre-loop value a later
        // iteration overwrites, is still exact) under the write-log.
        assert_eq!(
            in_place_second_loop("y(i) = x(i + 1)\n x(i) = 0.5"),
            (ExecutionStrategy::WriteLog, true)
        );
    }

    #[test]
    fn in_place_request_downgrades_when_window_exceeds_extent() {
        // Writes at `i + 1` with extent 100 would leave the array on
        // the last iteration: the prepare step must refuse in-place and
        // the write-log worker then reproduces the program's own
        // out-of-bounds error.
        let src = "program t
             integer i
             real y(100)
             do i = 1, 100
               y(i + 1) = i
             enddo
             end";
        let p = parse_program(src).unwrap();
        let plan = ParallelPlan {
            strategy: ExecutionStrategy::InPlaceDisjoint,
            ..ParallelPlan::with_threads(4)
        };
        let mut interp = live(&p);
        let err = exec_do_parallel(&mut interp, first_do(&p), &plan, 1, 100, 1).unwrap_err();
        assert!(matches!(err, Abort::Exec(_)), "got {err:?}");
    }

    #[test]
    fn in_place_request_survives_i64_max_adjacent_offset() {
        // `hi + off` has no i64 representation: the prepare step must
        // downgrade (not overflow) and the write-log worker then
        // reproduces the out-of-bounds error the sequential run hits.
        let src = "program t
             integer i
             real y(100)
             do i = 1, 100
               y(i + 9223372036854775800) = i
             enddo
             end";
        let p = parse_program(src).unwrap();
        let plan = ParallelPlan {
            strategy: ExecutionStrategy::InPlaceDisjoint,
            ..ParallelPlan::with_threads(4)
        };
        let mut interp = live(&p);
        let err = exec_do_parallel(&mut interp, first_do(&p), &plan, 1, 100, 1).unwrap_err();
        assert!(matches!(err, Abort::Exec(_)), "got {err:?}");
    }

    #[test]
    fn concat_strategy_commits_positionally() {
        // FIG1B-style gather: workers buffer their appends privately
        // and the commit concatenates them in chunk order, which *is*
        // sequential order.
        let src = "program t
             integer i, q, ind(100)
             do i = 1, 100
               if (i - (i / 2) * 2 > 0) then
                 q = q + 1
                 ind(q) = i
               endif
             enddo
             end";
        let p = parse_program(src).unwrap();
        let plan = ParallelPlan {
            strategy: ExecutionStrategy::PrivatizeAndConcat,
            ..ParallelPlan::with_threads(4)
        };
        let mut interp = live(&p);
        let got = exec_do_parallel(&mut interp, first_do(&p), &plan, 1, 100, 1).unwrap();
        assert_eq!(got.strategy, ExecutionStrategy::PrivatizeAndConcat);
        // Typed, through the append sink.
        assert_eq!((got.chunks, interp.probe.typed_root_iters), (4, 100));
        let seq = Interp::new(&p).run().unwrap();
        let q = p.symbols.lookup("q").unwrap();
        let ind = p.symbols.lookup("ind").unwrap();
        assert_eq!(interp.store.scalar(q), Value::Int(50));
        assert_eq!(interp.store.scalar(q), seq.store.scalar(q));
        assert_eq!(
            interp.store.array_as_reals(ind),
            seq.store.array_as_reals(ind)
        );
    }

    /// Hole-freedom is never re-proven statically: an increment
    /// without its write is caught by the append sink's position rule,
    /// and the dispatch aborts with the master untouched.
    #[test]
    fn a_hole_in_the_appends_is_a_violation_under_the_typed_sink() {
        let src = "program t
             integer i, q, ind(100)
             do i = 1, 100
               q = q + 1
               if (i - (i / 2) * 2 > 0) then
                 ind(q) = i
               endif
             enddo
             end";
        let p = parse_program(src).unwrap();
        let plan = ParallelPlan {
            strategy: ExecutionStrategy::PrivatizeAndConcat,
            ..ParallelPlan::with_threads(2)
        };
        let mut interp = live(&p);
        let before = interp.store.clone();
        let err = exec_do_parallel(&mut interp, first_do(&p), &plan, 1, 100, 1).unwrap_err();
        let ind = p.symbols.lookup("ind");
        assert_eq!(err, Abort::Fallback(FallbackReason::Strategy, ind));
        assert_eq!(interp.store, before);
        assert_eq!(interp.stats.total_cost, 0);
    }

    /// A concat nest that also stores to an independent array commits
    /// append buffers beside a logged column. The commit checks the
    /// appends first, then the logged claims: a conflict on the other
    /// array fails the dispatch, and so does an overrun of the target,
    /// which outranks it. Neither failure leaves a trace in the master.
    #[test]
    fn a_concat_commit_beside_a_logged_array_validates_both_before_writing() {
        let src = |extent: usize, store: &str| {
            format!(
                "program t
                 integer i, q, ind({extent})
                 real y(100)
                 do i = 1, 100
                   {store}
                   if (i - (i / 2) * 2 > 0) then
                     q = q + 1
                     ind(q) = i
                   endif
                 enddo
                 end"
            )
        };
        let dispatch = |src: &str, threads: usize| {
            let p = parse_program(src).unwrap();
            let plan = ParallelPlan {
                strategy: ExecutionStrategy::PrivatizeAndConcat,
                ..ParallelPlan::with_threads(threads)
            };
            let mut interp = live(&p);
            let before = interp.store.clone();
            let res = exec_do_parallel(&mut interp, first_do(&p), &plan, 1, 100, 1);
            let versions =
                |st: &Store| ["y", "ind"].map(|a| st.array_version(p.symbols.lookup(a).unwrap()));
            if res.is_ok() {
                assert_eq!(interp.store, Interp::new(&p).run().unwrap().store);
            } else {
                assert_eq!(interp.store, before);
                assert_eq!(versions(&interp.store), versions(&before));
            }
            res.map(|c| (c.strategy, c.chunks))
        };
        let mixed = src(100, "y(i) = i * 0.5");
        for threads in [1, 2, 4] {
            let expected = (ExecutionStrategy::PrivatizeAndConcat, threads as u64);
            assert_eq!(dispatch(&mixed, threads).unwrap(), expected);
        }
        let var = |name| parse_program(&mixed).unwrap().symbols.lookup(name);
        // Every chunk stores to `y(1)`: a conflict on `y`.
        let got = dispatch(&src(100, "y(1) = i"), 2);
        assert_eq!(
            got,
            Err(Abort::Fallback(FallbackReason::Conflict, var("y")))
        );
        // Each chunk's 25 appends fit `ind(30)`, their 50 together do
        // not: the violation on the target outranks the conflict.
        let got = dispatch(&src(30, "y(1) = i"), 2);
        assert_eq!(
            got,
            Err(Abort::Fallback(FallbackReason::Strategy, var("ind")))
        );
    }

    /// One worker over iterations `3 ..= hi` of `do i = 1, 8` of
    /// `body`, its window on `x` narrower than the chunk: elements 3..=6
    /// of 8. The dispatch can only hand a worker the window of its own
    /// chunk (and re-derives the shapes first), so these tests drive the
    /// typed loop directly. Returns how the chunk ended, the root
    /// iterations it started, and `x`.
    fn narrowed_chunk(body: &str, hi: i64) -> (Result<(), Abort>, u64, Vec<f64>) {
        let src = format!(
            "program t
             integer i, k, idx(8)
             real x(8), y(8)
             do i = 1, 8
               {body}
             enddo
             end"
        );
        let p = parse_program(&src).unwrap();
        let x = p.symbols.lookup("x").unwrap();
        let mut worker = live(&p);
        let slice = worker.store.payload_raw(x);
        let cb = worker.compiled_body_for(first_do(&p)).unwrap();
        let mut sink = |a: VarId| match a == x {
            true => WriteSink::Window(InPlaceWindow {
                slice,
                lo: 2,
                len: 4,
            }),
            false => WriteSink::Direct(worker.store.payload_raw(a)),
        };
        let slots = cb.arrays().iter().zip(cb.stored());
        let mut sinks: Vec<_> = slots.map(|(&a, &stored)| stored.then(|| sink(a))).collect();
        let cx = Typed {
            program: &p,
            store: &worker.store,
        };
        let mut st = FState::default();
        let res = st.run(cx, &cb, (3, hi, 1), (worker.fuel, None), &mut sinks);
        let held = worker.store.array_as_reals(x).unwrap();
        (res, st.probe.typed_root_iters, held)
    }

    /// A window pin is a view of the window alone, in every address form
    /// a 1-D target takes (no `IndexN` reaches one), loading and
    /// storing: an access inside the window runs; one outside it but
    /// inside the array is a violation at that access, without touching
    /// memory; one outside the array is still the program's own error,
    /// with the array's extent, not the window's. A load outside the
    /// window is a violation too, never a value: the element may be
    /// another chunk's to write.
    #[test]
    fn every_address_form_is_confined_to_the_window() {
        let outside = ExecError::OutOfBounds {
            array: "x".to_string(),
            index: 9,
            extent: 8,
        };
        for form in ["x(k)", "x(i + D)", "x(idx(i))"] {
            for load in [false, true] {
                // Inside the window, outside it, outside the array: the
                // chunk's last iteration, the subscript's shift `D`, and
                // the root iterations started.
                for (hi, d, typed) in [(6, 0, 4), (8, 0, 5), (8, 6, 1)] {
                    let at = form.replace('D', &d.to_string());
                    let access = match load {
                        true => format!("y(i) = {at} + 1.0\n x(3) = 0.5"),
                        false => format!("{at} = i * 1.5"),
                    };
                    let body = format!("k = i + {d}\n idx(i) = k\n {access}");
                    let (res, typed_iters, x) = narrowed_chunk(&body, hi);
                    let ended = match (hi, d) {
                        (6, _) => res.is_ok(),
                        (_, 0) => matches!(res, Err(Abort::Fallback(FallbackReason::Strategy, _))),
                        _ => matches!(&res, Err(Abort::Exec(e)) if *e == outside),
                    };
                    assert!(ended, "{body}: {res:?}");
                    assert_eq!(typed_iters, typed, "{body}");
                    // Nothing is written outside the window.
                    let stored = match (load, d) {
                        (_, 6) => [0.0; 8],
                        (true, _) => [0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0],
                        (false, _) => [0.0, 0.0, 4.5, 6.0, 7.5, 9.0, 0.0, 0.0],
                    };
                    assert_eq!(x, stored, "{body}");
                }
            }
        }
    }

    /// A stream takes a LINEAR range only when both its ends pass the
    /// window's own check: over a window two elements short of the
    /// chunk it declines, and the per-iteration stores run up to the
    /// same refused access, on the same array.
    #[test]
    fn a_stream_declines_a_window_its_range_does_not_fit() {
        let (res, typed_iters, x) = narrowed_chunk("x(i) = y(i) * 1.5 + 0.25", 8);
        assert!(
            matches!(res, Err(Abort::Fallback(FallbackReason::Strategy, _))),
            "{res:?}"
        );
        assert_eq!(typed_iters, 5);
        assert_eq!(x, [0.0, 0.0, 0.25, 0.25, 0.25, 0.25, 0.0, 0.0]);
    }

    fn ints(data: &[i64]) -> ArrayData {
        ArrayData::Int {
            data: data.to_vec().into(),
            dims: [data.len()].into(),
        }
    }

    fn reals(data: &[f64]) -> ArrayData {
        ArrayData::Real {
            data: data.to_vec().into(),
            dims: [data.len()].into(),
        }
    }

    fn bits(st: &Store, a: VarId) -> Vec<u64> {
        let held = st.array_as_reals(a).expect("materialized");
        held.iter().map(|v| v.to_bits()).collect()
    }

    /// The colscale shape over four segments of `c(8)`: every access
    /// is `c(ptr(i) + j - 1)`, read-modify-write.
    const SEGMENT_WALK: &str = "program t
         integer i, j, ptr(5), len(4)
         real c(8), x(4)
         do i = 1, 4
           do j = 1, len(i)
             c(ptr(i) + j - 1) = c(ptr(i) + j - 1) * 0.5 + 1.0
           enddo
           x(i) = 1.0 / c(ptr(i))
         enddo
         end";

    /// An in-place request for [`SEGMENT_WALK`] over two chunks (rows
    /// 1–2 and 3–4) with the given `ptr`, `len` and `c`; returns the
    /// master, the sequential interpreter after the same loop, and the
    /// dispatch's result.
    fn segment_walk<'p>(
        p: &'p Program,
        ptr: &[i64],
        len: &[i64],
        c: &[f64],
        fault: Option<FaultKind>,
    ) -> (Interp<'p>, Interp<'p>, Result<Committed, Abort>) {
        let var = |name: &str| p.symbols.lookup(name).unwrap();
        let fresh = || {
            let mut it = Interp::new(p);
            it.preset_array(var("ptr"), ints(ptr));
            it.preset_array(var("len"), ints(len));
            it.preset_array(var("c"), reals(c));
            it.allocate_arrays();
            it
        };
        let mut seq = fresh();
        let _ = seq.exec_stmt(first_do(p));
        let plan = ParallelPlan {
            privatized: vec![var("j")].into(),
            strategy: ExecutionStrategy::InPlaceDisjoint,
            fault,
            ..ParallelPlan::with_threads(2)
        };
        let mut master = fresh();
        let res = exec_do_parallel(&mut master, first_do(p), &plan, 1, 4, 1);
        (master, seq, res)
    }

    #[test]
    fn offset_length_segments_commit_in_place_through_windows_read_off_ptr() {
        let p = parse_program(SEGMENT_WALK).unwrap();
        let c = p.symbols.lookup("c").unwrap();
        let held = [0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5];
        // Windows [1, 6) and [6, 9); row 3 is empty.
        let (master, seq, res) = segment_walk(&p, &[1, 3, 6, 6, 9], &[2, 3, 0, 3], &held, None);
        let got = res.unwrap();
        assert_eq!(got.strategy, ExecutionStrategy::InPlaceDisjoint);
        assert_eq!(got.chunks, 2);
        // (The stores differ in the privatized `j` alone.)
        let x = p.symbols.lookup("x").unwrap();
        let same = |master: &Interp<'_>, seq: &Interp<'_>| {
            [c, x].map(|a| bits(&master.store, a)) == [c, x].map(|a| bits(&seq.store, a))
        };
        assert!(same(&master, &seq));
        assert_eq!(
            master.store.array_version(c),
            2,
            "the preset, and one bump for the commit"
        );
        // Disjoint segments in another order: the boundaries `ptr(1)`,
        // `ptr(3)`, `ptr(5)` = 5, 1, 5 do not rise, so no windows tile
        // the dispatch — the write-log runs it, as correctly.
        let (master, seq, res) = segment_walk(&p, &[5, 7, 1, 3, 5], &[2, 2, 2, 2], &held, None);
        assert_eq!(res.unwrap().strategy, ExecutionStrategy::WriteLog);
        assert!(same(&master, &seq));
        // Boundaries past the target's end: the write-log reproduces
        // the program's own error.
        let (_, _, res) = segment_walk(&p, &[1, 3, 6, 8, 11], &[2, 3, 2, 3], &held, None);
        assert!(
            matches!(res, Err(Abort::Exec(ExecError::OutOfBounds { .. }))),
            "{res:?}"
        );
    }

    /// Row 2 is one element longer than its segment: it walks into
    /// `c(5)`, the first element of the second chunk's window. The
    /// window refuses (a violation), so the second chunk — whose empty
    /// row 3 divides by `c(5)` — still finds the 0.0 a sequential run
    /// would have overwritten by then, and fails with a division by
    /// zero the program does not have. The dispatch reports the
    /// violation, not that error, and hands back `c` as it found it.
    #[test]
    fn a_chunk_that_violates_beside_one_that_errors_is_a_fallback_and_the_target_is_undone() {
        let p = parse_program(SEGMENT_WALK).unwrap();
        let c = p.symbols.lookup("c").unwrap();
        let held = [0.5, 1.5, 2.5, 3.5, 0.0, 5.5, 6.5, 7.5];
        let (master, seq, res) = segment_walk(&p, &[1, 3, 5, 5, 7], &[2, 3, 0, 2], &held, None);
        assert_eq!(res, Err(Abort::Fallback(FallbackReason::Strategy, Some(c))));
        assert_eq!(master.store.array_as_reals(c).unwrap(), held);
        assert_eq!(master.store.array_version(c), 1);
        assert_eq!(master.stats.total_cost, 0);
        // The sequential run completes: `c(5)` is 1.0 by row 3.
        let x = p.symbols.lookup("x").unwrap();
        assert_eq!(seq.store.array_as_reals(x).unwrap()[2], 1.0);
    }

    /// The same overreach, with the second chunk *branching* on the
    /// `c(5)` it should not have seen: still 0.0, so it sets `x(3)`,
    /// which the sequential run (1.0 there by row 3) never does. No
    /// fallback rewrites a conditionally written `x`, and the nest
    /// reads a target, so `x` was copied aside like `c` and goes back.
    #[test]
    fn a_stray_write_beside_a_violation_is_undone() {
        let src = SEGMENT_WALK.replace(
            "x(i) = 1.0 / c(ptr(i))",
            "if (c(ptr(i)) < 0.5) then\n x(i) = 1.0\n endif",
        );
        let p = parse_program(&src).unwrap();
        let x = p.symbols.lookup("x").unwrap();
        let held = [0.5, 1.5, 2.5, 3.5, 0.0, 5.5, 6.5, 7.5];
        let (master, seq, res) = segment_walk(&p, &[1, 3, 5, 5, 7], &[2, 3, 0, 2], &held, None);
        let c = p.symbols.lookup("c");
        assert_eq!(res, Err(Abort::Fallback(FallbackReason::Strategy, c)));
        assert_eq!(master.store.array_as_reals(x).unwrap(), [0.0; 4]);
        assert_eq!(seq.store.array_as_reals(x).unwrap(), [0.0; 4]);
        // Without the overreach the same request commits, `x` included.
        let (master, seq, res) = segment_walk(&p, &[1, 3, 5, 5, 7], &[2, 2, 0, 2], &held, None);
        assert_eq!(res.unwrap().strategy, ExecutionStrategy::InPlaceDisjoint);
        assert_eq!(bits(&master.store, x), bits(&seq.store, x));
        assert_eq!(seq.store.array_as_reals(x).unwrap(), [0.0, 0.0, 1.0, 0.0]);
    }

    /// The rule itself, on results no schedule of today produces: the
    /// erroring chunk *ahead* of the violating one in chunk order.
    #[test]
    fn a_violation_in_any_chunk_outranks_an_error_from_any_other() {
        let p = parse_program("program t\n real c(2)\n end").unwrap();
        let c = p.symbols.lookup("c").unwrap();
        let violated = || Abort::Fallback(FallbackReason::Strategy, Some(c));
        let mut chunks = [Abort::Exec(ExecError::DivisionByZero), violated()].map(|abort| Chunk {
            failed: Some(abort),
            ..Chunk::default()
        });
        assert_eq!(failure(&mut chunks), Some(violated()));
    }

    /// Every failure after hand-off finds the read-modify-write target
    /// half-updated in the master's buffer, and every one of them must
    /// leave it as it was: the sequential fallback would otherwise
    /// apply `c * 0.5 + 1.0` a second time.
    #[test]
    fn a_failed_in_place_dispatch_puts_a_read_target_back() {
        let p = parse_program(SEGMENT_WALK).unwrap();
        let c = p.symbols.lookup("c").unwrap();
        let held = [0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5];
        for fault in [
            FaultKind::ForgeConflict,
            FaultKind::PanicWorker { worker: 1 },
        ] {
            let (master, seq, res) =
                segment_walk(&p, &[1, 3, 6, 6, 9], &[2, 3, 0, 3], &held, Some(fault));
            assert!(matches!(res, Err(Abort::Fallback(..))), "{fault:?}");
            assert_eq!(master.store.array_as_reals(c).unwrap(), held, "{fault:?}");
            assert_ne!(bits(&seq.store, c), bits(&master.store, c));
        }
    }

    /// `b(p(i)) = ...`: chunks write disjoint sets exactly when `p` is
    /// injective on the section, which only the index scan's facts
    /// say — absent, stale, too short, about another array, issued on
    /// another store or not injective, the same request runs under the
    /// write-log and never writes `b` through the master's buffer.
    #[test]
    fn a_scatter_commits_in_place_only_under_live_injective_facts() {
        let src = "program t
             integer i, p(8), q(8)
             real b(8), x(8)
             do i = 1, 8
               b(p(i)) = x(i) * 2.0
             enddo
             p(8) = p(8)
             end";
        let p = parse_program(src).unwrap();
        let var = |name: &str| p.symbols.lookup(name).unwrap();
        let body = &p.procedure(p.main()).body;
        let (lp, touch_p) = (body[0], body[1]);
        let fresh = || {
            let mut it = Interp::new(&p);
            it.preset_array(var("p"), ints(&[3, 1, 4, 8, 5, 2, 6, 7]));
            it.preset_array(var("q"), ints(&[3, 1, 4, 8, 5, 2, 6, 7]));
            it.preset_array(var("x"), reals(&[0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5]));
            it.allocate_arrays();
            it
        };
        let mut seq = fresh();
        seq.exec_stmt(lp).unwrap();
        let dispatch = |master: &mut Interp<'_>, facts: Vec<IndexFacts>| {
            let plan = ParallelPlan {
                strategy: ExecutionStrategy::InPlaceDisjoint,
                facts: facts.into(),
                ..ParallelPlan::with_threads(3)
            };
            let got = exec_do_parallel(master, lp, &plan, 1, 8, 1).unwrap();
            assert_eq!(bits(&master.store, var("b")), bits(&seq.store, var("b")));
            got.strategy
        };
        let certify = |it: &Interp<'_>, a: &str, lo, hi| {
            let facts = IndexFacts::scan(&it.store, var(a), None, lo, hi).expect("in bounds");
            assert!(facts.injective(), "{a}({lo}..={hi}) is injective");
            facts
        };
        let mut master = fresh();
        let whole = certify(&master, "p", 1, 8);
        assert_eq!(
            dispatch(&mut master, vec![whole]),
            ExecutionStrategy::InPlaceDisjoint
        );
        // Facts over more than the section cover it.
        let mut master = fresh();
        master.preset_array(var("p"), ints(&[3, 1, 4, 8, 5, 2, 6, 7, 9]));
        let wider = certify(&master, "p", 1, 9);
        assert_eq!(
            dispatch(&mut master, vec![wider]),
            ExecutionStrategy::InPlaceDisjoint
        );
        for refused in ["none", "short", "other array", "other store", "stale"] {
            let mut master = fresh();
            let facts = match refused {
                "none" => vec![],
                "short" => vec![certify(&master, "p", 1, 7)],
                "other array" => vec![certify(&master, "q", 1, 8)],
                // Same program, same write count, not the store scanned.
                "other store" => vec![certify(&fresh(), "p", 1, 8)],
                _ => {
                    // Certified, then `p` is written (the same value:
                    // the version moves, which is all the executor may
                    // go by).
                    let stale = certify(&master, "p", 1, 8);
                    master.exec_stmt(touch_p).unwrap();
                    vec![stale]
                }
            };
            assert_eq!(
                dispatch(&mut master, facts),
                ExecutionStrategy::WriteLog,
                "{refused}"
            );
        }
        // Facts that cover the section but found a duplicate are no
        // licence either: the request takes the write-log, whose commit
        // catches the two chunks writing `b(3)`.
        let mut master = fresh();
        master.preset_array(var("p"), ints(&[3, 1, 4, 8, 5, 2, 6, 3]));
        let duplicate = IndexFacts::scan(&master.store, var("p"), None, 1, 8).expect("in bounds");
        assert!(!duplicate.injective() && duplicate.covers(&master.store, var("p"), 1, 8));
        let plan = ParallelPlan {
            strategy: ExecutionStrategy::InPlaceDisjoint,
            facts: [duplicate].into(),
            ..ParallelPlan::with_threads(3)
        };
        let got = exec_do_parallel(&mut master, lp, &plan, 1, 8, 1);
        assert!(got.is_err(), "{got:?}");
    }

    /// A scatter into `b` beside `y(i) = y(i) + i`, a target the nest
    /// reads: unconditional, or under a branch on `y`.
    fn scatter_beside_a_read_target(conditional: bool) -> String {
        let scatter = match conditional {
            false => "b(p(i)) = y(i)",
            true => "if (y(i) > 2.0) then\n b(p(i)) = y(i)\n endif",
        };
        format!(
            "program t
             integer i, p(8)
             real b(8), y(8)
             do i = 1, 8
               y(i) = y(i) + i
               {scatter}
             enddo
             end"
        )
    }

    /// A master for [`scatter_beside_a_read_target`]'s program with the
    /// presets `p`, a permutation, and `y`, and an in-place plan of
    /// `threads` chunks under the facts the index scan issues for `p`.
    fn scatter_master<'p>(
        p: &'p Program,
        y: &ArrayData,
        threads: usize,
    ) -> (Interp<'p>, ParallelPlan) {
        let var = |name: &str| p.symbols.lookup(name).unwrap();
        let mut it = Interp::new(p);
        it.preset_array(var("p"), ints(&[3, 1, 4, 8, 5, 2, 6, 7]));
        it.preset_array(var("y"), y.clone());
        it.allocate_arrays();
        let facts = IndexFacts::scan(&it.store, var("p"), None, 1, 8);
        let plan = ParallelPlan {
            strategy: ExecutionStrategy::InPlaceDisjoint,
            facts: facts.into_iter().collect(),
            ..ParallelPlan::with_threads(threads)
        };
        (it, plan)
    }

    /// A scatter target has no window, and needs none to be undone: in
    /// a nest that reads another target it runs in place whether every
    /// iteration writes its cell (whatever a chunk did, the fallback
    /// does again) or a branch decides (the target keeps its old
    /// payload as its undo image, like the read target beside it). Each
    /// commits all three chunks and bumps each target's version once.
    #[test]
    fn a_scatter_beside_a_read_target_runs_in_place_written_or_not() {
        for conditional in [false, true] {
            let p = parse_program(&scatter_beside_a_read_target(conditional)).unwrap();
            let var = |name: &str| p.symbols.lookup(name).unwrap();
            let y = reals(&[0.5; 8]);
            let (mut seq, _) = scatter_master(&p, &y, 1);
            seq.exec_stmt(first_do(&p)).unwrap();
            let (mut master, plan) = scatter_master(&p, &y, 3);
            let got = exec_do_parallel(&mut master, first_do(&p), &plan, 1, 8, 1).unwrap();
            assert_eq!(
                (got.strategy, got.chunks),
                (ExecutionStrategy::InPlaceDisjoint, 3),
                "conditional: {conditional}"
            );
            for a in ["b", "y"] {
                assert_eq!(bits(&master.store, var(a)), bits(&seq.store, var(a)), "{a}");
                assert_eq!(master.store.array_version(var(a)), 2, "{a}");
            }
            assert!(!master.store.array(var("y")).shares_buffer(&y));
        }
    }

    /// The conditional scatter of
    /// [`a_scatter_beside_a_read_target_runs_in_place_written_or_not`],
    /// which commits in place at 1, 2 and 4 chunks, with its last chunk
    /// panicking: the chunks before it wrote both targets through the
    /// master's buffers, and the dispatch hands back the master as it
    /// found it, bit for bit and version for version — each target its
    /// own old payload, so the read target shares its buffer with the
    /// preset again.
    #[test]
    fn a_failed_dispatch_puts_back_a_conditional_scatter_and_the_read_target_beside_it() {
        let p = parse_program(&scatter_beside_a_read_target(true)).unwrap();
        let var = |name: &str| p.symbols.lookup(name).unwrap();
        let y = reals(&[0.5; 8]);
        for threads in [1, 2, 4] {
            let (mut master, plan) = scatter_master(&p, &y, threads);
            let got = exec_do_parallel(&mut master, first_do(&p), &plan, 1, 8, 1).unwrap();
            assert_eq!(got.strategy, ExecutionStrategy::InPlaceDisjoint);
            let (mut master, plan) = scatter_master(&p, &y, threads);
            let plan = ParallelPlan {
                fault: Some(FaultKind::PanicWorker {
                    worker: threads - 1,
                }),
                ..plan
            };
            let held = observed(&p, &master);
            let b = master.store.array(var("b")).clone();
            let got = exec_do_parallel(&mut master, first_do(&p), &plan, 1, 8, 1);
            let panicked = Err(Abort::Fallback(FallbackReason::Panic, None));
            assert_eq!(got, panicked, "{threads} chunk(s)");
            assert_eq!(observed(&p, &master), held, "{threads} chunk(s)");
            assert!(master.store.array(var("y")).shares_buffer(&y));
            assert!(master.store.array(var("b")).shares_buffer(&b));
        }
    }

    #[test]
    fn concat_request_that_does_not_rederive_is_refused_not_committed() {
        // Non-unit pointer increment fails the shape derivation, so the
        // dispatch downgrades to the write-log — where `q` is no longer
        // the exempt append pointer but a scalar every chunk assigns,
        // and the dispatch is refused before any chunk runs instead of
        // committing wrong results.
        let src = "program t
             integer i, q, ind(300)
             do i = 1, 100
               q = q + 2
               ind(q) = i
             enddo
             end";
        let p = parse_program(src).unwrap();
        let plan = ParallelPlan {
            strategy: ExecutionStrategy::PrivatizeAndConcat,
            ..ParallelPlan::with_threads(4)
        };
        let mut interp = live(&p);
        let err = exec_do_parallel(&mut interp, first_do(&p), &plan, 1, 100, 1).unwrap_err();
        let q = p.symbols.lookup("q");
        assert_eq!(err, Abort::Fallback(FallbackReason::Unsupported, q));
        assert_eq!(interp.store, live(&p).store);
    }

    #[test]
    fn zero_trip_commits_under_planned_strategy() {
        let src = "program t
             integer i
             real x(10)
             do i = 5, 1
               x(i) = i
             enddo
             end";
        let p = parse_program(src).unwrap();
        let plan = ParallelPlan {
            strategy: ExecutionStrategy::InPlaceDisjoint,
            ..ParallelPlan::with_threads(4)
        };
        let mut interp = live(&p);
        let got = exec_do_parallel(&mut interp, first_do(&p), &plan, 5, 1, 1).unwrap();
        assert_eq!(got.strategy, ExecutionStrategy::InPlaceDisjoint);
        let i = p.symbols.lookup("i").unwrap();
        assert_eq!(interp.store.scalar(i), Value::Int(5));
    }

    #[test]
    fn merge_cost_tracks_writes_not_store_size() {
        // Identical 16-element write sets against a small and a large
        // store must commit identical claims — the structural guarantee
        // behind the merge's `O(total writes)`: 16 distinct locations of
        // `y`, nothing of the array the chunks only read.
        for n in [512usize, 8192] {
            let src = format!(
                "program t
                 integer i
                 real big({n}), y(16)
                 do i = 1, 16
                   y(i) = big(i) + i
                 enddo
                 end"
            );
            let p = parse_program(&src).unwrap();
            let (master, res) = dispatch_first_do(&p, &ParallelPlan::with_threads(2));
            assert_eq!(res.unwrap().strategy, ExecutionStrategy::WriteLog);
            let version = |name| master.store.array_version(p.symbols.lookup(name).unwrap());
            assert_eq!(
                (version("y"), version("big")),
                (1 + 16, 1),
                "store size n={n}"
            );
        }
    }

    /// Every sequence of `len` values from `alphabet` that does not fall.
    fn rising(alphabet: &[i64], len: usize) -> Vec<Vec<i64>> {
        let mut out = vec![Vec::new()];
        for _ in 0..len {
            let longer = out.iter().flat_map(|seq: &Vec<i64>| {
                let floor = seq.last().copied().unwrap_or(i64::MIN);
                let next = alphabet.iter().filter(move |&&v| v >= floor);
                next.map(move |&v| [seq.as_slice(), &[v]].concat())
            });
            out = longer.collect();
        }
        out
    }

    /// The small-scope check of the windows a dispatch confines its
    /// in-place chunks to, against brute-force write sets: every chunk
    /// count from 1 to 4 over
    ///
    /// - an affine target `a(i + off)`, `off` in −2 … 2, at every
    ///   `lo..=hi` of up to five iterations from −1 to one past the end;
    /// - a segment target `a(ptr(i) + j - 1)`, `j` in `1..=ptr(i+1) -
    ///   ptr(i)`, over every non-decreasing `ptr` of length ≤ 5 with
    ///   values in −1 … 6 and every run of rows inside it;
    /// - a scatter target `a(idx(i + off))` over every `idx` of length ≤
    ///   4 with values in 1 … 4, `off` in −1 … 1, under the facts the
    ///   index scan issues for exactly the section, for the whole array,
    ///   and under none;
    ///
    /// each into targets of 0 to 6 elements. Where a chunk's set — the
    /// flat indices its iterations write — leaves the array, there are no
    /// windows; otherwise every window lies inside the array and holds
    /// exactly its chunk's set, and the windows of one target are
    /// pairwise disjoint. A scatter's windows are the whole array, and
    /// exist exactly under facts that cover the section and say it is
    /// injective, which makes the chunks' sets disjoint instead; an
    /// index outside the array is the program's own error at the access,
    /// which the whole-array window raises.
    #[test]
    fn the_windows_hold_exactly_what_each_chunk_writes_on_a_small_scope() {
        let p = parse_program("program t\n integer ptr(1), idx(1)\n real a(1)\n end").unwrap();
        let var = |name: &str| p.symbols.lookup(name).unwrap();
        let (a, ptr, idx) = (var("a"), var("ptr"), var("idx"));
        let mut checked = 0u64;
        // Checks `chunk_windows` for one target over `lo..=hi` against
        // `writes`, the flat indices iteration `i` writes (`i64`, so one
        // outside the array is representable).
        let mut check = |store: &Store,
                         shape: WriteShape,
                         facts: &[IndexFacts],
                         (lo, hi): (i64, i64),
                         writes: &dyn Fn(i64) -> Vec<i64>| {
            let target = InPlaceTarget {
                array: a,
                shape,
                read: false,
                always_written: false,
            };
            let len = store.array(a).len() as i64;
            for threads in 1..=4 {
                let chunks = Chunks::new(lo, (hi - lo + 1) as usize, threads);
                let sets: Vec<Vec<i64>> = chunks
                    .iter()
                    .map(|(clo, chi)| (clo..=chi).flat_map(writes).collect())
                    .collect();
                let leaves = sets.iter().flatten().any(|&k| k < 0 || k >= len);
                let mut windows = Vec::new();
                let got = chunk_windows(store, &target, facts, chunks, &mut windows);
                checked += 1;
                let case = format!("{shape:?} over {lo}..={hi} in {threads} chunk(s), len {len}");
                let WriteShape::Scatter { index, off } = shape else {
                    assert_eq!(got.is_none(), leaves, "{case}: {windows:?}");
                    if leaves {
                        continue;
                    }
                    assert_eq!(windows.len(), chunks.count, "{case}");
                    let mut owner = vec![None; len as usize];
                    for (t, (&(from, n), set)) in windows.iter().zip(&sets).enumerate() {
                        let end = from.checked_add(n).filter(|&end| end as i64 <= len);
                        let end = end.unwrap_or_else(|| panic!("{case}: {windows:?} leaves"));
                        let mut held: Vec<i64> = (from..end).map(|k| k as i64).collect();
                        let mut set = set.clone();
                        set.sort_unstable();
                        set.dedup();
                        held.sort_unstable();
                        assert_eq!(held, set, "{case}: chunk {t}");
                        for (k, owner) in owner.iter_mut().enumerate().take(end).skip(from) {
                            let prior = owner.replace(t);
                            assert!(prior.is_none(), "{case}: {k} in chunks {prior:?}, {t}");
                        }
                    }
                    continue;
                };
                let section = (lo + off, hi + off);
                let live = |f: &&IndexFacts| f.covers(store, index, section.0, section.1);
                let certified = facts.iter().filter(live).any(|f| f.injective());
                assert_eq!(got.is_some(), certified, "{case}: {facts:?}");
                if certified {
                    assert_eq!(windows, vec![(0, len as usize); chunks.count], "{case}");
                    let mut all: Vec<i64> = sets.concat();
                    let written = all.len();
                    all.sort_unstable();
                    all.dedup();
                    assert_eq!(all.len(), written, "{case}: certified sets overlap");
                }
            }
        };
        for len in 0..=6 {
            let mut store = Interp::new(&p).store;
            store.preset_array(a, reals(&vec![0.5; len]));
            for off in -2..=2 {
                for lo in -1..=len as i64 + 1 {
                    for hi in lo..lo + 5 {
                        let writes = |i: i64| vec![i + off - 1];
                        check(&store, WriteShape::Affine { off }, &[], (lo, hi), &writes);
                    }
                }
            }
            for n in 1..=5 {
                for bounds in rising(&[-1, 0, 1, 2, 3, 4, 5, 6], n) {
                    store.preset_array(ptr, ints(&bounds));
                    // Row `i` writes `a(ptr(i) .. ptr(i + 1) - 1)`.
                    let writes = |i: i64| {
                        let at = |k: i64| bounds[k as usize - 1];
                        (at(i)..at(i + 1)).map(|k| k - 1).collect()
                    };
                    for lo in 1..n as i64 {
                        for hi in lo..n as i64 {
                            check(&store, WriteShape::Segment { ptr }, &[], (lo, hi), &writes);
                        }
                    }
                }
            }
            for n in 1..=4usize {
                for code in 0..4usize.pow(n as u32) {
                    let values: Vec<i64> = (0..n as u32)
                        .map(|k| (code / 4usize.pow(k) % 4) as i64 + 1)
                        .collect();
                    store.preset_array(idx, ints(&values));
                    for off in -1..=1 {
                        let shape = WriteShape::Scatter { index: idx, off };
                        let writes = |i: i64| vec![values[(i + off) as usize - 1] - 1];
                        for lo in 1 - off..=n as i64 - off {
                            for hi in lo..=n as i64 - off {
                                let (slo, shi) = (lo + off, hi + off);
                                let section = IndexFacts::scan(&store, idx, None, slo, shi);
                                let whole = IndexFacts::scan(&store, idx, None, 1, n as i64);
                                for facts in [section, whole, None] {
                                    let facts: Vec<IndexFacts> = facts.into_iter().collect();
                                    check(&store, shape, &facts, (lo, hi), &writes);
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(checked, 1_047_480, "the scope is fixed");
    }

    /// What a dispatch may change of the master: every scalar's and
    /// element's bits, every array's write-version, the per-loop
    /// statistics, the run's counters and the fuel.
    type Observed = (Vec<u64>, Vec<u64>, Vec<(StmtId, u64, u64)>, [u64; 4]);

    fn observed(p: &Program, it: &Interp<'_>) -> Observed {
        let (mut bits, mut versions) = (Vec::new(), Vec::new());
        for (v, info) in p.symbols.iter() {
            if info.is_array() {
                let held = it.store.array_as_reals(v).expect("allocated");
                bits.extend(held.iter().map(|x| x.to_bits()));
                versions.push(it.store.array_version(v));
            } else {
                bits.push(match it.store.scalar(v) {
                    Value::Int(k) => k as u64,
                    Value::Real(x) => x.to_bits(),
                });
            }
        }
        let loops = it.stats.loops.iter();
        let mut loops: Vec<_> = loops
            .map(|(s, l)| (*s, l.invocations, l.total_cost))
            .collect();
        loops.sort_unstable();
        let stats = &it.stats;
        let run = [
            stats.total_cost,
            stats.stream_entries,
            stats.stream_iters,
            it.fuel,
        ];
        (bits, versions, loops, run)
    }

    /// What a dispatch at one chunk count reported, and the master
    /// before and after it.
    type Dispatched = (Result<Committed, String>, Observed, Observed);

    /// Dispatches the last top-level `do` of `src` at each of `counts`
    /// chunks under the plan `plan` builds for the live master (a
    /// scatter's facts are the master store's), with `presets` installed
    /// and everything before the loop run, each on a master of its own.
    /// Returns what each dispatch did, and the master after the same
    /// loop walked sequentially, its privatized scalars put back to
    /// their pre-loop values (a dispatch leaves them there).
    fn at_counts(
        counts: &[usize],
        src: &str,
        presets: &[(&str, ArrayData)],
        plan: &dyn Fn(&Interp<'_>) -> ParallelPlan,
    ) -> (Vec<Dispatched>, Observed) {
        let p = parse_program(src).unwrap();
        let body = &p.procedure(p.main()).body;
        let (&lp, before) = body.split_last().unwrap();
        let live = || {
            let mut it = Interp::new(&p);
            for (name, data) in presets {
                it.preset_array(p.symbols.lookup(name).unwrap(), data.clone());
            }
            it.allocate_arrays();
            for &s in before {
                it.exec_stmt(s).unwrap();
            }
            it
        };
        let dispatched = counts.iter().map(|&threads| {
            let mut it = live();
            let StmtKind::Do { lo, hi, .. } = &p.stmt(lp).kind else {
                unreachable!("a do loop")
            };
            let (lo, hi) = (it.eval(lo).unwrap().as_int(), it.eval(hi).unwrap().as_int());
            let plan = ParallelPlan {
                threads,
                ..plan(&it)
            };
            let held = observed(&p, &it);
            let res = exec_do_parallel(&mut it, lp, &plan, lo, hi, 1);
            (res.map_err(|e| format!("{e:?}")), held, observed(&p, &it))
        });
        let dispatched = dispatched.collect();
        let mut seq = live();
        let private = plan(&seq).privatized;
        let held: Vec<Value> = private.iter().map(|&v| seq.store.scalar(v)).collect();
        // Only committed cases read it; the program's own error ends
        // the walk of a loop whose appends overrun.
        let _ = seq.exec_stmt(lp);
        for (&v, &x) in private.iter().zip(&held) {
            seq.store.set_scalar(v, p.symbols.var(v).ty, x);
        }
        (dispatched, observed(&p, &seq))
    }

    /// Every chunk, one or many, runs over the master's store and writes
    /// nothing of it but its windows; its scalars, cost and counters
    /// reach the master through the commit alone. So a committed
    /// dispatch leaves the same master at 1, 2 and 4 chunks — the same
    /// values bit for bit, the same write-versions (a window target's
    /// one bump, an append target's one per element), statistics, fuel
    /// and commit report — and the values and statistics the sequential
    /// walk leaves, up to its privatized scalars, which keep their
    /// pre-loop values: in place over affine, segment and scatter
    /// targets, by concat, with a real sum reduction, and beside a
    /// privatized scalar. The cases at every count add exactly, so that
    /// splitting the sum changes no bit. A lone chunk leaves the
    /// sequential walk's bits also where they do not: a real sum whose
    /// rebased fold `base + (x - base)` is not `x`, and a segment walk
    /// with an empty row, which reads the next row's window (a real
    /// dependence once the rows are split). Every failure — a window
    /// the rows overrun, a forged conflict, an injected panic, a stall
    /// past the deadline, appends past the extent — leaves the master
    /// as it was before the dispatch, versions, statistics and fuel
    /// included, at every chunk count.
    #[test]
    fn a_dispatch_leaves_the_same_master_at_every_chunk_count() {
        let var = |it: &Interp<'_>, name: &str| it.program().symbols.lookup(name).unwrap();
        let in_place = |it: &Interp<'_>| ParallelPlan {
            privatized: vec![var(it, "j")].into(),
            strategy: ExecutionStrategy::InPlaceDisjoint,
            ..ParallelPlan::with_threads(1)
        };
        let segment = |counts: &[usize], rows: &str, ptr: &[i64], len: &[i64], fault| {
            let src = SEGMENT_WALK.replace("x(i) = 1.0 / c(ptr(i))", rows);
            let presets = [
                ("ptr", ints(ptr)),
                ("len", ints(len)),
                ("c", reals(&[0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5])),
            ];
            let plan = move |it: &Interp<'_>| ParallelPlan {
                fault,
                deadline_ms: Some(5),
                ..in_place(it)
            };
            at_counts(counts, &src, &presets, &plan)
        };
        let affine = |scale: &str, shift: &str| {
            format!(
                "program t
                 integer i, j
                 real s, t, x(101), y(100)
                 s = 0.0 - 3900.5
                 t = 7.0
                 do i = 1, 101
                   x(i) = i * {scale}
                 enddo
                 do i = 1, 100
                   t = x(i + 1) * 2.0
                   x(i + 1) = x(i + 1) * 0.5 + t
                   y(i) = t + {shift}
                   s = s + y(i)
                 enddo
                 end"
            )
        };
        let sum = |it: &Interp<'_>| ParallelPlan {
            privatized: vec![var(it, "t")].into(),
            reductions: vec![(var(it, "s"), ReduceOp::Sum)].into(),
            strategy: ExecutionStrategy::InPlaceDisjoint,
            ..ParallelPlan::with_threads(1)
        };
        let scatter = "program t
             integer i, p(8)
             real b(8), x(8)
             do i = 1, 8
               x(i) = i * 0.25
             enddo
             do i = 1, 8
               b(p(i)) = x(i) * 2.0
             enddo
             end";
        let certified = |it: &Interp<'_>| ParallelPlan {
            strategy: ExecutionStrategy::InPlaceDisjoint,
            facts: IndexFacts::scan(&it.store, var(it, "p"), None, 1, 8)
                .into_iter()
                .collect(),
            ..ParallelPlan::with_threads(1)
        };
        let concat = |extent: usize| {
            format!(
                "program t
                 integer i, q, ind({extent})
                 q = 3
                 do i = 1, 100
                   if (i - (i / 2) * 2 > 0) then
                     q = q + 1
                     ind(q) = i
                   endif
                 enddo
                 end"
            )
        };
        let appends = |_: &Interp<'_>| ParallelPlan {
            strategy: ExecutionStrategy::PrivatizeAndConcat,
            ..ParallelPlan::with_threads(1)
        };
        let every = [1, 2, 4];
        let permutation = [("p", ints(&[3, 1, 4, 8, 5, 2, 6, 7]))];
        let rows = "x(i) = 1.0 / c(ptr(i))";
        let (split, empty) = ([1, 3, 5, 6, 8], [1, 3, 5, 5, 7]);
        let committed = [
            (
                "affine",
                at_counts(&every, &affine("0.25", "1.5"), &[], &sum),
            ),
            (
                "segment",
                segment(&every, rows, &split, &[2, 2, 1, 2], None),
            ),
            (
                "scatter",
                at_counts(&every, scatter, &permutation, &certified),
            ),
            ("concat", at_counts(&every, &concat(60), &[], &appends)),
            (
                "inexact affine",
                at_counts(&[1], &affine("0.37", "1.1"), &[], &sum),
            ),
            (
                "empty row",
                segment(&[1], rows, &empty, &[2, 2, 0, 2], None),
            ),
        ];
        for (case, (at, seq)) in committed {
            let expected = match case {
                "concat" => ExecutionStrategy::PrivatizeAndConcat,
                _ => ExecutionStrategy::InPlaceDisjoint,
            };
            // A stream on the root loop is entered once per chunk: the
            // one counter that tells how the range was split.
            let unsplit = |(bits, versions, loops, [cost, _, iters, fuel]): &Observed| {
                (
                    bits.clone(),
                    versions.clone(),
                    loops.clone(),
                    [*cost, *iters, *fuel],
                )
            };
            for ((res, held, left), chunks) in at.iter().zip(every) {
                let got = res.as_ref().unwrap_or_else(|e| panic!("{case}: {e}"));
                assert_eq!(
                    (got.strategy, got.chunks),
                    (expected, chunks as u64),
                    "{case}"
                );
                assert_eq!(
                    res.as_ref().map(|c| c.cost),
                    at[0].0.as_ref().map(|c| c.cost)
                );
                let same = unsplit(left) == unsplit(&at[0].2);
                assert!(same, "{case} at {chunks} chunk(s): {left:?}");
                assert_ne!(held, left, "{case}: the dispatch changed nothing");
                assert_eq!(
                    (&left.0, &left.2),
                    (&seq.0, &seq.2),
                    "{case} at {chunks} chunk(s): not sequential"
                );
            }
        }
        // The rebased fold is not the identity on the inexact sum, so a
        // lone chunk's final must reach the master as it is.
        let p = parse_program(&affine("0.37", "1.1")).unwrap();
        let seq = Interp::new(&p).run().unwrap();
        let x = seq.store.scalar(p.symbols.lookup("s").unwrap()).as_real();
        assert_ne!(-3900.5 + (x + 3900.5), x);
        // Every target is read, so each has an undo image.
        let rows = "x(i) = x(i) + 1.0";
        let faulty = |len: &[i64], fault| segment(&every, rows, &empty, len, fault);
        let failed = [
            ("violation", faulty(&[2, 2, 0, 3], None)),
            (
                "forged conflict",
                faulty(&[2, 2, 0, 2], Some(FaultKind::ForgeConflict)),
            ),
            (
                "panic",
                faulty(&[2, 2, 0, 2], Some(FaultKind::PanicWorker { worker: 0 })),
            ),
            (
                "stall",
                faulty(
                    &[2, 2, 0, 2],
                    Some(FaultKind::StallWorker {
                        worker: 0,
                        stall_ms: 20,
                    }),
                ),
            ),
            ("overrun", at_counts(&every, &concat(40), &[], &appends)),
        ];
        for (case, (at, _)) in failed {
            for ((res, held, left), chunks) in at.iter().zip(every) {
                let err = res.as_ref().expect_err(case);
                let expected = match case {
                    "violation" => err.starts_with("Fallback(Strategy, Some("),
                    "forged conflict" => err.starts_with("Fallback(Conflict"),
                    "panic" => err.starts_with("Fallback(Panic"),
                    "stall" => err.starts_with("Fallback(Timeout"),
                    // One chunk appends past the extent itself; of more,
                    // each stays inside it and the commit finds the
                    // overrun of their concatenation.
                    _ if chunks == 1 => err.starts_with("Exec(OutOfBounds"),
                    _ => err.starts_with("Fallback(Strategy, Some("),
                };
                assert!(expected, "{case} at {chunks} chunk(s): {err}");
                assert_eq!(
                    held, left,
                    "{case} at {chunks} chunk(s): the master changed"
                );
            }
        }
    }

    /// A filter stream runs in a concat chunk, its appends through the
    /// chunk's append sink: `rowgather`'s shape (an integer target, its
    /// own instantiation) and the catch-all's (a real target) leave the
    /// same master at 1, 2 and 4 chunks, with the sequential walk's
    /// values and statistics, every iteration streamed. A target one
    /// element short still fails as the concat rule says: a lone chunk
    /// with the program's own error, more with the commit's overrun, the
    /// master as it was.
    #[test]
    fn a_filter_stream_appends_through_the_chunks_sinks() {
        let src = |arm: &str, extent: usize| {
            format!(
                "program t
                 integer i, q, key(100), ind({extent})
                 real w(100), out({extent})
                 do i = 1, 100
                   key(i) = mod(i * 7, 5)
                   w(i) = i * 0.5
                 enddo
                 q = 3
                 do i = 1, 100
                   if (key(i) > 2) then
                     q = q + 1
                     {arm}
                   endif
                 enddo
                 end"
            )
        };
        let appends = |_: &Interp<'_>| ParallelPlan {
            strategy: ExecutionStrategy::PrivatizeAndConcat,
            ..ParallelPlan::with_threads(1)
        };
        let every = [1, 2, 4];
        for arm in ["ind(q) = i", "out(q) = w(i)"] {
            // 40 of the 100 iterations append, from `q = 3`.
            let (at, seq) = at_counts(&every, &src(arm, 43), &[], &appends);
            let unsplit = |o: &Observed| (o.0.clone(), o.1.clone(), o.2.clone(), o.3[0], o.3[3]);
            for ((res, held, left), chunks) in at.iter().zip(every) {
                let got = res.as_ref().unwrap_or_else(|e| panic!("{arm}: {e}"));
                let concat = ExecutionStrategy::PrivatizeAndConcat;
                assert_eq!((got.strategy, got.chunks), (concat, chunks as u64));
                assert_eq!(unsplit(left), unsplit(&at[0].2), "{arm} at {chunks}");
                assert_ne!(held, left, "{arm}");
                assert_eq!((&left.0, &left.2), (&seq.0, &seq.2), "{arm} at {chunks}");
                assert_eq!(left.3[2], 100, "{arm} at {chunks}: streamed");
            }
            let (at, _) = at_counts(&every, &src(arm, 42), &[], &appends);
            for ((res, held, left), chunks) in at.iter().zip(every) {
                let err = res.as_ref().expect_err(arm);
                let want = match chunks {
                    1 => "Exec(OutOfBounds",
                    _ => "Fallback(Strategy, Some(",
                };
                assert!(err.starts_with(want), "{arm} at {chunks}: {err}");
                assert_eq!(held, left, "{arm} at {chunks}: the master changed");
            }
        }
    }
}

#[cfg(test)]
mod small_scope;
