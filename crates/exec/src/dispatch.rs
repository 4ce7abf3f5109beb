//! Loop dispatch hooks: the seam between the interpreter and the
//! hybrid runtime (`irr-runtime`), and the executor's one failure
//! vocabulary.
//!
//! A [`LoopDispatcher`] is consulted at every dynamic entry of every
//! `do` loop, with the bounds evaluated against the live store, and
//! decides per execution how the loop runs ([`LoopDecision`]). A
//! dispatch that does not commit ends in an `Abort`: the program's
//! error, which propagates, or a [`FallbackReason`] the dispatcher is
//! told before the loop runs sequentially — the only failure record
//! that leaves the crate. [`SequentialDispatch`] is the plain
//! interpreter.

use crate::interp::{ExecError, Store};
use crate::parallel::{Committed, ParallelPlan};
use irr_frontend::{StmtId, VarId};

/// How one dynamic execution of a loop should run.
#[derive(Clone, Debug)]
pub enum LoopDecision {
    /// Run the loop through the sequential interpreter.
    Sequential,
    /// Run the loop on the typed loop, single-threaded (see
    /// [`crate::bytecode`]). The interpreter re-lowers the nest from the
    /// AST at dispatch — a cached pure derivation — and runs it typed
    /// from its first iteration. It walks the loop instead, reporting
    /// [`LoopDispatcher::compiled_fallback`], when the nest does not
    /// lower, an array it references holds another element type than
    /// declared, or interpreter-only instrumentation is attached; a
    /// zero-trip entry walks unreported.
    Compiled,
    /// Run the loop through the chunked parallel executor.
    Parallel(ParallelPlan),
}

/// Why a dispatch fell back to the sequential tier: the one failure
/// record that leaves the executor (telemetry's per-reason counters,
/// the chaos suite's attribution). A genuine `ExecError` has no reason
/// code: it is the program's, and propagates instead.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FallbackReason {
    /// Two workers wrote the same location — the schedule was wrong.
    Conflict,
    /// A worker chunk panicked.
    Panic,
    /// The executor cannot run this loop shape: a non-unit step or an
    /// unrepresentable trip count, a nest that does not lower, an array
    /// it references of another element type than declared, or (in
    /// parallel) a scalar it assigns that the commit cannot claim.
    Unsupported,
    /// A worker overran the per-worker deadline (watchdog).
    Timeout,
    /// An execution strategy's runtime self-check failed (an in-place
    /// write left its proven window, append positions broke the
    /// consecutive discipline, or the appends ran past the target).
    Strategy,
    /// The loop carries interpreter-only instrumentation (an attached
    /// access tracer or per-iteration cost recording), so a compiled
    /// dispatch fell back to the instrumented tree-walk.
    Traced,
}

impl FallbackReason {
    /// Short stable name, used in telemetry dumps and bench JSON.
    pub fn name(&self) -> &'static str {
        match self {
            FallbackReason::Conflict => "conflict",
            FallbackReason::Panic => "panic",
            FallbackReason::Unsupported => "unsupported",
            FallbackReason::Timeout => "timeout",
            FallbackReason::Strategy => "strategy",
            FallbackReason::Traced => "traced",
        }
    }
}

/// Why a parallel dispatch, or a typed run, did not finish: what the
/// typed loop's checks, the chunks, the commit and the dispatch all
/// return, and what the interpreter's `Do` arm settles.
#[derive(Debug, PartialEq)]
pub(crate) enum Abort {
    /// The program's own runtime error, which the sequential run raises
    /// too: it propagates.
    Exec(ExecError),
    /// The dispatch's fault: the loop re-runs sequentially under this
    /// reason. The variable is the one it blames, where there is one:
    /// the conflicting or violated array, or the scalar the commit
    /// cannot claim.
    Fallback(FallbackReason, Option<VarId>),
}

impl From<ExecError> for Abort {
    fn from(e: ExecError) -> Self {
        Abort::Exec(e)
    }
}

/// Per-execution loop dispatch. Implementations may inspect the live
/// store (e.g. run an inspector over an index array) before deciding.
pub trait LoopDispatcher {
    /// Decides how to run `loop_stmt` for this execution.
    ///
    /// `lo`, `hi`, and `step` are the loop bounds already evaluated
    /// against the live store (`lo > hi` with `step > 0` means the loop
    /// is zero-trip this time).
    fn dispatch(
        &mut self,
        store: &Store,
        loop_stmt: StmtId,
        lo: i64,
        hi: i64,
        step: i64,
    ) -> LoopDecision;

    /// Notifies the dispatcher that its most recent
    /// [`Parallel`](LoopDecision::Parallel) decision for `loop_stmt`
    /// failed at runtime for `reason`, and the interpreter is
    /// re-executing the loop sequentially on the untouched master
    /// store. Implementations use this to record telemetry and
    /// quarantine the failing schedule; the default is a no-op.
    fn parallel_failed(&mut self, _loop_stmt: StmtId, _reason: FallbackReason) {}

    /// Notifies the dispatcher that a parallel dispatch of `loop_stmt`
    /// committed: which [`ExecutionStrategy`](crate::ExecutionStrategy)
    /// actually ran (the executor may have downgraded the planned
    /// strategy to the write-log if its own derivation could not
    /// re-prove the facts) and which engines its workers finished on.
    /// The default is a no-op.
    fn parallel_committed(&mut self, _loop_stmt: StmtId, _committed: &Committed) {}

    /// Notifies the dispatcher that its most recent
    /// [`Compiled`](LoopDecision::Compiled) decision for `loop_stmt` ran
    /// to completion on the typed loop. The default is a no-op.
    fn compiled_committed(&mut self, _loop_stmt: StmtId) {}

    /// Notifies the dispatcher that a compiled dispatch of `loop_stmt`
    /// fell back to the sequential interpreter for `reason` (the nest
    /// does not lower, an array it references holds another element
    /// type than declared, or interpreter-only instrumentation is
    /// active). The walk that follows is authoritative, and offers the
    /// loop's inner loops to the dispatcher like any other. The default
    /// is a no-op.
    fn compiled_fallback(&mut self, _loop_stmt: StmtId, _reason: FallbackReason) {}
}

/// The trivial dispatcher: every loop runs sequentially. Using it with
/// [`crate::Interp::run_dispatched`] is exactly [`crate::Interp::run`].
pub struct SequentialDispatch;

impl LoopDispatcher for SequentialDispatch {
    fn dispatch(
        &mut self,
        _store: &Store,
        _loop_stmt: StmtId,
        _lo: i64,
        _hi: i64,
        _step: i64,
    ) -> LoopDecision {
        LoopDecision::Sequential
    }
}
