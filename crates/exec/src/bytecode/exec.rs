//! The chunk loop: one entry for a sequential compiled loop and for a
//! parallel worker's share of one, over the backend's two engines.
//!
//! At every root-iteration boundary [`Interp::run_chunk`] hands the
//! rest of the range to the typed loop ([`Interp::run_fast_iters`]) if
//! the nest lowered and every array its body references is live;
//! otherwise it runs **one** iteration on the reference tree-walk and
//! looks again. Both engines work on the interpreter's own store,
//! stats and fuel, so they are interchangeable at any boundary. See the
//! module docs for the parity contract.

use super::{ChunkAbort, ChunkEngine, ChunkWatch, CompiledBody};
use crate::interp::{advance_induction, ExecError, Interp, Value};
use irr_frontend::{StmtId, StmtKind};

impl<'p> Interp<'p> {
    /// Executes the `do` loop `s` as one whole-loop chunk, mirroring
    /// the interpreter's sequential `Do` arm: entry counted before the
    /// first iteration, per-iteration logged induction write, one
    /// bookkeeping charge per iteration, the Fortran final induction
    /// value, and the nest's cost attributed on success only. Reports
    /// the engine that finished the entry.
    pub(crate) fn exec_do_compiled(
        &mut self,
        s: StmtId,
        cb: &CompiledBody,
        lo: i64,
        hi: i64,
        step: i64,
    ) -> Result<ChunkEngine, ExecError> {
        match self.run_chunk(s, Some(cb), lo, hi, step, None) {
            Ok(engine) => Ok(engine),
            Err(ChunkAbort::Exec(e)) => Err(e),
            Err(ChunkAbort::TimedOut | ChunkAbort::Violated(_)) => {
                unreachable!("only a worker chunk polls a deadline or a strategy sink")
            }
        }
    }

    /// The one chunk executor: runs root iterations `lo..=hi` (by
    /// `step`) of the `do` loop `s` and reports which engine finished
    /// them. `watch` is `None` for a whole sequential loop entry and
    /// `Some` for one parallel worker's share of the iterations; see
    /// [`ChunkWatch`] for what differs.
    ///
    /// When the nest has a compiled body (`cb`), every iteration
    /// boundary — the one before the first iteration included — checks
    /// its precondition and hands the remaining iterations to the typed
    /// loop as soon as it holds. Iterations before that (some
    /// referenced array not yet materialized), and every iteration of a
    /// chunk without a typed body, walk the AST, so lazy
    /// materialization and the random-fill draws it makes happen in
    /// interpreter order and a scalar is logged only when it is
    /// dynamically written. Fuel, cost, versions and log are kept on
    /// the interpreter directly, so there is nothing to flush at the
    /// hand-over.
    pub(crate) fn run_chunk(
        &mut self,
        s: StmtId,
        cb: Option<&CompiledBody>,
        lo: i64,
        hi: i64,
        step: i64,
        watch: Option<&ChunkWatch>,
    ) -> Result<ChunkEngine, ChunkAbort> {
        let StmtKind::Do { var, body, .. } = &self.program().stmt(s).kind else {
            unreachable!("a chunk is a share of a `do` loop")
        };
        let (var, ty) = (*var, self.layout.ty(*var));
        if watch.is_none() {
            self.stats.loops.entry(s).or_default().invocations += 1;
        }
        let cost_at_entry = self.stats.total_cost;
        let mut i = lo;
        while (step > 0 && i <= hi) || (step < 0 && i >= hi) {
            if let Some(cb) = cb {
                if self.fast_ready(cb) {
                    self.run_fast_iters(s, cb, i, hi, step, cost_at_entry, watch)?;
                    return Ok(ChunkEngine::Typed);
                }
            }
            match watch {
                Some(w) => {
                    w.poll()?;
                    self.store.set_scalar_untracked(var, ty, Value::Int(i));
                }
                None => self.store.set_scalar(var, ty, Value::Int(i)),
            }
            // A violation outranks whatever else the iteration ran
            // into: past one, the chunk may have computed on state the
            // sequential run would not have shown it.
            let ran = self.exec_body(body).and_then(|()| self.charge(1)); // loop bookkeeping
            if watch.is_some() {
                if let Some(v) = self.store.overlay_violation() {
                    return Err(ChunkAbort::Violated(v));
                }
            }
            ran?;
            if !advance_induction(&mut i, step) {
                break;
            }
        }
        if watch.is_none() {
            // Fortran leaves the induction variable at the first
            // out-of-range value.
            self.store.set_scalar(var, ty, Value::Int(i));
            let total = self.stats.total_cost - cost_at_entry;
            self.stats.loops.entry(s).or_default().total_cost += total;
        }
        Ok(ChunkEngine::TreeWalk)
    }
}
