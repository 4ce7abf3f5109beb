//! The chunk loop: one entry for a sequential compiled loop and for a
//! parallel worker's share of one, over the backend's two engines.
//!
//! [`Interp::run_chunk`] decides once, at entry, which engine runs the
//! whole range: the typed loop ([`Interp::run_fast_iters`]) when the
//! nest lowered, else the reference tree-walk. Both engines work on the
//! interpreter's own store, stats and fuel. See the module docs for the
//! parity contract.

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
    /// A non-empty range with a compiled body (`cb`) whose arrays hold
    /// the element types it was lowered for runs on the typed loop from
    /// its first iteration; anything else walks the AST, where a scalar
    /// is logged only when it is dynamically written. Fuel, cost,
    /// versions and log are kept on the interpreter directly.
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
        let in_range = |i: i64| (step > 0 && i <= hi) || (step < 0 && i >= hi);
        if let Some(cb) = cb.filter(|cb| in_range(lo) && self.fast_ready(cb)) {
            self.run_fast_iters(s, cb, lo, hi, step, cost_at_entry, watch)?;
            return Ok(ChunkEngine::Typed);
        }
        let mut i = lo;
        while in_range(i) {
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
