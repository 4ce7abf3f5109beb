//! The sequential compiled loop entry, over the backend's two engines.
//!
//! [`Interp::exec_do_compiled`] decides once, at entry, which engine
//! runs the whole range: the typed loop ([`Interp::run_fast_iters`])
//! when it can, else the reference tree-walk. Both engines work on the
//! interpreter's own store, stats and fuel. See the module docs for the
//! parity contract. A parallel worker calls `run_fast_iters` itself.

use super::{ChunkAbort, ChunkEngine, CompiledBody};
use crate::interp::{advance_induction, ExecError, Interp, Value};
use irr_frontend::{StmtId, StmtKind};

impl<'p> Interp<'p> {
    /// Executes the `do` loop `s` as one whole-loop entry, mirroring
    /// the interpreter's sequential `Do` arm: entry counted before the
    /// first iteration, per-iteration induction write, one bookkeeping
    /// charge per iteration, the Fortran final induction value, and the
    /// nest's cost attributed on success only. Reports the engine that
    /// ran the entry.
    ///
    /// A non-empty range whose arrays hold the element types the body
    /// was lowered for runs on the typed loop from its first iteration;
    /// anything else walks the AST.
    pub(crate) fn exec_do_compiled(
        &mut self,
        s: StmtId,
        cb: &CompiledBody,
        lo: i64,
        hi: i64,
        step: i64,
    ) -> Result<ChunkEngine, ExecError> {
        let StmtKind::Do { var, body, .. } = &self.program().stmt(s).kind else {
            unreachable!("a compiled entry is a `do` loop")
        };
        let (var, ty) = (*var, self.layout.ty(*var));
        self.stats.loops.entry(s).or_default().invocations += 1;
        let cost_at_entry = self.stats.total_cost;
        let in_range = |i: i64| (step > 0 && i <= hi) || (step < 0 && i >= hi);
        let engine = if in_range(lo) && self.fast_ready(cb) {
            match self.run_fast_iters(cb, lo, hi, step, None) {
                Ok(()) => ChunkEngine::Typed,
                Err(ChunkAbort::Exec(e)) => return Err(e),
                Err(ChunkAbort::TimedOut | ChunkAbort::Violated(_)) => {
                    unreachable!("only a worker chunk polls a deadline or a strategy sink")
                }
            }
        } else {
            let mut i = lo;
            while in_range(i) {
                self.store.set_scalar(var, ty, Value::Int(i));
                self.exec_body(body)?;
                self.charge(1)?; // loop bookkeeping
                if !advance_induction(&mut i, step) {
                    break;
                }
            }
            // Fortran leaves the induction variable at the first
            // out-of-range value.
            self.store.set_scalar(var, ty, Value::Int(i));
            ChunkEngine::TreeWalk
        };
        let total = self.stats.total_cost - cost_at_entry;
        self.stats.loops.entry(s).or_default().total_cost += total;
        Ok(engine)
    }
}
