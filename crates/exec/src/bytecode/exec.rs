//! The per-op bytecode dispatch loop — the backend's one untyped
//! executor and its only `match` over [`Op`].
//!
//! Executes [`CompiledBody`] blocks against the interpreter's own
//! store, stats, and fuel — the compiled tier shares every piece of
//! observable state with the tree-walk, so the two tiers are
//! interchangeable mid-run. See the module docs for the parity
//! contract; every arm below cites the interpreter behavior it
//! replicates.
//!
//! Profiled runs and nests the typed specialization cannot type run
//! here for the whole chunk. A typeable chunk — a sequential loop entry
//! or a parallel worker's share of one, both through
//! [`Interp::run_chunk`] — runs here only until every array it
//! references is materialized, then hands over to the typed loop
//! ([`Interp::run_fast_iters`]) at an iteration boundary.

use super::{ChunkAbort, ChunkEngine, ChunkWatch, FastBody};
use crate::interp::{
    advance_induction, apply_bin, apply_intrinsic, ArrayData, ExecError, Interp, Value,
};
use irr_driver::compiled::{CompiledBody, Op, Opnd};
use irr_frontend::{BinOp, StmtId, VarId};

impl<'p> Interp<'p> {
    /// Reads an operand. Scalar slots read the live store — deferred
    /// reads are safe because expressions cannot write scalars.
    #[inline]
    fn rd(&self, temps: &[Value], o: Opnd) -> Value {
        match o {
            Opnd::T(t) => temps[t as usize],
            Opnd::S(v) => self.store.scalar(v),
            Opnd::I(v) => Value::Int(v),
            Opnd::R(v) => Value::Real(v),
        }
    }

    /// Reads one element of a materialized array.
    #[inline]
    fn bc_read(&self, a: VarId, idx: usize) -> Value {
        match self.store.array_ref(a).expect("ensured") {
            ArrayData::Int { data, .. } => Value::Int(data[idx]),
            ArrayData::Real { data, .. } => Value::Real(data[idx]),
        }
    }

    /// Bounds-checks a 1-based first-dimension subscript of a
    /// materialized array; returns the 0-based flat offset. Identical
    /// to the interpreter's `flat_index` for a single subscript
    /// (including the error's array-name identity).
    #[inline]
    fn bc_index1(&self, a: VarId, v: i64) -> Result<usize, ExecError> {
        let extent = self.store.array_ref(a).expect("ensured").dims()[0];
        if v < 1 || v as usize > extent {
            return Err(ExecError::OutOfBounds {
                array: self.program().symbols.name(a).to_string(),
                index: v,
                extent,
            });
        }
        Ok(v as usize - 1)
    }

    /// Executes the compiled outermost `do` loop as one whole-loop
    /// chunk, mirroring the interpreter's sequential `Do` arm: entry
    /// counted before the first iteration, per-iteration logged
    /// induction write, one bookkeeping charge per iteration, the
    /// Fortran final induction value, and the nest's cost attributed on
    /// success only.
    pub(crate) fn exec_do_compiled(
        &mut self,
        s: StmtId,
        cb: &CompiledBody,
        lo: i64,
        hi: i64,
        step: i64,
    ) -> Result<(), ExecError> {
        // The typed loop has no per-op hook, so a profiled entry runs
        // per-op throughout.
        let fb = if self.compiled_profile.is_none() {
            self.fast_body_for(s, cb)
        } else {
            None
        };
        match self.run_chunk(s, cb, fb.as_deref(), lo, hi, step, None) {
            Ok(_) => Ok(()),
            Err(ChunkAbort::Exec(e)) => Err(e),
            Err(ChunkAbort::TimedOut | ChunkAbort::Violated(_)) => {
                unreachable!("only a worker chunk polls a deadline or a strategy sink")
            }
        }
    }

    /// The one chunk executor: runs root iterations `lo..=hi` (by
    /// `step`) of the compiled loop `s` and reports which loop finished
    /// them. `watch` is `None` for a whole sequential loop entry and
    /// `Some` for one parallel worker's share of the iterations; see
    /// [`ChunkWatch`] for what differs.
    ///
    /// When a typed specialization exists (`fb`), every iteration
    /// boundary — the one before the first iteration included — checks
    /// its precondition and hands the remaining iterations to the typed
    /// loop as soon as it holds. Iterations before that (some
    /// referenced array not yet materialized) run per-op, so lazy
    /// materialization and the random-fill draws it makes happen in
    /// interpreter order (and are logged, in a worker). Fuel, cost,
    /// versions and log are kept on the interpreter directly, so there
    /// is nothing to flush at the hand-over.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_chunk(
        &mut self,
        s: StmtId,
        cb: &CompiledBody,
        fb: Option<&FastBody>,
        lo: i64,
        hi: i64,
        step: i64,
        watch: Option<&ChunkWatch>,
    ) -> Result<ChunkEngine, ChunkAbort> {
        // Reuse one register file across entries; registers are
        // write-before-read by construction, so no per-entry clearing
        // beyond sizing is needed.
        let mut temps = std::mem::take(&mut self.ctemps);
        temps.clear();
        temps.resize(cb.register_count(), Value::Int(0));
        let res = self.run_chunk_with(s, cb, fb, lo, hi, step, watch, &mut temps);
        self.ctemps = temps;
        res
    }

    #[allow(clippy::too_many_arguments)]
    fn run_chunk_with(
        &mut self,
        s: StmtId,
        cb: &CompiledBody,
        fb: Option<&FastBody>,
        lo: i64,
        hi: i64,
        step: i64,
        watch: Option<&ChunkWatch>,
        temps: &mut [Value],
    ) -> Result<ChunkEngine, ChunkAbort> {
        if watch.is_none() {
            self.stats.loops.entry(s).or_default().invocations += 1;
        }
        let cost_at_entry = self.stats.total_cost;
        let (var, ty) = cb.root_var();
        let mut i = lo;
        while (step > 0 && i <= hi) || (step < 0 && i >= hi) {
            if let Some(fb) = fb {
                if self.fast_ready(fb) {
                    self.run_fast_iters(s, fb, i, hi, step, cost_at_entry, watch)?;
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
            self.run_block(cb, cb.root(), temps)?;
            self.charge(1)?; // loop bookkeeping
            if watch.is_some() {
                if let Some(v) = self.store.overlay_violation() {
                    return Err(ChunkAbort::Violated(v));
                }
            }
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
        Ok(ChunkEngine::PerOp)
    }

    fn run_block(
        &mut self,
        cb: &CompiledBody,
        b: u16,
        temps: &mut [Value],
    ) -> Result<(), ExecError> {
        let ops = &cb.blocks()[b as usize];
        let mut pc = 0usize;
        while pc < ops.len() {
            let op = &ops[pc];
            if let Some(p) = self.compiled_profile.as_deref_mut() {
                p.counts[op.tag()] += 1;
            }
            match op {
                Op::Charge(n) => self.charge(*n)?,
                Op::Mov { dst, src } => temps[*dst as usize] = self.rd(temps, *src),
                Op::Bin { op, dst, a, b } => {
                    let x = self.rd(temps, *a);
                    let y = self.rd(temps, *b);
                    temps[*dst as usize] = apply_bin(*op, x, y)?;
                }
                Op::Neg { dst, src } => {
                    temps[*dst as usize] = match self.rd(temps, *src) {
                        Value::Int(v) => Value::Int(-v),
                        Value::Real(v) => Value::Real(-v),
                    };
                }
                Op::Cmp { op, dst, a, b } => {
                    let x = self.rd(temps, *a);
                    let y = self.rd(temps, *b);
                    // eval_cond's comparison: exact integer compare,
                    // otherwise real compare with NaN ordering Equal.
                    let ord = match (x, y) {
                        (Value::Int(p), Value::Int(q)) => p.cmp(&q),
                        _ => x
                            .as_real()
                            .partial_cmp(&y.as_real())
                            .unwrap_or(std::cmp::Ordering::Equal),
                    };
                    let res = match op {
                        BinOp::Eq => ord == std::cmp::Ordering::Equal,
                        BinOp::Ne => ord != std::cmp::Ordering::Equal,
                        BinOp::Lt => ord == std::cmp::Ordering::Less,
                        BinOp::Le => ord != std::cmp::Ordering::Greater,
                        BinOp::Gt => ord == std::cmp::Ordering::Greater,
                        BinOp::Ge => ord != std::cmp::Ordering::Less,
                        _ => unreachable!("comparison"),
                    };
                    temps[*dst as usize] = Value::Int(res as i64);
                }
                Op::Truthy { dst, src } => {
                    let v = self.rd(temps, *src);
                    temps[*dst as usize] = Value::Int((v.as_real() != 0.0) as i64);
                }
                Op::Not { t } => {
                    let v = temps[*t as usize].as_int();
                    temps[*t as usize] = Value::Int((v == 0) as i64);
                }
                Op::Intr1 { f, dst, a } => {
                    let x = self.rd(temps, *a);
                    temps[*dst as usize] = apply_intrinsic(*f, &[x])?;
                }
                Op::Intr2 { f, dst, a, b } => {
                    let x = self.rd(temps, *a);
                    let y = self.rd(temps, *b);
                    temps[*dst as usize] = apply_intrinsic(*f, &[x, y])?;
                }
                Op::Jump { target } => {
                    pc = *target as usize;
                    continue;
                }
                Op::JumpIfZero { src, target } => {
                    if temps[*src as usize].as_int() == 0 {
                        pc = *target as usize;
                        continue;
                    }
                }
                Op::JumpIfNonZero { src, target } => {
                    if temps[*src as usize].as_int() != 0 {
                        pc = *target as usize;
                        continue;
                    }
                }
                Op::Ensure { arr } => self.ensure_materialized(*arr)?,
                Op::IndexN { arr, base, n, dst } => {
                    // flat_index's column-major walk with per-dimension
                    // bounds checks, over subscripts already evaluated
                    // into consecutive temps.
                    let mut idx: usize = 0;
                    let mut stride: usize = 1;
                    for k in 0..*n as usize {
                        let v = temps[*base as usize + k].as_int();
                        let extent = self.store.array_ref(*arr).expect("ensured").dims()[k];
                        if v < 1 || v as usize > extent {
                            return Err(ExecError::OutOfBounds {
                                array: self.program().symbols.name(*arr).to_string(),
                                index: v,
                                extent,
                            });
                        }
                        idx += (v as usize - 1) * stride;
                        stride *= extent;
                    }
                    temps[*dst as usize] = Value::Int(idx as i64);
                }
                Op::LoadAt { arr, idx, dst } => {
                    let k = temps[*idx as usize].as_int() as usize;
                    temps[*dst as usize] = self.bc_read(*arr, k);
                }
                Op::StoreAt { arr, idx, src } => {
                    let k = temps[*idx as usize].as_int() as usize;
                    let val = self.rd(temps, *src);
                    self.store.write_element(*arr, k, val);
                }
                Op::LoadElem1 { arr, sub, dst } => {
                    self.ensure_materialized(*arr)?;
                    let v = self.rd(temps, *sub).as_int();
                    let k = self.bc_index1(*arr, v)?;
                    temps[*dst as usize] = self.bc_read(*arr, k);
                }
                Op::StoreElem1 { arr, sub, src } => {
                    self.ensure_materialized(*arr)?;
                    let v = self.rd(temps, *sub).as_int();
                    let k = self.bc_index1(*arr, v)?;
                    let val = self.rd(temps, *src);
                    self.store.write_element(*arr, k, val);
                }
                Op::LoadAffine {
                    arr,
                    base,
                    off,
                    dst,
                } => {
                    self.ensure_materialized(*arr)?;
                    // `base` is integer-typed, so the wrapping add is
                    // exactly apply_bin's integer Add/Sub.
                    let v = self.store.scalar(*base).as_int().wrapping_add(*off);
                    let k = self.bc_index1(*arr, v)?;
                    temps[*dst as usize] = self.bc_read(*arr, k);
                }
                Op::StoreAffine {
                    arr,
                    base,
                    off,
                    src,
                } => {
                    self.ensure_materialized(*arr)?;
                    let v = self.store.scalar(*base).as_int().wrapping_add(*off);
                    let k = self.bc_index1(*arr, v)?;
                    let val = self.rd(temps, *src);
                    self.store.write_element(*arr, k, val);
                }
                Op::Gather {
                    arr,
                    idx_arr,
                    sub,
                    dst,
                } => {
                    // flat_index order: the outer array is ensured
                    // before its subscript (the index-array access) is
                    // evaluated.
                    self.ensure_materialized(*arr)?;
                    self.ensure_materialized(*idx_arr)?;
                    let s = self.rd(temps, *sub).as_int();
                    let j = self.bc_index1(*idx_arr, s)?;
                    let v = self.bc_read(*idx_arr, j).as_int();
                    let k = self.bc_index1(*arr, v)?;
                    temps[*dst as usize] = self.bc_read(*arr, k);
                }
                Op::Scatter {
                    arr,
                    idx_arr,
                    sub,
                    src,
                } => {
                    self.ensure_materialized(*arr)?;
                    self.ensure_materialized(*idx_arr)?;
                    let s = self.rd(temps, *sub).as_int();
                    let j = self.bc_index1(*idx_arr, s)?;
                    let v = self.bc_read(*idx_arr, j).as_int();
                    let k = self.bc_index1(*arr, v)?;
                    let val = self.rd(temps, *src);
                    self.store.write_element(*arr, k, val);
                }
                Op::SetScalar { var, ty, src } => {
                    let val = self.rd(temps, *src);
                    self.store.set_scalar(*var, *ty, val);
                }
                Op::Accum {
                    var,
                    ty,
                    op,
                    rev,
                    src,
                } => {
                    let cur = self.store.scalar(*var);
                    let v = self.rd(temps, *src);
                    let res = if *rev {
                        apply_bin(*op, v, cur)?
                    } else {
                        apply_bin(*op, cur, v)?
                    };
                    self.store.set_scalar(*var, *ty, res);
                }
                Op::Append { arr, ptr, ty, src } => {
                    self.ensure_materialized(*arr)?;
                    let cur = self.store.scalar(*ptr).as_int();
                    let k = self.bc_index1(*arr, cur)?;
                    let val = self.rd(temps, *src);
                    self.store.write_element(*arr, k, val);
                    // The fused increment statement's charge sits
                    // between the write and the pointer bump, exactly
                    // where the interpreter would run out of fuel.
                    self.charge(1)?;
                    self.store
                        .set_scalar(*ptr, *ty, Value::Int(cur.wrapping_add(1)));
                }
                Op::DoLoop {
                    var,
                    ty,
                    stmt,
                    lo,
                    hi,
                    step,
                    body,
                } => {
                    let lo = self.rd(temps, *lo).as_int();
                    let hi = self.rd(temps, *hi).as_int();
                    let stp = self.rd(temps, *step).as_int();
                    if stp == 0 {
                        return Err(ExecError::DivisionByZero);
                    }
                    let entry = self.stats.loops.entry(*stmt).or_default();
                    entry.invocations += 1;
                    let cost_at_entry = self.stats.total_cost;
                    let mut i = lo;
                    while (stp > 0 && i <= hi) || (stp < 0 && i >= hi) {
                        self.store.set_scalar(*var, *ty, Value::Int(i));
                        self.run_block(cb, *body, temps)?;
                        self.charge(1)?; // loop bookkeeping
                        if !advance_induction(&mut i, stp) {
                            break;
                        }
                    }
                    self.store.set_scalar(*var, *ty, Value::Int(i));
                    let total = self.stats.total_cost - cost_at_entry;
                    self.stats.loops.entry(*stmt).or_default().total_cost += total;
                }
                Op::WhileLoop {
                    stmt,
                    cond,
                    cond_temp,
                    body,
                } => {
                    let entry = self.stats.loops.entry(*stmt).or_default();
                    entry.invocations += 1;
                    let cost_at_entry = self.stats.total_cost;
                    loop {
                        self.run_block(cb, *cond, temps)?;
                        if temps[*cond_temp as usize].as_int() == 0 {
                            break;
                        }
                        self.charge(1)?;
                        self.run_block(cb, *body, temps)?;
                    }
                    let total = self.stats.total_cost - cost_at_entry;
                    self.stats.loops.entry(*stmt).or_default().total_cost += total;
                }
            }
            pc += 1;
        }
        Ok(())
    }
}
