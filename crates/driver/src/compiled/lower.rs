//! AST → register bytecode lowering: the single decision point for
//! "can this nest run on the bytecode backend".
//!
//! The lowering is a pure function of the program: no store state is
//! consulted, so the driver can summarise a [`CompiledBody`] into a
//! verdict's advisory plan at compile time, and the executor can lower
//! the same nest again at dispatch, cache the body per loop `StmtId`
//! for the lifetime of the interpreter and share it (via `Arc`) with
//! parallel workers. Anything the executor cannot replay
//! bit-identically to the tree-walk rejects with a [`LowerReject`];
//! the verdict then carries no plan and the dispatch site falls back
//! to the interpreter.
//!
//! Ordering rules the emitted code preserves (see the interpreter for
//! the authoritative semantics):
//!
//! - one [`Op::Charge`] per statement at its entry, nothing coalesced
//!   across potentially-faulting instructions;
//! - assignment right-hand sides evaluate before the target's
//!   subscripts and bounds checks;
//! - nothing is emitted for array materialization: the typed loop runs
//!   only once every array the nest references is live, and until then
//!   the tree-walk materializes in its own order (and with it fills
//!   the write log and draws from the random-fill stream);
//! - condition short-circuiting skips the untaken operand's side
//!   effects exactly like `eval_cond`.

use super::{CompiledBody, Op, Opnd};
use irr_frontend::{
    BinOp, Expr, Intrinsic, LValue, Program, ScalarType, StmtId, StmtKind, UnOp, VarId,
};

/// Why a loop nest could not be lowered. The reason string is a stable
/// token for telemetry and tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LowerReject(pub &'static str);

type Lower<T> = Result<T, LowerReject>;

/// Lowers the `do` loop at `loop_stmt` (its body; the outer loop's
/// bound evaluation and induction control stay with the driver) into
/// a [`CompiledBody`].
///
/// # Errors
///
/// [`LowerReject`] when the nest contains a construct the bytecode
/// executor does not replicate bit-for-bit: procedure calls, `print`,
/// `return`, logical/comparison operators in numeric position,
/// intrinsics with too few arguments, subscripted scalars, or a nest
/// large enough to overflow the `u16` register file or the `u16` block
/// indices.
pub fn lower_do_loop(program: &Program, loop_stmt: StmtId) -> Lower<CompiledBody> {
    let StmtKind::Do { var, body, .. } = &program.stmt(loop_stmt).kind else {
        return Err(LowerReject("not-a-do-loop"));
    };
    let mut l = Lowerer {
        program,
        blocks: Vec::new(),
        n_temps: 0,
        loops: vec![loop_stmt],
    };
    let root = l.new_block()?;
    l.lower_stmts(root, body)?;
    Ok(CompiledBody {
        blocks: l.blocks,
        root: root as u16,
        n_temps: l.n_temps,
        root_var: *var,
        root_ty: program.symbols.var(*var).ty,
        loops: l.loops,
    })
}

struct Lowerer<'p> {
    program: &'p Program,
    blocks: Vec<Vec<Op>>,
    n_temps: u16,
    loops: Vec<StmtId>,
}

impl<'p> Lowerer<'p> {
    /// Ops address blocks by `u16`; a nest with more inner loops than
    /// that rejects like one with too many temps.
    fn new_block(&mut self) -> Lower<usize> {
        if self.blocks.len() > usize::from(u16::MAX) {
            return Err(LowerReject("block-count-overflow"));
        }
        self.blocks.push(Vec::new());
        Ok(self.blocks.len() - 1)
    }

    fn temp(&mut self) -> Lower<u16> {
        let t = self.n_temps;
        self.n_temps = self
            .n_temps
            .checked_add(1)
            .ok_or(LowerReject("register-file-overflow"))?;
        Ok(t)
    }

    fn ty(&self, v: VarId) -> ScalarType {
        self.program.symbols.var(v).ty
    }

    fn emit(&mut self, b: usize, op: Op) -> usize {
        self.blocks[b].push(op);
        self.blocks[b].len() - 1
    }

    fn patch(&mut self, b: usize, at: usize) {
        let target = self.blocks[b].len() as u32;
        match &mut self.blocks[b][at] {
            Op::Jump { target: t }
            | Op::JumpIfZero { target: t, .. }
            | Op::JumpIfNonZero { target: t, .. } => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn lower_stmts(&mut self, b: usize, body: &[StmtId]) -> Lower<()> {
        let mut k = 0;
        while k < body.len() {
            // Append-through-pointer peephole: `a(p) = e` immediately
            // followed by `p = p + 1` fuses into one superinstruction
            // (the second statement's charge is replayed inside it).
            if k + 1 < body.len() {
                if let Some(()) = self.try_lower_append(b, body[k], body[k + 1])? {
                    k += 2;
                    continue;
                }
            }
            self.lower_stmt(b, body[k])?;
            k += 1;
        }
        Ok(())
    }

    /// `Some(())` when the two statements fused into [`Op::Append`].
    fn try_lower_append(&mut self, b: usize, s1: StmtId, s2: StmtId) -> Lower<Option<()>> {
        let StmtKind::Assign {
            lhs: LValue::Element(arr, subs),
            rhs,
        } = &self.program.stmt(s1).kind
        else {
            return Ok(None);
        };
        let [Expr::Var(p)] = subs.as_slice() else {
            return Ok(None);
        };
        let StmtKind::Assign {
            lhs: LValue::Scalar(p2),
            rhs: inc,
        } = &self.program.stmt(s2).kind
        else {
            return Ok(None);
        };
        let bumps = matches!(
            inc,
            Expr::Bin(BinOp::Add, x, y)
                if (x.is_var(*p) && y.as_int_lit() == Some(1))
                    || (y.is_var(*p) && x.as_int_lit() == Some(1))
        );
        if p2 != p
            || !bumps
            || self.ty(*p) != ScalarType::Int
            || self.program.symbols.var(*arr).rank() != 1
        {
            return Ok(None);
        }
        self.emit(b, Op::Charge(1));
        let src = self.lower_expr(b, rhs)?;
        self.emit(
            b,
            Op::Append {
                arr: *arr,
                ptr: *p,
                ty: ScalarType::Int,
                src,
            },
        );
        Ok(Some(()))
    }

    fn lower_stmt(&mut self, b: usize, s: StmtId) -> Lower<()> {
        match &self.program.stmt(s).kind {
            StmtKind::Assign { lhs, rhs } => {
                self.emit(b, Op::Charge(1));
                match lhs {
                    LValue::Scalar(v) => {
                        let v = *v;
                        let ty = self.ty(v);
                        // Reduction-accumulate peephole `s = s op e`
                        // (or `s = e op s`): the scalar read defers to
                        // the accumulate, which is safe — expressions
                        // cannot write scalars.
                        if let Expr::Bin(op @ (BinOp::Add | BinOp::Sub | BinOp::Mul), x, y) = rhs {
                            if x.is_var(v) {
                                let src = self.lower_expr(b, y)?;
                                self.emit(
                                    b,
                                    Op::Accum {
                                        var: v,
                                        ty,
                                        op: *op,
                                        rev: false,
                                        src,
                                    },
                                );
                                return Ok(());
                            }
                            if matches!(op, BinOp::Add | BinOp::Mul) && y.is_var(v) {
                                let src = self.lower_expr(b, x)?;
                                self.emit(
                                    b,
                                    Op::Accum {
                                        var: v,
                                        ty,
                                        op: *op,
                                        rev: true,
                                        src,
                                    },
                                );
                                return Ok(());
                            }
                        }
                        let src = self.lower_expr(b, rhs)?;
                        self.emit(b, Op::SetScalar { var: v, ty, src });
                    }
                    LValue::Element(a, subs) => {
                        // Interpreter order: right-hand side first,
                        // then the target's subscripts.
                        let src = self.lower_expr(b, rhs)?;
                        self.lower_element_store(b, *a, subs, src)?;
                    }
                }
                Ok(())
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                self.emit(b, Op::Charge(1));
                let t = self.temp()?;
                self.lower_cond(b, cond, t)?;
                let jf = self.emit(b, Op::JumpIfZero { src: t, target: 0 });
                self.lower_stmts(b, then_body)?;
                if else_body.is_empty() {
                    self.patch(b, jf);
                } else {
                    let jend = self.emit(b, Op::Jump { target: 0 });
                    self.patch(b, jf);
                    self.lower_stmts(b, else_body)?;
                    self.patch(b, jend);
                }
                Ok(())
            }
            StmtKind::Do {
                var,
                lo,
                hi,
                step,
                body,
                ..
            } => {
                self.emit(b, Op::Charge(1));
                let lo = self.lower_expr(b, lo)?;
                let hi = self.lower_expr(b, hi)?;
                let step = match step {
                    Some(e) => self.lower_expr(b, e)?,
                    None => Opnd::I(1),
                };
                self.loops.push(s);
                let body_b = self.new_block()?;
                self.lower_stmts(body_b, body)?;
                self.emit(
                    b,
                    Op::DoLoop {
                        var: *var,
                        ty: self.ty(*var),
                        stmt: s,
                        lo,
                        hi,
                        step,
                        body: body_b as u16,
                    },
                );
                Ok(())
            }
            StmtKind::While { cond, body } => {
                self.emit(b, Op::Charge(1));
                self.loops.push(s);
                let cond_b = self.new_block()?;
                let t = self.temp()?;
                self.lower_cond(cond_b, cond, t)?;
                let body_b = self.new_block()?;
                self.lower_stmts(body_b, body)?;
                self.emit(
                    b,
                    Op::WhileLoop {
                        stmt: s,
                        cond: cond_b as u16,
                        cond_temp: t,
                        body: body_b as u16,
                    },
                );
                Ok(())
            }
            StmtKind::Call { .. } => Err(LowerReject("call")),
            StmtKind::Print { .. } => Err(LowerReject("print")),
            StmtKind::Return => Err(LowerReject("return")),
        }
    }

    /// Lowers a numeric expression; returns the operand holding its
    /// value. Emits nothing for literals and scalar reads.
    fn lower_expr(&mut self, b: usize, e: &Expr) -> Lower<Opnd> {
        match e {
            Expr::IntLit(v) => Ok(Opnd::I(*v)),
            Expr::RealLit(v) => Ok(Opnd::R(*v)),
            Expr::Var(v) => Ok(Opnd::S(*v)),
            Expr::Element(a, subs) => self.lower_element_load(b, *a, subs),
            Expr::Bin(op, x, y) => {
                if op.is_comparison() || op.is_logical() {
                    // The interpreter evaluates the left operand, then
                    // re-evaluates the whole expression as a condition
                    // — a double-evaluation quirk the bytecode does
                    // not replicate.
                    return Err(LowerReject("logical-in-numeric-position"));
                }
                let a = self.lower_expr(b, x)?;
                let bb = self.lower_expr(b, y)?;
                let dst = self.temp()?;
                self.emit(
                    b,
                    Op::Bin {
                        op: *op,
                        dst,
                        a,
                        b: bb,
                    },
                );
                Ok(Opnd::T(dst))
            }
            Expr::Un(UnOp::Neg, x) => {
                let src = self.lower_expr(b, x)?;
                let dst = self.temp()?;
                self.emit(b, Op::Neg { dst, src });
                Ok(Opnd::T(dst))
            }
            Expr::Un(UnOp::Not, _) => Err(LowerReject("not-in-numeric-position")),
            Expr::Call(f, args) => {
                let needed = match f {
                    Intrinsic::Min | Intrinsic::Max | Intrinsic::Mod => 2,
                    _ => 1,
                };
                if args.len() < needed {
                    // The interpreter panics on missing intrinsic
                    // arguments; the fallback preserves that.
                    return Err(LowerReject("intrinsic-arity"));
                }
                // Every argument is evaluated (for its side effects),
                // in order, even those past the intrinsic's arity.
                let mut opnds = Vec::with_capacity(args.len());
                for a in args {
                    opnds.push(self.lower_expr(b, a)?);
                }
                let dst = self.temp()?;
                if needed == 2 {
                    self.emit(
                        b,
                        Op::Intr2 {
                            f: *f,
                            dst,
                            a: opnds[0],
                            b: opnds[1],
                        },
                    );
                } else {
                    self.emit(
                        b,
                        Op::Intr1 {
                            f: *f,
                            dst,
                            a: opnds[0],
                        },
                    );
                }
                Ok(Opnd::T(dst))
            }
        }
    }

    /// Lowers a condition into 0/1 in temp `dst`, with `eval_cond`'s
    /// short-circuit structure.
    fn lower_cond(&mut self, b: usize, e: &Expr, dst: u16) -> Lower<()> {
        match e {
            Expr::Bin(op, x, y) if op.is_comparison() => {
                let a = self.lower_expr(b, x)?;
                let bb = self.lower_expr(b, y)?;
                self.emit(
                    b,
                    Op::Cmp {
                        op: *op,
                        dst,
                        a,
                        b: bb,
                    },
                );
                Ok(())
            }
            Expr::Bin(BinOp::And, x, y) => {
                self.lower_cond(b, x, dst)?;
                let j = self.emit(
                    b,
                    Op::JumpIfZero {
                        src: dst,
                        target: 0,
                    },
                );
                self.lower_cond(b, y, dst)?;
                self.patch(b, j);
                Ok(())
            }
            Expr::Bin(BinOp::Or, x, y) => {
                self.lower_cond(b, x, dst)?;
                let j = self.emit(
                    b,
                    Op::JumpIfNonZero {
                        src: dst,
                        target: 0,
                    },
                );
                self.lower_cond(b, y, dst)?;
                self.patch(b, j);
                Ok(())
            }
            Expr::Un(UnOp::Not, x) => {
                self.lower_cond(b, x, dst)?;
                self.emit(b, Op::Not { t: dst });
                Ok(())
            }
            other => {
                let src = self.lower_expr(b, other)?;
                self.emit(b, Op::Truthy { dst, src });
                Ok(())
            }
        }
    }

    /// Lowers an array element load, fusing the recognized access
    /// patterns into superinstructions.
    fn lower_element_load(&mut self, b: usize, a: VarId, subs: &[Expr]) -> Lower<Opnd> {
        let rank = self.program.symbols.var(a).rank();
        if rank == 0 || subs.is_empty() || subs.len() > rank {
            // Subscripted scalars and over-subscripted arrays panic in
            // the interpreter's flat_index; keep that behavior there.
            return Err(LowerReject("subscript-shape"));
        }
        if subs.len() == 1 {
            let dst = self.temp()?;
            if let Some(op) = self.fuse_sub1_load(a, &subs[0], dst) {
                self.emit(b, op);
                return Ok(Opnd::T(dst));
            }
            // General single-subscript access.
            let sub = self.lower_expr(b, &subs[0])?;
            self.emit(b, Op::LoadElem1 { arr: a, sub, dst });
            return Ok(Opnd::T(dst));
        }
        let base = self.lower_subscripts(b, subs)?;
        let idx = self.temp()?;
        self.emit(
            b,
            Op::IndexN {
                arr: a,
                base,
                n: subs.len() as u8,
                dst: idx,
            },
        );
        let dst = self.temp()?;
        self.emit(b, Op::LoadAt { arr: a, idx, dst });
        Ok(Opnd::T(dst))
    }

    fn lower_element_store(&mut self, b: usize, a: VarId, subs: &[Expr], src: Opnd) -> Lower<()> {
        let rank = self.program.symbols.var(a).rank();
        if rank == 0 || subs.is_empty() || subs.len() > rank {
            return Err(LowerReject("subscript-shape"));
        }
        if subs.len() == 1 {
            if let Some(op) = self.fuse_sub1_store(a, &subs[0], src) {
                self.emit(b, op);
                return Ok(());
            }
            let sub = self.lower_expr(b, &subs[0])?;
            self.emit(b, Op::StoreElem1 { arr: a, sub, src });
            return Ok(());
        }
        let base = self.lower_subscripts(b, subs)?;
        let idx = self.temp()?;
        self.emit(
            b,
            Op::IndexN {
                arr: a,
                base,
                n: subs.len() as u8,
                dst: idx,
            },
        );
        self.emit(b, Op::StoreAt { arr: a, idx, src });
        Ok(())
    }

    /// Evaluates `subs` left-to-right, then moves the results into a
    /// fresh run of consecutive temps (the move is a pure register
    /// copy, so evaluation order is unchanged). Returns the base temp.
    fn lower_subscripts(&mut self, b: usize, subs: &[Expr]) -> Lower<u16> {
        let mut opnds = Vec::with_capacity(subs.len());
        for s in subs {
            opnds.push(self.lower_expr(b, s)?);
        }
        let base = self.n_temps;
        for o in opnds {
            let dst = self.temp()?;
            self.emit(b, Op::Mov { dst, src: o });
        }
        Ok(base)
    }

    /// The single-subscript superinstruction patterns. `None` sends
    /// the access down the general path. All fused subscript forms are
    /// side-effect-free.
    fn fuse_sub1_load(&self, a: VarId, sub: &Expr, dst: u16) -> Option<Op> {
        match self.fused_sub(sub)? {
            FusedSub::Direct(opnd) => Some(Op::LoadElem1 {
                arr: a,
                sub: opnd,
                dst,
            }),
            FusedSub::Affine(base, off) => Some(Op::LoadAffine {
                arr: a,
                base,
                off,
                dst,
            }),
            FusedSub::Gather(idx_arr, opnd) => Some(Op::Gather {
                arr: a,
                idx_arr,
                sub: opnd,
                dst,
            }),
        }
    }

    fn fuse_sub1_store(&self, a: VarId, sub: &Expr, src: Opnd) -> Option<Op> {
        match self.fused_sub(sub)? {
            FusedSub::Direct(opnd) => Some(Op::StoreElem1 {
                arr: a,
                sub: opnd,
                src,
            }),
            FusedSub::Affine(base, off) => Some(Op::StoreAffine {
                arr: a,
                base,
                off,
                src,
            }),
            FusedSub::Gather(idx_arr, opnd) => Some(Op::Scatter {
                arr: a,
                idx_arr,
                sub: opnd,
                src,
            }),
        }
    }

    fn fused_sub(&self, sub: &Expr) -> Option<FusedSub> {
        let int_scalar = |e: &Expr| match e {
            Expr::Var(v) if self.ty(*v) == ScalarType::Int => Some(*v),
            _ => None,
        };
        let simple = |e: &Expr| match e {
            Expr::Var(v) => Some(Opnd::S(*v)),
            Expr::IntLit(c) => Some(Opnd::I(*c)),
            _ => None,
        };
        match sub {
            Expr::Var(v) => Some(FusedSub::Direct(Opnd::S(*v))),
            Expr::IntLit(c) => Some(FusedSub::Direct(Opnd::I(*c))),
            // Affine `v + c` / `c + v` / `v - c`: integer-typed base
            // only, so the wrapping integer add matches apply_bin.
            Expr::Bin(BinOp::Add, x, y) => match (int_scalar(x), y.as_int_lit()) {
                (Some(v), Some(c)) => Some(FusedSub::Affine(v, c)),
                _ => match (x.as_int_lit(), int_scalar(y)) {
                    (Some(c), Some(v)) => Some(FusedSub::Affine(v, c)),
                    _ => None,
                },
            },
            Expr::Bin(BinOp::Sub, x, y) => match (int_scalar(x), y.as_int_lit()) {
                (Some(v), Some(c)) => Some(FusedSub::Affine(v, c.checked_neg()?)),
                _ => None,
            },
            Expr::Element(idx_arr, inner) => {
                let [inner] = inner.as_slice() else {
                    return None;
                };
                if self.program.symbols.var(*idx_arr).rank() < 1 {
                    return None;
                }
                Some(FusedSub::Gather(*idx_arr, simple(inner)?))
            }
            _ => None,
        }
    }
}

enum FusedSub {
    Direct(Opnd),
    Affine(VarId, i64),
    Gather(VarId, Opnd),
}
