//! AST → [`CompiledBody`] lowering: the single decision point for
//! "can this nest run on the compiled backend", and the only producer
//! of the instructions the typed loop executes.
//!
//! The lowering is a pure function of the program: no store state is
//! consulted, so the driver can summarise a body into a verdict's
//! advisory plan at compile time, and the executor can lower the same
//! nest again at dispatch, cache the body per loop `StmtId` for the
//! lifetime of the interpreter and share it (via `Arc`) with parallel
//! workers. Anything the typed loop cannot replay bit-identically to
//! the tree-walk rejects with a [`LowerReject`]; the verdict then
//! carries no plan and the dispatch site falls back to the interpreter.
//!
//! It is one pass over the tree, and everything about an instruction
//! is decided where the tree shows it:
//!
//! - **Types are syntax-directed.** Scalar and array element types are
//!   declared and every arithmetic result follows `apply_bin`'s rule
//!   (`Int op Int → Int`, anything else `→ Real`), so lowering an
//!   expression returns a typed value ([`Val`]) and picks the
//!   instruction's plane on the spot. `Int → Real` widening and
//!   Fortran-`INT` truncation are operand forms ([`IOpnd::FReg`] /
//!   [`FOpnd::IReg`], literals folded), placed exactly where
//!   `Value::as_real` / `Value::as_int` would have run.
//! - **Registers are allocated as values are created**, per plane; a
//!   referenced scalar is promoted to one register for the whole nest
//!   (expressions cannot write scalars, so a read deferred to the
//!   consuming instruction sees what the interpreter's eager
//!   left-to-right evaluation would).
//! - **Fusions are tree shapes**: affine `a(v ± c)`, subscripted
//!   subscript `a(idx(e))`, append-through-pointer `a(p) = e; p = p + 1`,
//!   the three-term address `(a + b) ± c`, the multiply–add `x + b * c`,
//!   and a reduction `s = s op e` computed straight into `s`'s register.
//! - **A stream is a loop shape**: an innermost unit-step `do` whose
//!   body is one assignment `sink = a * b ± c` over LINEAR / INDIRECT
//!   references gets a [`Stream`] recorded *beside* its block
//!   (`Lowerer::stream_of`); the block is what runs whenever the
//!   executor's guards do not cover an iteration. A `do i` whose body
//!   is such a loop between at most an initialization of its reduction
//!   and one store of the reduced value gets a [`SegStream`] the same
//!   way (`Lowerer::seg_of`). Both decide their table here, once: at
//!   most [`ROW_INVS`] entries, and each row entry's [`RowForm`], which
//!   the executor evaluates and does not re-derive. An innermost `do`
//!   whose body is one `if (x cmp inv)` around an append through a
//!   pointer gets a [`Filter`] (`Lowerer::filter_of`), the same way.
//! - **Local value numbering** happens at emission: a pure instruction
//!   whose value is already available in the straight-line region is
//!   not emitted again. Safe because compute ops never charge fuel, so
//!   the cost ledger is untouched; availability ends at jump targets,
//!   loop ops, stores to the array and writes to the scalar involved.
//!
//! Ordering rules the emitted code preserves (see the interpreter for
//! the authoritative semantics):
//!
//! - one [`FOp::Charge`] per statement at its entry (the append's
//!   second charge sits inside the fused op), nothing coalesced across
//!   potentially-faulting instructions;
//! - assignment right-hand sides evaluate before the target's
//!   subscripts and bounds checks;
//! - condition short-circuiting skips the untaken operand's side
//!   effects exactly like `eval_cond`.

use super::{
    Addr, CompiledBody, FOp, FOpnd, Filter, FilterVal, IOpnd, Inv, InvTerm, PlaneOpnd, Promoted,
    RowFin, RowForm, RowVal, SegStream, Stream, StreamAt, StreamRef, StreamSink, StreamTail,
    ROW_INVS,
};
use irr_frontend::{
    BinOp, Expr, Intrinsic, LValue, Program, ScalarType, StmtId, StmtKind, UnOp, VarId,
};
use std::cell::RefCell;

/// Why a loop nest could not be lowered. The reason string is a stable
/// token for telemetry and tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LowerReject(pub &'static str);

type Lower<T> = Result<T, LowerReject>;

/// Whether `inc` is `p + 1` or `1 + p`: the bump of an append.
fn bumps(p: VarId, inc: &Expr) -> bool {
    matches!(
        inc,
        Expr::Bin(BinOp::Add, x, y)
            if (x.is_var(p) && y.as_int_lit() == Some(1))
                || (y.is_var(p) && x.as_int_lit() == Some(1))
    )
}

/// Lowers the `do` loop at `loop_stmt` (its body; the outer loop's
/// bound evaluation and induction control stay with the driver) into
/// a [`CompiledBody`].
///
/// # Errors
///
/// [`LowerReject`] when the nest contains a construct the typed loop
/// does not replicate bit-for-bit: procedure calls, `print`, `return`,
/// logical/comparison operators in numeric position, intrinsics with
/// too few arguments, subscripted scalars, or a nest large enough to
/// overflow a `u16` register plane, the `u16` block indices or the
/// `u16` pin slots.
pub fn lower_do_loop(program: &Program, loop_stmt: StmtId) -> Lower<CompiledBody> {
    let StmtKind::Do {
        var, step, body, ..
    } = &program.stmt(loop_stmt).kind
    else {
        return Err(LowerReject("not-a-do-loop"));
    };
    let mut l = Lowerer {
        program,
        blocks: Vec::new(),
        n_iregs: 0,
        n_fregs: 0,
        vars: vec![VarUse::default(); program.symbols.len()],
        arrays: Vec::new(),
        stored: Vec::new(),
        loops: vec![loop_stmt],
        streams: vec![None],
        filters: Vec::new(),
        segs: vec![None],
        avail: Vec::new(),
    };
    let (root_real, root_reg) = l.assigned_scalar(*var)?;
    let root = l.new_block()?;
    l.lower_stmts(root, body)?;
    l.streams[0] = l.stream_of(*var, step.as_ref(), body);
    l.filters
        .extend(l.filter_of(*var, step.as_ref(), body).map(|f| (0, f)));
    l.segs[0] = l.seg_of(*var, step.as_ref(), body);
    let scalars = (l.vars.iter().enumerate())
        .filter_map(|(k, u)| {
            let var = VarId::from_index(k);
            Some(Promoted {
                var,
                reg: u.reg?,
                real: l.is_real(var),
                assigned: u.assigned,
            })
        })
        .collect();
    Ok(CompiledBody {
        blocks: l.blocks,
        root: root as u16,
        n_iregs: l.n_iregs,
        n_fregs: l.n_fregs,
        scalars,
        arrays: l.arrays,
        stored: l.stored,
        loops: l.loops,
        streams: l.streams,
        filters: l.filters,
        segs: l.segs,
        root_var: *var,
        root_reg,
        root_real,
    })
}

/// A lowered expression's value: where it lives and, by that, its type.
#[derive(Clone, Copy)]
enum Val {
    IReg(u16),
    FReg(u16),
    IConst(i64),
    FConst(f64),
}

impl Val {
    fn reg(real: bool, r: u16) -> Val {
        if real {
            Val::FReg(r)
        } else {
            Val::IReg(r)
        }
    }

    fn is_int(self) -> bool {
        matches!(self, Val::IReg(_) | Val::IConst(_))
    }

    /// Read as an integer (`Value::as_int`; a literal folds now).
    fn i(self) -> IOpnd {
        match self {
            Val::IReg(r) => IOpnd::Reg(r),
            Val::FReg(r) => IOpnd::FReg(r),
            Val::IConst(c) => IOpnd::Const(c),
            Val::FConst(c) => IOpnd::Const(c as i64),
        }
    }

    /// Read as a real (`Value::as_real`; a literal folds now).
    fn f(self) -> FOpnd {
        match self {
            Val::IReg(r) => FOpnd::IReg(r),
            Val::FReg(r) => FOpnd::Reg(r),
            Val::IConst(c) => FOpnd::Const(c as f64),
            Val::FConst(c) => FOpnd::Const(c),
        }
    }
}

/// A pure instruction minus its destination: what value numbering
/// compares. A load carries its array's element plane.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pure {
    BinI(BinOp, IOpnd, IOpnd),
    BinF(BinOp, FOpnd, FOpnd),
    Lea(IOpnd, IOpnd, i64),
    MulAdd(FOpnd, FOpnd, FOpnd),
    /// `slot`, address, real.
    Load(u16, Addr, bool),
}

impl Pure {
    /// `a op b` under `apply_bin`'s promotion: `Int op Int → Int`, else
    /// real arithmetic over both operands read as reals.
    fn arith(op: BinOp, a: Val, b: Val) -> Pure {
        if a.is_int() && b.is_int() {
            Pure::BinI(op, a.i(), b.i())
        } else {
            Pure::BinF(op, a.f(), b.f())
        }
    }

    fn is_real(self) -> bool {
        match self {
            Pure::BinI(..) | Pure::Lea(..) => false,
            Pure::BinF(..) | Pure::MulAdd(..) => true,
            Pure::Load(.., real) => real,
        }
    }

    /// The instruction computing this value into `dst`.
    fn op(self, dst: u16) -> FOp {
        match self {
            Pure::BinI(op, a, b) => FOp::BinI { op, dst, a, b },
            Pure::BinF(op, a, b) => FOp::BinF { op, dst, a, b },
            Pure::Lea(a, b, off) => FOp::LeaI { dst, a, b, off },
            Pure::MulAdd(a, b, c) => FOp::MulAddF { dst, a, b, c },
            Pure::Load(slot, at, false) => FOp::LoadI { slot, at, dst },
            Pure::Load(slot, at, true) => FOp::LoadF { slot, at, dst },
        }
    }

    /// Whether the value was computed from register `r` of a plane.
    fn reads(self, real: bool, r: u16) -> bool {
        let i = |o: IOpnd| o == if real { IOpnd::FReg(r) } else { IOpnd::Reg(r) };
        let f = |o: FOpnd| o == if real { FOpnd::Reg(r) } else { FOpnd::IReg(r) };
        match self {
            Pure::BinI(_, a, b) | Pure::Lea(a, b, _) => i(a) || i(b),
            Pure::BinF(_, a, b) => f(a) || f(b),
            Pure::MulAdd(a, b, c) => f(a) || f(b) || f(c),
            Pure::Load(_, Addr::Elem(sub) | Addr::Ind { sub, .. }, _) => i(sub),
            Pure::Load(_, Addr::Aff { base: k, .. } | Addr::Flat(k), _) => !real && k == r,
        }
    }

    /// Whether the value was loaded from the array pinned at `slot`.
    fn loads(self, slot: u16) -> bool {
        match self {
            Pure::Load(s, Addr::Ind { idx_slot, .. }, _) => s == slot || idx_slot == slot,
            Pure::Load(s, ..) => s == slot,
            _ => false,
        }
    }
}

/// What the nest does with one variable, by dense `VarId` index.
#[derive(Clone, Copy, Default)]
struct VarUse {
    /// The register a referenced scalar is promoted to.
    reg: Option<u16>,
    /// Whether the nest can assign the scalar.
    assigned: bool,
    /// The pin slot of a referenced array.
    slot: Option<u16>,
}

/// Values remembered per straight-line region. A region that computes
/// more starts over, so lowering stays linear in the size of the nest.
const AVAIL_CAP: usize = 64;

struct Lowerer<'p> {
    program: &'p Program,
    blocks: Vec<Vec<FOp>>,
    n_iregs: u16,
    n_fregs: u16,
    vars: Vec<VarUse>,
    arrays: Vec<VarId>,
    stored: Vec<bool>,
    loops: Vec<StmtId>,
    /// Per entry of `loops`: the stream an innermost `do` runs as.
    streams: Vec<Option<Stream>>,
    /// The filter streams innermost `do`s run as, by entry of `loops`.
    filters: Vec<(usize, Filter)>,
    /// Per entry of `loops`: the segmented stream a row loop runs as.
    segs: Vec<Option<SegStream>>,
    /// Pure values computed since the last join point of the block
    /// being emitted, with the temp holding each.
    avail: Vec<(Pure, u16)>,
}

impl<'p> Lowerer<'p> {
    /// Ops address blocks by `u16`; a nest with more inner loops than
    /// that rejects like one with too many temps. Nothing computed
    /// outside a block is available inside it.
    fn new_block(&mut self) -> Lower<usize> {
        if self.blocks.len() > usize::from(u16::MAX) {
            return Err(LowerReject("block-count-overflow"));
        }
        self.avail.clear();
        self.blocks.push(Vec::new());
        Ok(self.blocks.len() - 1)
    }

    /// Dense counter slot for an inner loop statement.
    fn enter_loop(&mut self, s: StmtId) -> Lower<u16> {
        let lidx =
            u16::try_from(self.loops.len() - 1).map_err(|_| LowerReject("block-count-overflow"))?;
        self.loops.push(s);
        self.streams.push(None);
        self.segs.push(None);
        Ok(lidx)
    }

    /// A fresh register of one plane.
    fn alloc(&mut self, real: bool) -> Lower<u16> {
        let n = if real {
            &mut self.n_fregs
        } else {
            &mut self.n_iregs
        };
        let r = *n;
        *n = n
            .checked_add(1)
            .ok_or(LowerReject("register-file-overflow"))?;
        Ok(r)
    }

    fn is_real(&self, v: VarId) -> bool {
        self.program.symbols.var(v).ty == ScalarType::Real
    }

    /// The register scalar `v` is promoted to, in the plane of its
    /// declared type.
    fn scalar(&mut self, v: VarId) -> Lower<(bool, u16)> {
        let real = self.is_real(v);
        if let Some(r) = self.vars[v.index()].reg {
            return Ok((real, r));
        }
        let r = self.alloc(real)?;
        self.vars[v.index()].reg = Some(r);
        Ok((real, r))
    }

    /// The register of a scalar the nest assigns.
    fn assigned_scalar(&mut self, v: VarId) -> Lower<(bool, u16)> {
        self.vars[v.index()].assigned = true;
        self.scalar(v)
    }

    /// The pin slot of array `a`.
    fn slot(&mut self, a: VarId) -> Lower<u16> {
        if let Some(s) = self.vars[a.index()].slot {
            return Ok(s);
        }
        let s = u16::try_from(self.arrays.len()).map_err(|_| LowerReject("array-slot-overflow"))?;
        self.vars[a.index()].slot = Some(s);
        self.arrays.push(a);
        self.stored.push(false);
        Ok(s)
    }

    /// The pin slot of an array the instruction about to be emitted
    /// stores to (its operands are lowered): nothing loaded from the
    /// array stays available.
    fn store_slot(&mut self, a: VarId) -> Lower<u16> {
        let s = self.slot(a)?;
        self.stored[usize::from(s)] = true;
        self.avail.retain(|(p, _)| !p.loads(s));
        Ok(s)
    }

    /// A write to scalar register `r`: nothing computed from it stays
    /// available. (Temps are written once, where they are created.)
    fn kill_reg(&mut self, real: bool, r: u16) {
        self.avail.retain(|(p, _)| !p.reads(real, r));
    }

    fn emit(&mut self, b: usize, op: FOp) -> usize {
        self.blocks[b].push(op);
        self.blocks[b].len() - 1
    }

    /// Emits `op(dst)` for a fresh `dst`; the value it leaves there.
    fn emit_fresh(&mut self, b: usize, real: bool, op: impl FnOnce(u16) -> FOp) -> Lower<Val> {
        let dst = self.alloc(real)?;
        self.emit(b, op(dst));
        Ok(Val::reg(real, dst))
    }

    /// Emits the pure instruction `p` unless its value is already
    /// available; either way, where the value lives.
    fn pure(&mut self, b: usize, p: Pure) -> Lower<Val> {
        let real = p.is_real();
        if let Some(&(_, r)) = self.avail.iter().find(|(k, _)| *k == p) {
            return Ok(Val::reg(real, r));
        }
        let dst = self.alloc(real)?;
        self.emit(b, p.op(dst));
        if self.avail.len() == AVAIL_CAP {
            self.avail.clear();
        }
        self.avail.push((p, dst));
        Ok(Val::reg(real, dst))
    }

    /// Points the jump at `at` to the next instruction — a join point,
    /// which value availability must not cross.
    fn patch(&mut self, b: usize, at: usize) {
        let target = self.blocks[b].len() as u32;
        match &mut self.blocks[b][at] {
            FOp::Jump { target: t }
            | FOp::JumpIfZero { target: t, .. }
            | FOp::JumpIfNonZero { target: t, .. } => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
        self.avail.clear();
    }

    fn lower_stmts(&mut self, b: usize, body: &[StmtId]) -> Lower<()> {
        let mut k = 0;
        while k < body.len() {
            // Append-through-pointer: `a(p) = e` immediately followed
            // by `p = p + 1` fuses into one superinstruction (the
            // second statement's charge is replayed inside it).
            if k + 1 < body.len() && self.try_lower_append(b, body[k], body[k + 1])? {
                k += 2;
                continue;
            }
            self.lower_stmt(b, body[k])?;
            k += 1;
        }
        Ok(())
    }

    /// Whether the two statements fused into an append op.
    fn try_lower_append(&mut self, b: usize, s1: StmtId, s2: StmtId) -> Lower<bool> {
        let StmtKind::Assign {
            lhs: LValue::Element(arr, subs),
            rhs,
        } = &self.program.stmt(s1).kind
        else {
            return Ok(false);
        };
        let [Expr::Var(p)] = subs.as_slice() else {
            return Ok(false);
        };
        let StmtKind::Assign {
            lhs: LValue::Scalar(p2),
            rhs: inc,
        } = &self.program.stmt(s2).kind
        else {
            return Ok(false);
        };
        if p2 != p
            || !bumps(*p, inc)
            || self.is_real(*p)
            || self.program.symbols.var(*arr).rank() != 1
        {
            return Ok(false);
        }
        self.emit(b, FOp::Charge(1));
        let src = self.lower_expr(b, rhs)?;
        let slot = self.store_slot(*arr)?;
        let (_, ptr) = self.assigned_scalar(*p)?;
        self.kill_reg(false, ptr);
        let op = if self.is_real(*arr) {
            let src = src.f();
            FOp::AppendF { slot, ptr, src }
        } else {
            let src = src.i();
            FOp::AppendI { slot, ptr, src }
        };
        self.emit(b, op);
        Ok(true)
    }

    fn lower_stmt(&mut self, b: usize, s: StmtId) -> Lower<()> {
        match &self.program.stmt(s).kind {
            StmtKind::Assign { lhs, rhs } => {
                self.emit(b, FOp::Charge(1));
                match lhs {
                    LValue::Scalar(v) => self.lower_scalar_assign(b, *v, rhs),
                    LValue::Element(a, subs) => {
                        // Interpreter order: right-hand side first,
                        // then the target's subscripts.
                        let src = self.lower_expr(b, rhs)?;
                        self.lower_element_store(b, *a, subs, src)
                    }
                }
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                self.emit(b, FOp::Charge(1));
                let t = self.alloc(false)?;
                self.lower_cond(b, cond, t)?;
                let jf = self.emit(b, FOp::JumpIfZero { src: t, target: 0 });
                self.lower_stmts(b, then_body)?;
                if else_body.is_empty() {
                    self.patch(b, jf);
                } else {
                    let jend = self.emit(b, FOp::Jump { target: 0 });
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
                self.emit(b, FOp::Charge(1));
                let lo = self.lower_expr(b, lo)?.i();
                let hi = self.lower_expr(b, hi)?.i();
                let step_op = match step {
                    Some(e) => self.lower_expr(b, e)?.i(),
                    None => IOpnd::Const(1),
                };
                let lidx = self.enter_loop(s)?;
                let body_b = self.new_block()?;
                self.lower_stmts(body_b, body)?;
                self.streams[usize::from(lidx) + 1] = self.stream_of(*var, step.as_ref(), body);
                let filter = self.filter_of(*var, step.as_ref(), body);
                self.filters
                    .extend(filter.map(|f| (usize::from(lidx) + 1, f)));
                let (var_real, reg) = self.assigned_scalar(*var)?;
                self.segs[usize::from(lidx) + 1] = self.seg_of(*var, step.as_ref(), body);
                // The loop writes whatever its body does.
                self.avail.clear();
                self.emit(
                    b,
                    FOp::DoLoop {
                        var: reg,
                        var_real,
                        lidx,
                        lo,
                        hi,
                        step: step_op,
                        body: body_b as u16,
                    },
                );
                Ok(())
            }
            StmtKind::While { cond, body } => {
                self.emit(b, FOp::Charge(1));
                let lidx = self.enter_loop(s)?;
                let cond_b = self.new_block()?;
                let cond_temp = self.alloc(false)?;
                self.lower_cond(cond_b, cond, cond_temp)?;
                let body_b = self.new_block()?;
                self.lower_stmts(body_b, body)?;
                self.avail.clear();
                self.emit(
                    b,
                    FOp::WhileLoop {
                        lidx,
                        cond: cond_b as u16,
                        cond_temp,
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

    /// `v = rhs`: `set_scalar`'s declared-type coercion is the operand
    /// conversion of a move. A reduction accumulate `v = v op e` (or
    /// `v = e op v`) skips the move and computes straight into `v`'s
    /// register when the arithmetic is in `v`'s plane; a mixed one into
    /// an integer scalar is real arithmetic, then the move's truncation.
    fn lower_scalar_assign(&mut self, b: usize, v: VarId, rhs: &Expr) -> Lower<()> {
        let accumulate = match rhs {
            Expr::Bin(op @ (BinOp::Add | BinOp::Sub | BinOp::Mul), x, y)
                if x.is_var(v) || (*op != BinOp::Sub && y.is_var(v)) =>
            {
                Some(self.lower_bin(b, *op, x, y)?)
            }
            _ => None,
        };
        let (real, dst) = self.assigned_scalar(v)?;
        let op = match accumulate {
            Some(p) if p.is_real() == real => p.op(dst),
            mixed => {
                let src = match mixed {
                    Some(p) => self.pure(b, p)?,
                    None => self.lower_expr(b, rhs)?,
                };
                if real {
                    FOp::MovF { dst, src: src.f() }
                } else {
                    FOp::MovI { dst, src: src.i() }
                }
            }
        };
        self.kill_reg(real, dst);
        self.emit(b, op);
        Ok(())
    }

    /// Lowers a numeric expression; returns its typed value. Emits
    /// nothing for literals and scalar reads.
    fn lower_expr(&mut self, b: usize, e: &Expr) -> Lower<Val> {
        match e {
            Expr::IntLit(v) => Ok(Val::IConst(*v)),
            Expr::RealLit(v) => Ok(Val::FConst(*v)),
            Expr::Var(v) => {
                let (real, r) = self.scalar(*v)?;
                Ok(Val::reg(real, r))
            }
            Expr::Element(a, subs) => self.lower_element_load(b, *a, subs),
            Expr::Bin(op, x, y) => {
                let p = self.lower_bin(b, *op, x, y)?;
                self.pure(b, p)
            }
            Expr::Un(UnOp::Neg, x) => {
                let src = self.lower_expr(b, x)?;
                if src.is_int() {
                    self.emit_fresh(b, false, |dst| FOp::NegI { dst, src: src.i() })
                } else {
                    self.emit_fresh(b, true, |dst| FOp::NegF { dst, src: src.f() })
                }
            }
            Expr::Un(UnOp::Not, _) => Err(LowerReject("not-in-numeric-position")),
            Expr::Call(f, args) => self.lower_intrinsic(b, *f, args),
        }
    }

    /// Lowers the operands of `x op y` and returns the instruction that
    /// computes it, for the caller to emit (into a fresh temp, or for
    /// an accumulate into the scalar's register) — or to fuse, which is
    /// how the two arithmetic fusions are recognized on the tree.
    fn lower_bin(&mut self, b: usize, op: BinOp, x: &Expr, y: &Expr) -> Lower<Pure> {
        if op.is_comparison() || op.is_logical() {
            // The interpreter evaluates the left operand, then
            // re-evaluates the whole expression as a condition — a
            // double-evaluation quirk the typed loop does not
            // replicate.
            return Err(LowerReject("logical-in-numeric-position"));
        }
        // `(p + q) ± c`, all integer: one three-term address op.
        let three_term = match (op, x, y) {
            (BinOp::Add | BinOp::Sub, Expr::Bin(BinOp::Add, p, q), Expr::IntLit(c)) => {
                Some((p, q, *c, false))
            }
            (BinOp::Add, Expr::IntLit(c), Expr::Bin(BinOp::Add, p, q)) => Some((p, q, *c, true)),
            _ => None,
        };
        if let Some((p, q, c, literal_first)) = three_term {
            let sum = self.lower_bin(b, BinOp::Add, p, q)?;
            if let Pure::BinI(BinOp::Add, p, q) = sum {
                let off = if op == BinOp::Sub {
                    0i64.wrapping_sub(c)
                } else {
                    c
                };
                return Ok(Pure::Lea(p, q, off));
            }
            let (sum, c) = (self.pure(b, sum)?, Val::IConst(c));
            return Ok(if literal_first {
                Pure::arith(op, c, sum)
            } else {
                Pure::arith(op, sum, c)
            });
        }
        // `x + m * n` with a real product: one multiply–add. The
        // product is the *second* operand — float add is not commuted,
        // keeping NaN payloads and signed zeros bit-exact.
        if let (BinOp::Add, Expr::Bin(BinOp::Mul, m, n)) = (op, y) {
            let a = self.lower_expr(b, x)?;
            let product = self.lower_bin(b, BinOp::Mul, m, n)?;
            if let Pure::BinF(BinOp::Mul, m, n) = product {
                return Ok(Pure::MulAdd(a.f(), m, n));
            }
            let product = self.pure(b, product)?;
            return Ok(Pure::arith(op, a, product));
        }
        let a = self.lower_expr(b, x)?;
        let c = self.lower_expr(b, y)?;
        Ok(Pure::arith(op, a, c))
    }

    fn lower_intrinsic(&mut self, b: usize, f: Intrinsic, args: &[Expr]) -> Lower<Val> {
        let binary = matches!(f, Intrinsic::Min | Intrinsic::Max | Intrinsic::Mod);
        if args.len() < 1 + usize::from(binary) {
            // The interpreter panics on missing intrinsic arguments;
            // the fallback preserves that.
            return Err(LowerReject("intrinsic-arity"));
        }
        // Every argument is evaluated (for its side effects), in
        // order, even those past the intrinsic's arity.
        let mut vals = [Val::IConst(0); 2];
        for (k, a) in args.iter().enumerate() {
            let v = self.lower_expr(b, a)?;
            if let Some(slot) = vals.get_mut(k) {
                *slot = v;
            }
        }
        let [x, y] = vals;
        let int = x.is_int() && (!binary || y.is_int());
        match f {
            Intrinsic::Mod => self.pure(b, Pure::arith(BinOp::Mod, x, y)),
            Intrinsic::Min | Intrinsic::Max => {
                let max = f == Intrinsic::Max;
                if int {
                    let (a, c) = (x.i(), y.i());
                    self.emit_fresh(b, false, |dst| FOp::MinMaxI { max, dst, a, b: c })
                } else {
                    let (a, c) = (x.f(), y.f());
                    self.emit_fresh(b, true, |dst| FOp::MinMaxF { max, dst, a, b: c })
                }
            }
            Intrinsic::Abs if int => self.emit_fresh(b, false, |dst| FOp::AbsI { dst, src: x.i() }),
            Intrinsic::Abs => self.emit_fresh(b, true, |dst| FOp::AbsF { dst, src: x.f() }),
            Intrinsic::Int => self.emit_fresh(b, false, |dst| FOp::MovI { dst, src: x.i() }),
            Intrinsic::Real => self.emit_fresh(b, true, |dst| FOp::MovF { dst, src: x.f() }),
            Intrinsic::Sqrt | Intrinsic::Sin | Intrinsic::Cos | Intrinsic::Exp | Intrinsic::Log => {
                self.emit_fresh(b, true, |dst| FOp::Real1 { f, dst, src: x.f() })
            }
        }
    }

    /// Lowers a condition into 0/1 in integer register `dst`, with
    /// `eval_cond`'s short-circuit structure.
    fn lower_cond(&mut self, b: usize, e: &Expr, dst: u16) -> Lower<()> {
        match e {
            Expr::Bin(op, x, y) if op.is_comparison() => {
                let op = *op;
                let x = self.lower_expr(b, x)?;
                let y = self.lower_expr(b, y)?;
                // Exact integer compare only when both sides are
                // integers.
                let cmp = if x.is_int() && y.is_int() {
                    let (a, c) = (x.i(), y.i());
                    FOp::CmpI { op, dst, a, b: c }
                } else {
                    let (a, c) = (x.f(), y.f());
                    FOp::CmpF { op, dst, a, b: c }
                };
                self.emit(b, cmp);
            }
            Expr::Bin(op @ (BinOp::And | BinOp::Or), x, y) => {
                self.lower_cond(b, x, dst)?;
                let (src, target) = (dst, 0);
                let j = self.emit(
                    b,
                    if *op == BinOp::And {
                        FOp::JumpIfZero { src, target }
                    } else {
                        FOp::JumpIfNonZero { src, target }
                    },
                );
                self.lower_cond(b, y, dst)?;
                self.patch(b, j);
            }
            Expr::Un(UnOp::Not, x) => {
                self.lower_cond(b, x, dst)?;
                self.emit(b, FOp::Not { t: dst });
            }
            other => {
                let src = self.lower_expr(b, other)?;
                let truthy = if src.is_int() {
                    FOp::TruthyI { dst, src: src.i() }
                } else {
                    FOp::TruthyF { dst, src: src.f() }
                };
                self.emit(b, truthy);
            }
        }
        Ok(())
    }

    /// Subscripted scalars and over-subscripted arrays panic in the
    /// interpreter's `flat_index`; keep that behavior there.
    fn check_shape(&self, a: VarId, subs: &[Expr]) -> Lower<()> {
        let rank = self.program.symbols.var(a).rank();
        if rank == 0 || subs.is_empty() || subs.len() > rank {
            return Err(LowerReject("subscript-shape"));
        }
        Ok(())
    }

    /// Lowers an array element load.
    fn lower_element_load(&mut self, b: usize, a: VarId, subs: &[Expr]) -> Lower<Val> {
        let real = self.is_real(a);
        let (slot, at) = self.lower_addr(b, a, subs, false)?;
        let load = Pure::Load(slot, at, real);
        if let Addr::Flat(_) = at {
            // Its flat index is fresh: the value is never met again.
            return self.emit_fresh(b, real, |dst| load.op(dst));
        }
        self.pure(b, load)
    }

    /// `a(subs) = src`, the element type's coercion as the operand
    /// conversion.
    fn lower_element_store(&mut self, b: usize, a: VarId, subs: &[Expr], src: Val) -> Lower<()> {
        let (slot, at) = self.lower_addr(b, a, subs, true)?;
        let op = if self.is_real(a) {
            FOp::StoreF {
                slot,
                at,
                src: src.f(),
            }
        } else {
            FOp::StoreI {
                slot,
                at,
                src: src.i(),
            }
        };
        self.emit(b, op);
        Ok(())
    }

    /// The pin slot and address of the element `a(subs)`. The
    /// subscripts are lowered before the slot is taken — for a store
    /// through `store_slot`, so nothing loaded from the array stays
    /// available. One subscript takes its fused form; several go
    /// through an [`FOp::IndexN`].
    fn lower_addr(&mut self, b: usize, a: VarId, subs: &[Expr], store: bool) -> Lower<(u16, Addr)> {
        self.check_shape(a, subs)?;
        let pin = |l: &mut Self| if store { l.store_slot(a) } else { l.slot(a) };
        if let [sub] = subs {
            let at = self.lower_sub1(b, sub)?;
            return Ok((pin(self)?, at));
        }
        let subs = self.lower_subscripts(b, subs)?;
        let slot = pin(self)?;
        let dst = self.alloc(false)?;
        self.emit(b, FOp::IndexN { slot, subs, dst });
        Ok((slot, Addr::Flat(dst)))
    }

    /// Evaluates `subs` left to right, each read as an integer.
    fn lower_subscripts(&mut self, b: usize, subs: &[Expr]) -> Lower<Box<[IOpnd]>> {
        subs.iter()
            .map(|s| Ok(self.lower_expr(b, s)?.i()))
            .collect()
    }

    /// Lowers the subscript of a one-subscript access into its fused
    /// form. The affine base is an integer-declared scalar, so the
    /// wrapping integer add matches `apply_bin`.
    fn lower_sub1(&mut self, b: usize, sub: &Expr) -> Lower<Addr> {
        let int_scalar = |e: &Expr| match e {
            Expr::Var(v) if !self.is_real(*v) => Some(*v),
            _ => None,
        };
        let affine = match sub {
            Expr::Bin(BinOp::Add, x, y) => match (int_scalar(x), y.as_int_lit()) {
                (Some(v), Some(c)) => Some((v, c)),
                _ => int_scalar(y).zip(x.as_int_lit()),
            },
            Expr::Bin(BinOp::Sub, x, y) => {
                int_scalar(x).zip(y.as_int_lit().and_then(i64::checked_neg))
            }
            _ => None,
        };
        if let Some((v, off)) = affine {
            let (_, base) = self.scalar(v)?;
            return Ok(Addr::Aff { base, off });
        }
        // `a(idx(e))` with `idx(e)` a plain one-subscript load: the
        // gather reads the index array itself. An index load that is
        // itself fused stays a load of its own.
        if let Expr::Element(idx_arr, inner) = sub {
            let idx = self.program.symbols.var(*idx_arr);
            if let ([inner], true) = (inner.as_slice(), idx.rank() >= 1) {
                let real = idx.ty == ScalarType::Real;
                let inner = self.lower_sub1(b, inner)?;
                let idx_slot = self.slot(*idx_arr)?;
                return Ok(match inner {
                    Addr::Elem(sub) => Addr::Ind { idx_slot, sub },
                    fused => Addr::Elem(self.pure(b, Pure::Load(idx_slot, fused, real))?.i()),
                });
            }
        }
        Ok(Addr::Elem(self.lower_expr(b, sub)?.i()))
    }

    /// The [`Stream`] of the `do j` loop with this `step` and `body`,
    /// already lowered (so every register and slot it names exists):
    /// `Some` when `j` is an integer, the step is 1, the body is one
    /// assignment of the stream family and its table holds at most
    /// [`ROW_INVS`] entries. Anything else stays on the per-iteration
    /// block alone.
    fn stream_of(&self, j: VarId, step: Option<&Expr>, body: &[StmtId]) -> Option<Stream> {
        let [s] = body else { return None };
        let StmtKind::Assign { lhs, rhs } = &self.program.stmt(*s).kind else {
            return None;
        };
        if self.is_real(j) || step.is_some_and(|e| e.as_int_lit() != Some(1)) {
            return None;
        }
        let invs = RefCell::default();
        let cx = StreamCx {
            l: self,
            j,
            lhs,
            invs: &invs,
        };
        let sink = match lhs {
            LValue::Scalar(v) if self.is_real(*v) => StreamSink::Scalar(self.vars[v.index()].reg?),
            LValue::Scalar(_) => return None,
            LValue::Element(a, subs) => match cx.place(*a, subs)? {
                Place::Varying(at) => StreamSink::At(at),
                Place::Fixed(slot, at) => StreamSink::Elem { slot, at },
            },
        };
        // `P` is the product when there is one, else the operand that
        // is not the sink read back, else the left one.
        let (p, tail) = match rhs {
            Expr::Bin(op @ (BinOp::Add | BinOp::Sub), x, y) => {
                let sub = *op == BinOp::Sub;
                let product = |e: &Expr| matches!(e, Expr::Bin(BinOp::Mul, ..));
                if product(y) || (cx.is_sink(x) && !product(x)) {
                    let t = [StreamTail::CAddP, StreamTail::CSubP][usize::from(sub)];
                    (&**y, Some((t, &**x)))
                } else {
                    let t = [StreamTail::PAddC, StreamTail::PSubC][usize::from(sub)];
                    (&**x, Some((t, &**y)))
                }
            }
            p => (p, None),
        };
        // Every operation must be real: integer arithmetic wraps.
        let (a, b, p_int) = match p {
            Expr::Bin(BinOp::Mul, x, y) => {
                let ((a, a_int), (b, b_int)) = (cx.operand(x)?, cx.operand(y)?);
                if a_int && b_int {
                    return None;
                }
                (a, Some(b), false)
            }
            x => {
                let (a, a_int) = cx.operand(x)?;
                (a, None, a_int)
            }
        };
        let tail = match tail {
            Some((t, c)) => match cx.operand(c)? {
                (_, true) if p_int => return None,
                (c, _) => Some((t, c)),
            },
            None => None,
        };
        // A reduction's running value is its `c`, and nothing else.
        let acc = |r: &StreamRef| matches!(r, StreamRef::Acc);
        let reduces = !matches!(sink, StreamSink::At(_));
        if acc(&a)
            || b.as_ref().is_some_and(acc)
            || reduces != tail.as_ref().is_some_and(|(_, c)| acc(c))
        {
            return None;
        }
        // An accumulator is stored once, so nothing may read its array.
        if let StreamSink::Elem { slot, .. } = sink {
            let reads = |r: &StreamRef| matches!(r, StreamRef::At(at) if at.slot == slot);
            if reads(&a) || b.as_ref().is_some_and(reads) {
                return None;
            }
        }
        let invs = invs.into_inner();
        if invs.len() > ROW_INVS {
            return None;
        }
        let invs = invs.into();
        Some(Stream {
            sink,
            a,
            b,
            tail,
            invs,
        })
    }

    /// The [`Filter`] of the `do j` loop with this `step` and `body`,
    /// already lowered: `Some` when `j` is an integer, the step is 1, the
    /// body is one `if (x cmp inv)` with no `else` whose arm is an append
    /// through an integer pointer `p` — `p = p + 1; t(p) = e` or `t(p) =
    /// e; p = p + 1` — and nothing the stream reads is what the arm
    /// writes: not `t`, not `p`.
    fn filter_of(&self, j: VarId, step: Option<&Expr>, body: &[StmtId]) -> Option<Filter> {
        let kind = |s: &StmtId| &self.program.stmt(*s).kind;
        let [s] = body else { return None };
        let StmtKind::If {
            cond: Expr::Bin(op, x, inv),
            then_body,
            else_body,
        } = kind(s)
        else {
            return None;
        };
        if !op.is_comparison()
            || !else_body.is_empty()
            || self.is_real(j)
            || step.is_some_and(|e| e.as_int_lit() != Some(1))
        {
            return None;
        }
        let [first, second] = then_body.as_slice() else {
            return None;
        };
        // The store `t(p) = e` and the bump `p = p + 1`, in either order.
        let store = |s: &StmtId| match kind(s) {
            StmtKind::Assign {
                lhs: lhs @ LValue::Element(t, subs),
                rhs,
            } => match subs.as_slice() {
                [Expr::Var(p)] => Some((lhs, *t, *p, rhs)),
                _ => None,
            },
            _ => None,
        };
        let bump = |s: &StmtId, p: VarId| match kind(s) {
            StmtKind::Assign {
                lhs: LValue::Scalar(v),
                rhs,
            } => *v == p && bumps(p, rhs),
            _ => false,
        };
        let (bump_first, (lhs, t, p, e)) = match (store(first), store(second)) {
            (Some(st), _) if bump(second, st.2) => (false, st),
            (_, Some(st)) if bump(first, st.2) => (true, st),
            _ => return None,
        };
        if self.is_real(p) || p == j || self.program.symbols.var(t).rank() != 1 {
            return None;
        }
        let (slot, ptr) = (self.vars[t.index()].slot?, self.vars[p.index()].reg?);
        let invs = RefCell::default();
        let cx = StreamCx {
            l: self,
            j,
            lhs,
            invs: &invs,
        };
        // A LINEAR or INDIRECT element of either plane.
        let at = |e: &Expr| match e {
            Expr::Element(a, subs) => match cx.place_in(*a, subs, self.is_real(*a))? {
                Place::Varying(at) => Some(at),
                Place::Fixed(..) => None,
            },
            _ => None,
        };
        // A literal or a scalar the body does not assign, as `Val`.
        let val = |e: &Expr| match e {
            Expr::IntLit(c) => Some(Val::IConst(*c)),
            Expr::RealLit(c) => Some(Val::FConst(*c)),
            Expr::Var(v) if *v != j && *v != p => {
                Some(Val::reg(self.is_real(*v), self.vars[v.index()].reg?))
            }
            _ => None,
        };
        let x = at(x)?;
        let inv = val(inv)?;
        let inv = if self.is_real(self.arrays[usize::from(x.slot)]) || !inv.is_int() {
            PlaneOpnd::Real(inv.f())
        } else {
            PlaneOpnd::Int(inv.i())
        };
        let val = match e {
            Expr::Var(v) if *v == j => FilterVal::Index,
            Expr::Element(..) => FilterVal::At(at(e).filter(|at| at.idx_slot.is_none())?),
            e if self.is_real(t) => FilterVal::Inv(PlaneOpnd::Real(val(e)?.f())),
            e => FilterVal::Inv(PlaneOpnd::Int(val(e)?.i())),
        };
        // Nothing the stream reads may be what it writes.
        let reads = |at: &StreamAt| at.slot == slot || at.idx_slot == Some(slot);
        let invs = invs.into_inner();
        let writes = |term: &(bool, InvTerm)| match term.1 {
            InvTerm::Reg(r) => r == ptr,
            InvTerm::Load { slot: s, .. } => s == slot,
        };
        if reads(&x)
            || matches!(&val, FilterVal::At(at) if reads(at))
            || invs.iter().flat_map(|inv| inv.terms.iter()).any(writes)
            || invs.len() > ROW_INVS
        {
            return None;
        }
        Some(Filter {
            x,
            op: *op,
            inv,
            slot,
            ptr,
            bump_first,
            val,
            invs: invs.into(),
        })
    }

    /// The [`SegStream`] of the `do i` loop with this `step` and `body`,
    /// already lowered (so every register and slot it names exists):
    /// `Some` when `i` is an integer, the step is 1 and the body is
    /// `[init;] do j …; [fin]` — the inner loop carrying a [`Stream`]
    /// with row-invariant bounds, `init` an assignment of a row-invariant
    /// value to the stream's reduction target, `fin` one of
    /// `target = target op v` (an element target only). A lane sink
    /// takes neither, and no INDIRECT operand.
    fn seg_of(&self, i: VarId, step: Option<&Expr>, body: &[StmtId]) -> Option<SegStream> {
        if self.is_real(i) || step.is_some_and(|e| e.as_int_lit() != Some(1)) {
            return None;
        }
        let kind = |s: StmtId| &self.program.stmt(s).kind;
        let at_loop = body.iter().position(|s| kind(*s).is_loop())?;
        let (init, [inner, fin @ ..]) = body.split_at(at_loop) else {
            return None;
        };
        if init.len() > 1 || fin.len() > 1 {
            return None;
        }
        let StmtKind::Do {
            var: j,
            lo,
            hi,
            body: jbody,
            ..
        } = kind(*inner)
        else {
            return None;
        };
        let pos = self.loops.iter().position(|s| s == inner)?;
        let mut stream = self.streams[pos].clone()?;
        let [s] = jbody.as_slice() else { return None };
        let StmtKind::Assign { lhs, .. } = kind(*s) else {
            return None;
        };
        let invs = RefCell::new(stream.invs.to_vec());
        let cx = StreamCx {
            l: self,
            j: *j,
            lhs,
            invs: &invs,
        };
        let (lo, false) = cx.inv(lo)? else {
            return None;
        };
        let (hi, false) = cx.inv(hi)? else {
            return None;
        };
        // Whether an assignment's target is the stream's reduction target.
        let target = |s: &StmtId| match kind(*s) {
            StmtKind::Assign { lhs: t, rhs } if t == lhs => Some(rhs),
            _ => None,
        };
        let ops = [
            Some(&stream.a),
            stream.b.as_ref(),
            stream.tail.as_ref().map(|t| &t.1),
        ];
        let ops = || ops.into_iter().flatten();
        let indirect = |r: &StreamRef| matches!(r, StreamRef::At(at) if at.idx_slot.is_some());
        let (init, fin) = match (&stream.sink, init, fin) {
            (StreamSink::At(at), [], []) => {
                if at.idx_slot.is_some() || ops().any(indirect) {
                    return None;
                }
                (None, None)
            }
            (StreamSink::At(_), ..) => return None,
            (StreamSink::Scalar(_), init, []) => {
                let init = match init {
                    [s] => Some(cx.row_val(target(s)?, None)?),
                    _ => None,
                };
                (init, None)
            }
            (StreamSink::Scalar(_), ..) => return None,
            (&StreamSink::Elem { slot, .. }, init, fin) => {
                let init = match init {
                    [s] => Some(cx.row_val(target(s)?, None)?),
                    _ => None,
                };
                let fin = match fin {
                    [s] => Some(cx.row_fin(target(s)?, slot)?),
                    _ => None,
                };
                (init, fin)
            }
        };
        let row = self.vars[i.index()].reg?;
        let var = self.vars[j.index()].reg?;
        // The stream's operands are resolved once for all rows: none may
        // read the row variable.
        let reads_row = |r: &StreamRef| matches!(r, StreamRef::Inv(FOpnd::IReg(r)) if *r == row);
        if ops().any(reads_row) {
            return None;
        }
        let invs = invs.into_inner();
        if invs.len() > ROW_INVS {
            return None;
        }
        // Every entry that depends on the row has one term that does: the
        // row variable, or a load at an entry `c + i` — the forms the
        // executor evaluates rows in ([`RowForm`]).
        let mut forms: Vec<RowForm> = Vec::with_capacity(invs.len());
        for inv in &invs {
            let plus_row = |at: u16| match forms[usize::from(at)] {
                RowForm::Row { term } => !invs[usize::from(at)].terms[usize::from(term)].0,
                _ => false,
            };
            let on_row = |t: InvTerm| match t {
                InvTerm::Reg(r) => r == row,
                InvTerm::Load { at, .. } => forms[usize::from(at)] != RowForm::Fixed,
            };
            let mut terms = (0u16..).zip(inv.terms.iter()).filter(|(_, t)| on_row(t.1));
            let form = match (terms.next(), terms.next()) {
                (None, _) => RowForm::Fixed,
                (Some((term, (_, InvTerm::Reg(_)))), None) => RowForm::Row { term },
                (Some((term, &(_, InvTerm::Load { at, .. }))), None) if plus_row(at) => {
                    RowForm::Load { term }
                }
                _ => return None,
            };
            forms.push(form);
        }
        stream.invs = invs.into();
        Some(SegStream {
            inner: u16::try_from(pos - 1).ok()?,
            row,
            var,
            stream,
            forms: forms.into(),
            lo,
            hi,
            init,
            fin,
        })
    }
}

/// A one-subscript element of a real rank-1 array in a candidate
/// stream statement: moving with `j`, or at a loop-invariant subscript
/// of the array at a slot.
enum Place {
    Varying(StreamAt),
    Fixed(u16, u16),
}

/// Recognizes the operands of one candidate stream statement.
struct StreamCx<'l, 'p> {
    l: &'l Lowerer<'p>,
    j: VarId,
    lhs: &'p LValue,
    /// The statement's [`Stream::invs`], as met.
    invs: &'l RefCell<Vec<Inv>>,
}

impl StreamCx<'_, '_> {
    /// Whether `v` is a rank-1 array of the wanted plane.
    fn rank1(&self, v: VarId, real: bool) -> bool {
        self.l.program.symbols.var(v).rank() == 1 && self.l.is_real(v) == real
    }

    /// Adds `±e` to `inv` when `e` is a `+`/`−` tree over literals,
    /// integer scalars, invariant loads from integer rank-1 arrays and
    /// at most one `+ j`; whether it met the `j`.
    fn affine(&self, e: &Expr, neg: bool, inv: &mut (i64, Vec<(bool, InvTerm)>)) -> Option<bool> {
        match e {
            Expr::IntLit(c) => {
                let c = if neg { c.checked_neg()? } else { *c };
                inv.0 = inv.0.checked_add(c)?;
            }
            Expr::Var(v) if *v == self.j => return (!neg).then_some(true),
            Expr::Var(v) if !self.l.is_real(*v) => {
                inv.1.push((neg, InvTerm::Reg(self.l.vars[v.index()].reg?)));
            }
            Expr::Element(ptr, subs) if self.rank1(*ptr, false) => {
                let ([sub], slot) = (subs.as_slice(), self.l.vars[ptr.index()].slot?) else {
                    return None;
                };
                let (at, false) = self.inv(sub)? else {
                    return None;
                };
                inv.1.push((neg, InvTerm::Load { slot, at }));
            }
            Expr::Bin(op @ (BinOp::Add | BinOp::Sub), x, y) => {
                let has_x = self.affine(x, neg, inv)?;
                let has_y = self.affine(y, neg != (*op == BinOp::Sub), inv)?;
                return (!(has_x && has_y)).then_some(has_x || has_y);
            }
            _ => return None,
        }
        Some(false)
    }

    /// The table entry of `e` less its `+ j`, and whether it had one.
    /// A load's subscript is entered before the load, an expression
    /// met again is the entry it was.
    fn inv(&self, e: &Expr) -> Option<(u16, bool)> {
        let mut sum = (0, Vec::new());
        let has_j = self.affine(e, false, &mut sum)?;
        let inv = Inv {
            off: sum.0,
            terms: sum.1.into(),
        };
        let mut invs = self.invs.borrow_mut();
        let at = invs.iter().position(|known| *known == inv);
        let at = at.unwrap_or_else(|| {
            invs.push(inv);
            invs.len() - 1
        });
        Some((u16::try_from(at).ok()?, has_j))
    }

    fn place(&self, arr: VarId, subs: &[Expr]) -> Option<Place> {
        self.place_in(arr, subs, true)
    }

    /// [`StreamCx::place`] over a rank-1 array of the `real` plane.
    fn place_in(&self, arr: VarId, subs: &[Expr], real: bool) -> Option<Place> {
        let ([sub], true) = (subs, self.rank1(arr, real)) else {
            return None;
        };
        let slot = self.l.vars[arr.index()].slot?;
        if let Expr::Element(idx, inner) = sub {
            if let ([inner], true) = (inner.as_slice(), self.rank1(*idx, false)) {
                if let (base, true) = self.inv(inner)? {
                    let idx_slot = Some(self.l.vars[idx.index()].slot?);
                    return Some(Place::Varying(StreamAt {
                        slot,
                        idx_slot,
                        base,
                    }));
                }
            }
        }
        Some(match self.inv(sub)? {
            (base, true) => Place::Varying(StreamAt {
                slot,
                idx_slot: None,
                base,
            }),
            (at, false) => Place::Fixed(slot, at),
        })
    }

    /// `e` as a [`RowVal`]: a literal, a scalar neither the row nor its
    /// inner loop assigns (the row variable is set per row), or an
    /// element of a real rank-1 array — not of the array at `not` — at
    /// a row-invariant subscript.
    fn row_val(&self, e: &Expr, not: Option<u16>) -> Option<RowVal> {
        Some(match e {
            Expr::IntLit(c) => RowVal::Inv(FOpnd::Const(*c as f64)),
            Expr::RealLit(c) => RowVal::Inv(FOpnd::Const(*c)),
            Expr::Var(v) if *v != self.j && !self.is_sink(e) => {
                let r = self.l.vars[v.index()].reg?;
                RowVal::Inv(if self.l.is_real(*v) {
                    FOpnd::Reg(r)
                } else {
                    FOpnd::IReg(r)
                })
            }
            Expr::Element(a, subs) => match self.place(*a, subs)? {
                Place::Fixed(slot, at) if Some(slot) != not => RowVal::Elem { slot, at },
                _ => return None,
            },
            _ => return None,
        })
    }

    /// `rhs` of a store of the reduced value into the target at `slot`:
    /// `target op v` or `v op target`, `op` real `+ - *`.
    fn row_fin(&self, rhs: &Expr, slot: u16) -> Option<RowFin> {
        let Expr::Bin(op @ (BinOp::Add | BinOp::Sub | BinOp::Mul), x, y) = rhs else {
            return None;
        };
        let (acc_first, v) = match (self.is_sink(x), self.is_sink(y)) {
            (true, false) => (true, y),
            (false, true) => (false, x),
            _ => return None,
        };
        let v = self.row_val(v, Some(slot))?;
        Some(RowFin {
            op: *op,
            acc_first,
            v,
        })
    }

    /// Whether `e` reads the assignment's own target back.
    fn is_sink(&self, e: &Expr) -> bool {
        match (e, self.lhs) {
            (Expr::Var(v), LValue::Scalar(s)) => v == s,
            (Expr::Element(a, subs), LValue::Element(t, ts)) => a == t && subs == ts,
            _ => false,
        }
    }

    /// One operand and whether it is an integer: a literal, a scalar
    /// the loop does not assign, a LINEAR / INDIRECT element, or the
    /// sink read back.
    fn operand(&self, e: &Expr) -> Option<(StreamRef, bool)> {
        Some(match e {
            Expr::IntLit(c) => (StreamRef::Inv(FOpnd::Const(*c as f64)), true),
            Expr::RealLit(c) => (StreamRef::Inv(FOpnd::Const(*c)), false),
            Expr::Var(_) if self.is_sink(e) => (StreamRef::Acc, false),
            Expr::Var(v) if *v != self.j => {
                let (r, real) = (self.l.vars[v.index()].reg?, self.l.is_real(*v));
                let r = if real { FOpnd::Reg(r) } else { FOpnd::IReg(r) };
                (StreamRef::Inv(r), !real)
            }
            Expr::Element(a, subs) => match self.place(*a, subs)? {
                Place::Varying(at) => (StreamRef::At(at), false),
                Place::Fixed(..) if self.is_sink(e) => (StreamRef::Acc, false),
                Place::Fixed(..) => return None,
            },
            _ => return None,
        })
    }
}
