//! Typed specialization of a [`CompiledBody`]: the second-stage
//! compile that turns the untyped register program into split `i64` /
//! `f64` register planes executed without any [`Value`] boxing.
//!
//! Run as it is, the untyped program would pay the tree-walk's
//! dynamic-type tax: a `Value` enum match per read, `apply_bin`'s
//! type-dispatch per arithmetic op, and a store round-trip per scalar
//! access. All of those types are statically known — scalar and array
//! element types are declared, and every arithmetic op's result type
//! follows `apply_bin`'s promotion rule (`Int op Int → Int`, anything
//! else `→ Real`). `specialize` runs that inference once per loop nest
//! and emits a [`FastBody`]:
//!
//! - **Split register planes.** Every temp and every referenced scalar
//!   gets a slot in an `i64` or `f64` plane; `Int → Real` widening and
//!   Fortran-`INT` truncation become explicit operand forms
//!   ([`IOpnd::FReg`] / [`FOpnd::IReg`]), compiled in exactly where
//!   `Value::as_real` / `Value::as_int` would have run.
//! - **Promoted scalars.** Referenced scalars (induction variables
//!   included) load into registers at loop entry, and the ones the nest
//!   can assign write back through [`Store::set_scalar`] on *every*
//!   exit — success or error — so the store is byte-identical to
//!   per-access traffic at every observable point.
//! - **Pre-pinned arrays, by role.** Eligibility requires every
//!   referenced array to be materialized already (otherwise the chunk
//!   starts on the tree-walk, which materializes lazily in
//!   interpreter order and hands over at the first iteration boundary
//!   where the precondition holds); the specialized run then pins all
//!   payloads up front and never materializes. An array the body
//!   only reads is pinned shared, with no copy; one it stores to is
//!   pinned with the [`WriteSink`] the store lends for it — a raw
//!   write on a plain store, and in a parallel worker the write log,
//!   the in-place window or the append buffer of the dispatch's commit
//!   strategy (see [`RawPin`]).
//! - **Local value numbering.** Duplicate pure ops (subscript
//!   arithmetic, loads) within a straight-line region are eliminated —
//!   safe because compute ops never charge fuel, so the cost ledger is
//!   untouched.
//!
//! A nest the inference cannot type soundly — a register written both
//! `Int` and `Real` across branches — returns `None` and the loop
//! stays on the tree-walk. Parity remains the contract: same fuel
//! ledger positions, same error identities, same store at exit.

use super::{ChunkAbort, ChunkWatch};
use crate::interp::{advance_induction, ArrayData, ExecError, Interp, RawSlice, Value, WriteSink};
use irr_driver::compiled::{CompiledBody, Op, Opnd};
use irr_frontend::{BinOp, Intrinsic, Program, ScalarType, StmtId, VarId};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};

/// Integer-plane operand: a register, an immediate, or a float
/// register read through Fortran-`INT` truncation (`Value::as_int`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum IOpnd {
    Reg(u16),
    Const(i64),
    FReg(u16),
}

/// Float-plane operand: a register, an immediate, or an integer
/// register widened (`Value::as_real`).
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum FOpnd {
    Reg(u16),
    Const(f64),
    IReg(u16),
}

/// One typed instruction. Variants mirror [`Op`], split per plane;
/// `slot` fields index the pinned-array table, not the symbol table.
#[derive(Clone, Debug)]
pub(crate) enum FOp {
    Charge(u64),
    MovI {
        dst: u16,
        src: IOpnd,
    },
    MovF {
        dst: u16,
        src: FOpnd,
    },
    BinI {
        op: BinOp,
        dst: u16,
        a: IOpnd,
        b: IOpnd,
    },
    BinF {
        op: BinOp,
        dst: u16,
        a: FOpnd,
        b: FOpnd,
    },
    NegI {
        dst: u16,
        src: IOpnd,
    },
    NegF {
        dst: u16,
        src: FOpnd,
    },
    CmpI {
        op: BinOp,
        dst: u16,
        a: IOpnd,
        b: IOpnd,
    },
    CmpF {
        op: BinOp,
        dst: u16,
        a: FOpnd,
        b: FOpnd,
    },
    TruthyI {
        dst: u16,
        src: IOpnd,
    },
    TruthyF {
        dst: u16,
        src: FOpnd,
    },
    Not {
        t: u16,
    },
    MinMaxI {
        max: bool,
        dst: u16,
        a: IOpnd,
        b: IOpnd,
    },
    MinMaxF {
        max: bool,
        dst: u16,
        a: FOpnd,
        b: FOpnd,
    },
    AbsI {
        dst: u16,
        src: IOpnd,
    },
    AbsF {
        dst: u16,
        src: FOpnd,
    },
    Real1 {
        f: Intrinsic,
        dst: u16,
        src: FOpnd,
    },
    Jump {
        target: u32,
    },
    JumpIfZero {
        src: u16,
        target: u32,
    },
    JumpIfNonZero {
        src: u16,
        target: u32,
    },
    IndexN {
        slot: u16,
        subs: Box<[IOpnd]>,
        dst: u16,
    },
    LoadAtI {
        slot: u16,
        idx: u16,
        dst: u16,
    },
    LoadAtF {
        slot: u16,
        idx: u16,
        dst: u16,
    },
    StoreAtI {
        slot: u16,
        idx: u16,
        src: IOpnd,
    },
    StoreAtF {
        slot: u16,
        idx: u16,
        src: FOpnd,
    },
    LoadElemI {
        slot: u16,
        sub: IOpnd,
        dst: u16,
    },
    LoadElemF {
        slot: u16,
        sub: IOpnd,
        dst: u16,
    },
    StoreElemI {
        slot: u16,
        sub: IOpnd,
        src: IOpnd,
    },
    StoreElemF {
        slot: u16,
        sub: IOpnd,
        src: FOpnd,
    },
    LoadAffI {
        slot: u16,
        base: u16,
        off: i64,
        dst: u16,
    },
    LoadAffF {
        slot: u16,
        base: u16,
        off: i64,
        dst: u16,
    },
    StoreAffI {
        slot: u16,
        base: u16,
        off: i64,
        src: IOpnd,
    },
    StoreAffF {
        slot: u16,
        base: u16,
        off: i64,
        src: FOpnd,
    },
    GatherI {
        slot: u16,
        idx_slot: u16,
        sub: IOpnd,
        dst: u16,
    },
    GatherF {
        slot: u16,
        idx_slot: u16,
        sub: IOpnd,
        dst: u16,
    },
    ScatterI {
        slot: u16,
        idx_slot: u16,
        sub: IOpnd,
        src: IOpnd,
    },
    ScatterF {
        slot: u16,
        idx_slot: u16,
        sub: IOpnd,
        src: FOpnd,
    },
    AppendI {
        slot: u16,
        ptr: u16,
        src: IOpnd,
    },
    AppendF {
        slot: u16,
        ptr: u16,
        src: FOpnd,
    },
    /// Peephole-fused subscript arithmetic: `dst = a + b + off`, all
    /// wrapping (an add feeding a single add/sub-immediate).
    LeaI {
        dst: u16,
        a: IOpnd,
        b: IOpnd,
        off: i64,
    },
    /// Peephole-fused multiply–add: `dst = a + b * c` with the two
    /// roundings the separate ops performed (never an actual FMA).
    MulAddF {
        dst: u16,
        a: FOpnd,
        b: FOpnd,
        c: FOpnd,
    },
    DoLoop {
        var: u16,
        var_real: bool,
        lidx: u16,
        lo: IOpnd,
        hi: IOpnd,
        step: IOpnd,
        body: u16,
    },
    WhileLoop {
        lidx: u16,
        cond: u16,
        cond_temp: u16,
        body: u16,
    },
}

/// A scalar promoted to a register for the length of a typed run.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Promoted {
    pub(crate) var: VarId,
    pub(crate) reg: u16,
    /// `f64` plane (real-declared) rather than `i64`.
    pub(crate) real: bool,
    /// Whether the nest can assign it: a `SetScalar`/`Accum` target, an
    /// append pointer, or a loop's induction variable (the root's
    /// included). Only these are written back at exit.
    pub(crate) assigned: bool,
}

/// The typed program: plain data (`Send + Sync`), cached per loop
/// statement and shared via `Arc`.
#[derive(Debug)]
pub(crate) struct FastBody {
    pub(crate) blocks: Vec<Vec<FOp>>,
    pub(crate) root: u16,
    pub(crate) n_iregs: u16,
    pub(crate) n_fregs: u16,
    /// Referenced scalars, in `VarId` order.
    pub(crate) scalars: Vec<Promoted>,
    /// Referenced arrays in pin-slot order.
    pub(crate) arrays: Vec<VarId>,
    /// Per pin slot: whether any op stores to the array. A slot the
    /// body only reads is pinned shared; a stored slot gets a
    /// [`WriteSink`].
    pub(crate) stored: Vec<bool>,
    /// Inner loop statements in dense `lidx` order: per-loop stats
    /// accumulate in flat counters during the run and flush into the
    /// `stats.loops` map once per entry, keeping the hash map off the
    /// hot path.
    pub(crate) loop_stmts: Vec<StmtId>,
    pub(crate) root_var: VarId,
    pub(crate) root_reg: u16,
    pub(crate) root_real: bool,
}

impl FastBody {
    /// The scalars the nest can assign, the root induction variable
    /// aside — what a worker's write-back will log.
    pub(crate) fn assigned_scalars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.scalars
            .iter()
            .filter(|p| p.assigned && p.var != self.root_var)
            .map(|p| p.var)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Ty {
    I,
    F,
}

/// Builds the typed program, or `None` when the nest cannot be typed
/// statically (the tree-walk remains correct for it).
pub(crate) fn specialize(program: &Program, cb: &CompiledBody) -> Option<FastBody> {
    Builder::new(program, cb).build()
}

struct Builder<'a> {
    program: &'a Program,
    cb: &'a CompiledBody,
    /// Inferred type per untyped temp.
    tt: Vec<Option<Ty>>,
    /// Writes per untyped temp (for value-numbering eligibility).
    temp_writes: Vec<u32>,
    /// Temp → typed register.
    tmap: Vec<Option<u16>>,
    /// Scalar → (plane, register).
    smap: HashMap<VarId, (Ty, u16)>,
    /// Array → pin slot.
    amap: HashMap<VarId, u16>,
    arrays: Vec<VarId>,
    /// Per pin slot: stored to by some op.
    stored: Vec<bool>,
    /// Scalars some op assigns.
    assigned: HashSet<VarId>,
    loop_stmts: Vec<StmtId>,
    n_iregs: u16,
    n_fregs: u16,
    /// Registers holding an eliminated temp's value (per plane).
    subst_i: HashMap<u16, u16>,
    subst_f: HashMap<u16, u16>,
}

/// Value-numbering key for a pure op (dst stripped; float immediates
/// keyed by bit pattern).
#[derive(Clone, PartialEq, Eq, Hash)]
enum VnKey {
    BinI(BinOp, IOpnd, IOpnd),
    BinF(BinOp, FBits, FBits),
    LoadAff(u16, u16, i64),
    LoadElem(u16, IOpnd),
    Gather(u16, u16, IOpnd),
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum FBits {
    Reg(u16),
    Const(u64),
    IReg(u16),
}

fn fbits(o: FOpnd) -> FBits {
    match o {
        FOpnd::Reg(r) => FBits::Reg(r),
        FOpnd::Const(c) => FBits::Const(c.to_bits()),
        FOpnd::IReg(r) => FBits::IReg(r),
    }
}

impl<'a> Builder<'a> {
    fn new(program: &'a Program, cb: &'a CompiledBody) -> Builder<'a> {
        Builder {
            program,
            cb,
            tt: vec![None; cb.register_count()],
            temp_writes: vec![0; cb.register_count()],
            tmap: vec![None; cb.register_count()],
            smap: HashMap::new(),
            amap: HashMap::new(),
            arrays: Vec::new(),
            stored: Vec::new(),
            assigned: HashSet::new(),
            loop_stmts: Vec::new(),
            n_iregs: 0,
            n_fregs: 0,
            subst_i: HashMap::new(),
            subst_f: HashMap::new(),
        }
    }

    fn sty(&self, v: VarId) -> Ty {
        match self.program.symbols.var(v).ty {
            ScalarType::Int => Ty::I,
            ScalarType::Real => Ty::F,
        }
    }

    fn ety(&self, a: VarId) -> Ty {
        // Array element type is the declared scalar type.
        self.sty(a)
    }

    fn opnd_ty(&self, o: Opnd) -> Option<Ty> {
        match o {
            Opnd::T(t) => self.tt[t as usize],
            Opnd::S(v) => Some(self.sty(v)),
            Opnd::I(_) => Some(Ty::I),
            Opnd::R(_) => Some(Ty::F),
        }
    }

    /// `apply_bin` / min-max promotion: `Int op Int → Int`, else Real.
    fn join(&self, a: Opnd, b: Opnd) -> Option<Ty> {
        match (self.opnd_ty(a)?, self.opnd_ty(b)?) {
            (Ty::I, Ty::I) => Some(Ty::I),
            _ => Some(Ty::F),
        }
    }

    /// The type an op writes into its destination temp, if its
    /// operand types are known yet.
    fn write_ty(&self, op: &Op) -> Option<(u16, Option<Ty>)> {
        Some(match op {
            Op::Mov { dst, src } => (*dst, self.opnd_ty(*src)),
            Op::Bin { dst, a, b, .. } => (*dst, self.join(*a, *b)),
            Op::Neg { dst, src } => (*dst, self.opnd_ty(*src)),
            Op::Cmp { dst, .. } | Op::Truthy { dst, .. } => (*dst, Some(Ty::I)),
            Op::Not { t } => (*t, Some(Ty::I)),
            Op::Intr1 { f, dst, a } => match f {
                Intrinsic::Abs => (*dst, self.opnd_ty(*a)),
                Intrinsic::Int => (*dst, Some(Ty::I)),
                Intrinsic::Real
                | Intrinsic::Sqrt
                | Intrinsic::Sin
                | Intrinsic::Cos
                | Intrinsic::Exp
                | Intrinsic::Log => (*dst, Some(Ty::F)),
                // Two-argument intrinsics never lower to Intr1.
                _ => (*dst, None),
            },
            Op::Intr2 { f, dst, a, b } => match f {
                Intrinsic::Min | Intrinsic::Max | Intrinsic::Mod => (*dst, self.join(*a, *b)),
                _ => (*dst, None),
            },
            Op::IndexN { dst, .. } => (*dst, Some(Ty::I)),
            Op::LoadAt { arr, dst, .. }
            | Op::LoadElem1 { arr, dst, .. }
            | Op::LoadAffine { arr, dst, .. }
            | Op::Gather { arr, dst, .. } => (*dst, Some(self.ety(*arr))),
            _ => return None,
        })
    }

    /// Fixed-point type inference over all temps; `None` on a
    /// conflicting (path-dependent) register type.
    fn infer(&mut self) -> Option<()> {
        for block in self.cb.blocks() {
            for op in block {
                if let Some((d, _)) = self.write_ty(op) {
                    self.temp_writes[d as usize] += 1;
                }
            }
        }
        loop {
            let mut changed = false;
            for block in self.cb.blocks() {
                for op in block {
                    let Some((d, Some(ty))) = self.write_ty(op) else {
                        continue;
                    };
                    match self.tt[d as usize] {
                        None => {
                            self.tt[d as usize] = Some(ty);
                            changed = true;
                        }
                        Some(prev) if prev != ty => return None,
                        Some(_) => {}
                    }
                }
            }
            if !changed {
                return Some(());
            }
        }
    }

    fn alloc(&mut self, ty: Ty) -> Option<u16> {
        let n = match ty {
            Ty::I => &mut self.n_iregs,
            Ty::F => &mut self.n_fregs,
        };
        let r = *n;
        *n = n.checked_add(1)?;
        Some(r)
    }

    fn temp_reg(&mut self, t: u16) -> Option<(Ty, u16)> {
        let ty = self.tt[t as usize]?;
        if self.tmap[t as usize].is_none() {
            let r = self.alloc(ty)?;
            self.tmap[t as usize] = Some(r);
        }
        Some((ty, self.tmap[t as usize].expect("just mapped")))
    }

    fn scalar_reg(&mut self, v: VarId) -> Option<(Ty, u16)> {
        if let Some(&e) = self.smap.get(&v) {
            return Some(e);
        }
        let ty = self.sty(v);
        let r = self.alloc(ty)?;
        self.smap.insert(v, (ty, r));
        Some((ty, r))
    }

    fn slot(&mut self, a: VarId) -> Option<u16> {
        if let Some(&s) = self.amap.get(&a) {
            return Some(s);
        }
        let s = u16::try_from(self.arrays.len()).ok()?;
        self.amap.insert(a, s);
        self.arrays.push(a);
        self.stored.push(false);
        Some(s)
    }

    /// The pin slot of an array the op being translated stores to.
    fn store_slot(&mut self, a: VarId) -> Option<u16> {
        let s = self.slot(a)?;
        self.stored[s as usize] = true;
        Some(s)
    }

    /// The register of a scalar the op being translated assigns.
    fn assigned_reg(&mut self, v: VarId) -> Option<(Ty, u16)> {
        self.assigned.insert(v);
        self.scalar_reg(v)
    }

    /// Dense counter slot for an inner loop statement. Each loop op
    /// appears once in the bytecode, so slots are allocated at
    /// translation sites rather than interned.
    fn loop_idx(&mut self, stmt: StmtId) -> Option<u16> {
        let lidx = u16::try_from(self.loop_stmts.len()).ok()?;
        self.loop_stmts.push(stmt);
        Some(lidx)
    }

    /// Reads `t` as an already-assigned register, following the
    /// value-numbering substitution.
    fn read_temp(&mut self, t: u16) -> Option<(Ty, u16)> {
        let (ty, r) = self.temp_reg(t)?;
        let r = match ty {
            Ty::I => *self.subst_i.get(&r).unwrap_or(&r),
            Ty::F => *self.subst_f.get(&r).unwrap_or(&r),
        };
        Some((ty, r))
    }

    fn iopnd(&mut self, o: Opnd) -> Option<IOpnd> {
        Some(match o {
            Opnd::T(t) => match self.read_temp(t)? {
                (Ty::I, r) => IOpnd::Reg(r),
                (Ty::F, r) => IOpnd::FReg(r),
            },
            Opnd::S(v) => match self.scalar_reg(v)? {
                (Ty::I, r) => IOpnd::Reg(r),
                (Ty::F, r) => IOpnd::FReg(r),
            },
            Opnd::I(c) => IOpnd::Const(c),
            // `Value::as_int` truncation, folded at compile time.
            Opnd::R(c) => IOpnd::Const(c as i64),
        })
    }

    fn fopnd(&mut self, o: Opnd) -> Option<FOpnd> {
        Some(match o {
            Opnd::T(t) => match self.read_temp(t)? {
                (Ty::I, r) => FOpnd::IReg(r),
                (Ty::F, r) => FOpnd::Reg(r),
            },
            Opnd::S(v) => match self.scalar_reg(v)? {
                (Ty::I, r) => FOpnd::IReg(r),
                (Ty::F, r) => FOpnd::Reg(r),
            },
            Opnd::I(c) => FOpnd::Const(c as f64),
            Opnd::R(c) => FOpnd::Const(c),
        })
    }

    /// An integer-plane register read (jump conditions, append
    /// pointers); `None` if the value lives in the float plane.
    fn ireg(&mut self, t: u16) -> Option<u16> {
        match self.read_temp(t)? {
            (Ty::I, r) => Some(r),
            (Ty::F, _) => None,
        }
    }

    fn build(mut self) -> Option<FastBody> {
        self.infer()?;
        let cb = self.cb;
        let root_var = cb.root_var().0;
        let (root_ty, root_reg) = self.assigned_reg(root_var)?;
        let mut blocks = Vec::with_capacity(cb.blocks().len());
        for b in 0..cb.blocks().len() {
            blocks.push(self.build_block(b)?);
        }
        let mut scalars: Vec<Promoted> = self
            .smap
            .iter()
            .map(|(&var, &(ty, reg))| Promoted {
                var,
                reg,
                real: ty == Ty::F,
                assigned: self.assigned.contains(&var),
            })
            .collect();
        scalars.sort_by_key(|p| p.var.index());
        let mut fb = FastBody {
            blocks,
            root: cb.root(),
            n_iregs: self.n_iregs,
            n_fregs: self.n_fregs,
            scalars,
            arrays: self.arrays,
            stored: self.stored,
            loop_stmts: self.loop_stmts,
            root_var,
            root_reg,
            root_real: root_ty == Ty::F,
        };
        peephole(&mut fb);
        Some(fb)
    }

    /// Translates one block, remapping jump targets and running local
    /// value numbering over the pure ops.
    fn build_block(&mut self, b: usize) -> Option<Vec<FOp>> {
        let ops = &self.cb.blocks()[b];
        // Join points: value availability must not cross a label.
        let mut labels = vec![false; ops.len() + 1];
        for op in ops {
            if let Op::Jump { target }
            | Op::JumpIfZero { target, .. }
            | Op::JumpIfNonZero { target, .. } = op
            {
                labels[*target as usize] = true;
            }
        }
        let mut out: Vec<FOp> = Vec::with_capacity(ops.len());
        // New position of each original op (plus one-past-the-end).
        let mut pos = vec![0u32; ops.len() + 1];
        let mut avail: HashMap<VnKey, (Ty, u16)> = HashMap::new();
        for (k, op) in ops.iter().enumerate() {
            pos[k] = out.len() as u32;
            if labels[k] {
                avail.clear();
            }
            self.translate(op, &mut out, &mut avail)?;
        }
        pos[ops.len()] = out.len() as u32;
        for fop in &mut out {
            match fop {
                FOp::Jump { target }
                | FOp::JumpIfZero { target, .. }
                | FOp::JumpIfNonZero { target, .. } => *target = pos[*target as usize],
                _ => {}
            }
        }
        Some(out)
    }

    /// Drops value-numbering entries invalidated by a write to
    /// register `r` of plane `ty`.
    fn kill_reg(avail: &mut HashMap<VnKey, (Ty, u16)>, ty: Ty, r: u16) {
        let uses_i = |o: &IOpnd| match (ty, o) {
            (Ty::I, IOpnd::Reg(x)) | (Ty::F, IOpnd::FReg(x)) => *x == r,
            _ => false,
        };
        let uses_f = |o: &FBits| match (ty, o) {
            (Ty::F, FBits::Reg(x)) | (Ty::I, FBits::IReg(x)) => *x == r,
            _ => false,
        };
        avail.retain(|k, v| {
            if *v == (ty, r) {
                return false;
            }
            !match k {
                VnKey::BinI(_, a, b) => uses_i(a) || uses_i(b),
                VnKey::BinF(_, a, b) => uses_f(a) || uses_f(b),
                VnKey::LoadAff(_, base, _) => ty == Ty::I && *base == r,
                VnKey::LoadElem(_, s) | VnKey::Gather(_, _, s) => uses_i(s),
            }
        });
    }

    /// Drops value-numbering entries that load from array `slot`.
    fn kill_slot(avail: &mut HashMap<VnKey, (Ty, u16)>, slot: u16) {
        avail.retain(|k, _| match k {
            VnKey::LoadAff(s, ..) | VnKey::LoadElem(s, _) => *s != slot,
            VnKey::Gather(s, is, _) => *s != slot && *is != slot,
            _ => true,
        });
    }

    /// Emits a pure op unless an identical value is already available;
    /// either way the result register is recorded for reuse.
    #[allow(clippy::too_many_arguments)]
    fn emit_vn(
        &mut self,
        out: &mut Vec<FOp>,
        avail: &mut HashMap<VnKey, (Ty, u16)>,
        key: VnKey,
        dst_temp: u16,
        ty: Ty,
        dst: u16,
        fop: FOp,
    ) {
        if self.temp_writes[dst_temp as usize] == 1 {
            if let Some(&(pty, prev)) = avail.get(&key) {
                if pty == ty {
                    match ty {
                        Ty::I => self.subst_i.insert(dst, prev),
                        Ty::F => self.subst_f.insert(dst, prev),
                    };
                    return;
                }
            }
            avail.insert(key, (ty, dst));
        } else {
            Self::kill_reg(avail, ty, dst);
        }
        out.push(fop);
    }

    fn translate(
        &mut self,
        op: &Op,
        out: &mut Vec<FOp>,
        avail: &mut HashMap<VnKey, (Ty, u16)>,
    ) -> Option<()> {
        match op {
            Op::Charge(n) => out.push(FOp::Charge(*n)),
            Op::Mov { dst, src } => {
                let (ty, d) = self.temp_reg(*dst)?;
                Self::kill_reg(avail, ty, d);
                match ty {
                    Ty::I => {
                        let s = self.iopnd(*src)?;
                        out.push(FOp::MovI { dst: d, src: s });
                    }
                    Ty::F => {
                        let s = self.fopnd(*src)?;
                        out.push(FOp::MovF { dst: d, src: s });
                    }
                }
            }
            Op::Bin { op, dst, a, b } => {
                let (ty, d) = self.temp_reg(*dst)?;
                match ty {
                    Ty::I => {
                        let (x, y) = (self.iopnd(*a)?, self.iopnd(*b)?);
                        self.emit_vn(
                            out,
                            avail,
                            VnKey::BinI(*op, x, y),
                            *dst,
                            ty,
                            d,
                            FOp::BinI {
                                op: *op,
                                dst: d,
                                a: x,
                                b: y,
                            },
                        );
                    }
                    Ty::F => {
                        let (x, y) = (self.fopnd(*a)?, self.fopnd(*b)?);
                        self.emit_vn(
                            out,
                            avail,
                            VnKey::BinF(*op, fbits(x), fbits(y)),
                            *dst,
                            ty,
                            d,
                            FOp::BinF {
                                op: *op,
                                dst: d,
                                a: x,
                                b: y,
                            },
                        );
                    }
                }
            }
            Op::Neg { dst, src } => {
                let (ty, d) = self.temp_reg(*dst)?;
                Self::kill_reg(avail, ty, d);
                match ty {
                    Ty::I => {
                        let s = self.iopnd(*src)?;
                        out.push(FOp::NegI { dst: d, src: s });
                    }
                    Ty::F => {
                        let s = self.fopnd(*src)?;
                        out.push(FOp::NegF { dst: d, src: s });
                    }
                }
            }
            Op::Cmp { op, dst, a, b } => {
                let (_, d) = self.temp_reg(*dst)?;
                Self::kill_reg(avail, Ty::I, d);
                // eval_cond: exact integer compare only when both
                // sides are integers.
                if self.join(*a, *b)? == Ty::I {
                    let (x, y) = (self.iopnd(*a)?, self.iopnd(*b)?);
                    out.push(FOp::CmpI {
                        op: *op,
                        dst: d,
                        a: x,
                        b: y,
                    });
                } else {
                    let (x, y) = (self.fopnd(*a)?, self.fopnd(*b)?);
                    out.push(FOp::CmpF {
                        op: *op,
                        dst: d,
                        a: x,
                        b: y,
                    });
                }
            }
            Op::Truthy { dst, src } => {
                let (_, d) = self.temp_reg(*dst)?;
                Self::kill_reg(avail, Ty::I, d);
                match self.opnd_ty(*src)? {
                    Ty::I => {
                        let s = self.iopnd(*src)?;
                        out.push(FOp::TruthyI { dst: d, src: s });
                    }
                    Ty::F => {
                        let s = self.fopnd(*src)?;
                        out.push(FOp::TruthyF { dst: d, src: s });
                    }
                }
            }
            Op::Not { t } => {
                let r = self.ireg(*t)?;
                Self::kill_reg(avail, Ty::I, r);
                out.push(FOp::Not { t: r });
            }
            Op::Intr1 { f, dst, a } => {
                let (ty, d) = self.temp_reg(*dst)?;
                Self::kill_reg(avail, ty, d);
                match f {
                    Intrinsic::Abs => match ty {
                        Ty::I => {
                            let s = self.iopnd(*a)?;
                            out.push(FOp::AbsI { dst: d, src: s });
                        }
                        Ty::F => {
                            let s = self.fopnd(*a)?;
                            out.push(FOp::AbsF { dst: d, src: s });
                        }
                    },
                    Intrinsic::Int => {
                        let s = self.iopnd(*a)?;
                        out.push(FOp::MovI { dst: d, src: s });
                    }
                    Intrinsic::Real => {
                        let s = self.fopnd(*a)?;
                        out.push(FOp::MovF { dst: d, src: s });
                    }
                    Intrinsic::Sqrt
                    | Intrinsic::Sin
                    | Intrinsic::Cos
                    | Intrinsic::Exp
                    | Intrinsic::Log => {
                        let s = self.fopnd(*a)?;
                        out.push(FOp::Real1 {
                            f: *f,
                            dst: d,
                            src: s,
                        });
                    }
                    _ => return None,
                }
            }
            Op::Intr2 { f, dst, a, b } => {
                let (ty, d) = self.temp_reg(*dst)?;
                Self::kill_reg(avail, ty, d);
                match f {
                    Intrinsic::Min | Intrinsic::Max => {
                        let max = matches!(f, Intrinsic::Max);
                        match ty {
                            Ty::I => {
                                let (x, y) = (self.iopnd(*a)?, self.iopnd(*b)?);
                                out.push(FOp::MinMaxI {
                                    max,
                                    dst: d,
                                    a: x,
                                    b: y,
                                });
                            }
                            Ty::F => {
                                let (x, y) = (self.fopnd(*a)?, self.fopnd(*b)?);
                                out.push(FOp::MinMaxF {
                                    max,
                                    dst: d,
                                    a: x,
                                    b: y,
                                });
                            }
                        }
                    }
                    Intrinsic::Mod => match ty {
                        Ty::I => {
                            let (x, y) = (self.iopnd(*a)?, self.iopnd(*b)?);
                            self.emit_vn(
                                out,
                                avail,
                                VnKey::BinI(BinOp::Mod, x, y),
                                *dst,
                                ty,
                                d,
                                FOp::BinI {
                                    op: BinOp::Mod,
                                    dst: d,
                                    a: x,
                                    b: y,
                                },
                            );
                        }
                        Ty::F => {
                            let (x, y) = (self.fopnd(*a)?, self.fopnd(*b)?);
                            out.push(FOp::BinF {
                                op: BinOp::Mod,
                                dst: d,
                                a: x,
                                b: y,
                            });
                        }
                    },
                    _ => return None,
                }
            }
            Op::Jump { target } => out.push(FOp::Jump { target: *target }),
            Op::JumpIfZero { src, target } => {
                let r = self.ireg(*src)?;
                out.push(FOp::JumpIfZero {
                    src: r,
                    target: *target,
                });
            }
            Op::JumpIfNonZero { src, target } => {
                let r = self.ireg(*src)?;
                out.push(FOp::JumpIfNonZero {
                    src: r,
                    target: *target,
                });
            }
            Op::IndexN { arr, base, n, dst } => {
                let slot = self.slot(*arr)?;
                let (_, d) = self.temp_reg(*dst)?;
                Self::kill_reg(avail, Ty::I, d);
                let mut subs = Vec::with_capacity(*n as usize);
                for k in 0..*n as usize {
                    subs.push(self.iopnd(Opnd::T(*base + k as u16))?);
                }
                out.push(FOp::IndexN {
                    slot,
                    subs: subs.into_boxed_slice(),
                    dst: d,
                });
            }
            Op::LoadAt { arr, idx, dst } => {
                let slot = self.slot(*arr)?;
                let i = self.ireg(*idx)?;
                let (ty, d) = self.temp_reg(*dst)?;
                Self::kill_reg(avail, ty, d);
                out.push(match ty {
                    Ty::I => FOp::LoadAtI {
                        slot,
                        idx: i,
                        dst: d,
                    },
                    Ty::F => FOp::LoadAtF {
                        slot,
                        idx: i,
                        dst: d,
                    },
                });
            }
            Op::StoreAt { arr, idx, src } => {
                let slot = self.store_slot(*arr)?;
                let i = self.ireg(*idx)?;
                Self::kill_slot(avail, slot);
                out.push(match self.ety(*arr) {
                    Ty::I => FOp::StoreAtI {
                        slot,
                        idx: i,
                        src: self.iopnd(*src)?,
                    },
                    Ty::F => FOp::StoreAtF {
                        slot,
                        idx: i,
                        src: self.fopnd(*src)?,
                    },
                });
            }
            Op::LoadElem1 { arr, sub, dst } => {
                let slot = self.slot(*arr)?;
                let s = self.iopnd(*sub)?;
                let (ty, d) = self.temp_reg(*dst)?;
                let fop = match ty {
                    Ty::I => FOp::LoadElemI {
                        slot,
                        sub: s,
                        dst: d,
                    },
                    Ty::F => FOp::LoadElemF {
                        slot,
                        sub: s,
                        dst: d,
                    },
                };
                self.emit_vn(out, avail, VnKey::LoadElem(slot, s), *dst, ty, d, fop);
            }
            Op::StoreElem1 { arr, sub, src } => {
                let slot = self.store_slot(*arr)?;
                let s = self.iopnd(*sub)?;
                Self::kill_slot(avail, slot);
                out.push(match self.ety(*arr) {
                    Ty::I => FOp::StoreElemI {
                        slot,
                        sub: s,
                        src: self.iopnd(*src)?,
                    },
                    Ty::F => FOp::StoreElemF {
                        slot,
                        sub: s,
                        src: self.fopnd(*src)?,
                    },
                });
            }
            Op::LoadAffine {
                arr,
                base,
                off,
                dst,
            } => {
                let slot = self.slot(*arr)?;
                // The fused base is an int-declared scalar by
                // construction.
                let (bty, br) = self.scalar_reg(*base)?;
                if bty != Ty::I {
                    return None;
                }
                let (ty, d) = self.temp_reg(*dst)?;
                let fop = match ty {
                    Ty::I => FOp::LoadAffI {
                        slot,
                        base: br,
                        off: *off,
                        dst: d,
                    },
                    Ty::F => FOp::LoadAffF {
                        slot,
                        base: br,
                        off: *off,
                        dst: d,
                    },
                };
                self.emit_vn(out, avail, VnKey::LoadAff(slot, br, *off), *dst, ty, d, fop);
            }
            Op::StoreAffine {
                arr,
                base,
                off,
                src,
            } => {
                let slot = self.store_slot(*arr)?;
                let (bty, br) = self.scalar_reg(*base)?;
                if bty != Ty::I {
                    return None;
                }
                Self::kill_slot(avail, slot);
                out.push(match self.ety(*arr) {
                    Ty::I => FOp::StoreAffI {
                        slot,
                        base: br,
                        off: *off,
                        src: self.iopnd(*src)?,
                    },
                    Ty::F => FOp::StoreAffF {
                        slot,
                        base: br,
                        off: *off,
                        src: self.fopnd(*src)?,
                    },
                });
            }
            Op::Gather {
                arr,
                idx_arr,
                sub,
                dst,
            } => {
                let slot = self.slot(*arr)?;
                let idx_slot = self.slot(*idx_arr)?;
                let s = self.iopnd(*sub)?;
                let (ty, d) = self.temp_reg(*dst)?;
                let fop = match ty {
                    Ty::I => FOp::GatherI {
                        slot,
                        idx_slot,
                        sub: s,
                        dst: d,
                    },
                    Ty::F => FOp::GatherF {
                        slot,
                        idx_slot,
                        sub: s,
                        dst: d,
                    },
                };
                self.emit_vn(
                    out,
                    avail,
                    VnKey::Gather(slot, idx_slot, s),
                    *dst,
                    ty,
                    d,
                    fop,
                );
            }
            Op::Scatter {
                arr,
                idx_arr,
                sub,
                src,
            } => {
                let slot = self.store_slot(*arr)?;
                let idx_slot = self.slot(*idx_arr)?;
                let s = self.iopnd(*sub)?;
                Self::kill_slot(avail, slot);
                out.push(match self.ety(*arr) {
                    Ty::I => FOp::ScatterI {
                        slot,
                        idx_slot,
                        sub: s,
                        src: self.iopnd(*src)?,
                    },
                    Ty::F => FOp::ScatterF {
                        slot,
                        idx_slot,
                        sub: s,
                        src: self.fopnd(*src)?,
                    },
                });
            }
            Op::SetScalar { var, src, .. } => {
                let (ty, r) = self.assigned_reg(*var)?;
                Self::kill_reg(avail, ty, r);
                // set_scalar's declared-type coercion is the operand
                // conversion.
                out.push(match ty {
                    Ty::I => FOp::MovI {
                        dst: r,
                        src: self.iopnd(*src)?,
                    },
                    Ty::F => FOp::MovF {
                        dst: r,
                        src: self.fopnd(*src)?,
                    },
                });
            }
            Op::Accum {
                var, op, rev, src, ..
            } => {
                let (ty, r) = self.assigned_reg(*var)?;
                Self::kill_reg(avail, ty, r);
                let src_ty = self.opnd_ty(*src)?;
                match (ty, src_ty) {
                    (Ty::I, Ty::I) => {
                        let s = self.iopnd(*src)?;
                        let (a, b) = if *rev {
                            (s, IOpnd::Reg(r))
                        } else {
                            (IOpnd::Reg(r), s)
                        };
                        out.push(FOp::BinI {
                            op: *op,
                            dst: r,
                            a,
                            b,
                        });
                    }
                    (Ty::I, Ty::F) => {
                        // Mixed accumulate into an integer scalar:
                        // real-promoted arithmetic, then the
                        // set_scalar truncation.
                        let s = self.fopnd(*src)?;
                        let t = self.alloc(Ty::F)?;
                        let (a, b) = if *rev {
                            (s, FOpnd::IReg(r))
                        } else {
                            (FOpnd::IReg(r), s)
                        };
                        out.push(FOp::BinF {
                            op: *op,
                            dst: t,
                            a,
                            b,
                        });
                        out.push(FOp::MovI {
                            dst: r,
                            src: IOpnd::FReg(t),
                        });
                    }
                    (Ty::F, _) => {
                        let s = self.fopnd(*src)?;
                        let (a, b) = if *rev {
                            (s, FOpnd::Reg(r))
                        } else {
                            (FOpnd::Reg(r), s)
                        };
                        out.push(FOp::BinF {
                            op: *op,
                            dst: r,
                            a,
                            b,
                        });
                    }
                }
            }
            Op::Append { arr, ptr, src, .. } => {
                let slot = self.store_slot(*arr)?;
                // The fused pointer is int-declared by construction.
                let (pty, pr) = self.assigned_reg(*ptr)?;
                if pty != Ty::I {
                    return None;
                }
                Self::kill_slot(avail, slot);
                Self::kill_reg(avail, Ty::I, pr);
                out.push(match self.ety(*arr) {
                    Ty::I => FOp::AppendI {
                        slot,
                        ptr: pr,
                        src: self.iopnd(*src)?,
                    },
                    Ty::F => FOp::AppendF {
                        slot,
                        ptr: pr,
                        src: self.fopnd(*src)?,
                    },
                });
            }
            Op::DoLoop {
                var,
                stmt,
                lo,
                hi,
                step,
                body,
                ..
            } => {
                let (vty, vr) = self.assigned_reg(*var)?;
                let (lo, hi, step) = (self.iopnd(*lo)?, self.iopnd(*hi)?, self.iopnd(*step)?);
                let lidx = self.loop_idx(*stmt)?;
                avail.clear();
                out.push(FOp::DoLoop {
                    var: vr,
                    var_real: vty == Ty::F,
                    lidx,
                    lo,
                    hi,
                    step,
                    body: *body,
                });
            }
            Op::WhileLoop {
                stmt,
                cond,
                cond_temp,
                body,
            } => {
                let ct = self.ireg(*cond_temp)?;
                let lidx = self.loop_idx(*stmt)?;
                avail.clear();
                out.push(FOp::WhileLoop {
                    lidx,
                    cond: *cond,
                    cond_temp: ct,
                    body: *body,
                });
            }
        }
        Some(())
    }
}

/// Per-plane register read/write counts plus the registers whose
/// values are observable outside the bytecode (promoted scalars are
/// written back at exit; the root induction register is driven by the
/// outer loop). Fusion may only erase a register that is written once,
/// read once, and not externally observable.
struct RegUse {
    ird: Vec<u32>,
    iwr: Vec<u32>,
    frd: Vec<u32>,
    fwr: Vec<u32>,
    ipin: Vec<bool>,
    fpin: Vec<bool>,
}

impl RegUse {
    fn scan(fb: &FastBody) -> RegUse {
        let mut u = RegUse {
            ird: vec![0; fb.n_iregs as usize],
            iwr: vec![0; fb.n_iregs as usize],
            frd: vec![0; fb.n_fregs as usize],
            fwr: vec![0; fb.n_fregs as usize],
            ipin: vec![false; fb.n_iregs as usize],
            fpin: vec![false; fb.n_fregs as usize],
        };
        for p in &fb.scalars {
            if p.real {
                u.fpin[p.reg as usize] = true;
            } else {
                u.ipin[p.reg as usize] = true;
            }
        }
        for b in &fb.blocks {
            for op in b {
                u.count(op);
            }
        }
        u
    }

    fn rd_i(&mut self, o: IOpnd) {
        match o {
            IOpnd::Reg(r) => self.ird[r as usize] += 1,
            IOpnd::FReg(r) => self.frd[r as usize] += 1,
            IOpnd::Const(_) => {}
        }
    }

    fn rd_f(&mut self, o: FOpnd) {
        match o {
            FOpnd::Reg(r) => self.frd[r as usize] += 1,
            FOpnd::IReg(r) => self.ird[r as usize] += 1,
            FOpnd::Const(_) => {}
        }
    }

    fn count(&mut self, op: &FOp) {
        match op {
            FOp::Charge(_) | FOp::Jump { .. } => {}
            FOp::MovI { dst, src } => {
                self.rd_i(*src);
                self.iwr[*dst as usize] += 1;
            }
            FOp::MovF { dst, src } => {
                self.rd_f(*src);
                self.fwr[*dst as usize] += 1;
            }
            FOp::BinI { dst, a, b, .. } | FOp::CmpI { dst, a, b, .. } => {
                self.rd_i(*a);
                self.rd_i(*b);
                self.iwr[*dst as usize] += 1;
            }
            FOp::MinMaxI { dst, a, b, .. } => {
                self.rd_i(*a);
                self.rd_i(*b);
                self.iwr[*dst as usize] += 1;
            }
            FOp::BinF { dst, a, b, .. } | FOp::MinMaxF { dst, a, b, .. } => {
                self.rd_f(*a);
                self.rd_f(*b);
                self.fwr[*dst as usize] += 1;
            }
            FOp::CmpF { dst, a, b, .. } => {
                self.rd_f(*a);
                self.rd_f(*b);
                self.iwr[*dst as usize] += 1;
            }
            FOp::NegI { dst, src } | FOp::AbsI { dst, src } => {
                self.rd_i(*src);
                self.iwr[*dst as usize] += 1;
            }
            FOp::NegF { dst, src } | FOp::AbsF { dst, src } => {
                self.rd_f(*src);
                self.fwr[*dst as usize] += 1;
            }
            FOp::TruthyI { dst, src } => {
                self.rd_i(*src);
                self.iwr[*dst as usize] += 1;
            }
            FOp::TruthyF { dst, src } => {
                self.rd_f(*src);
                self.iwr[*dst as usize] += 1;
            }
            FOp::Not { t } => {
                self.ird[*t as usize] += 1;
                self.iwr[*t as usize] += 1;
            }
            FOp::Real1 { dst, src, .. } => {
                self.rd_f(*src);
                self.fwr[*dst as usize] += 1;
            }
            FOp::JumpIfZero { src, .. } | FOp::JumpIfNonZero { src, .. } => {
                self.ird[*src as usize] += 1;
            }
            FOp::IndexN { subs, dst, .. } => {
                for &s in subs.iter() {
                    self.rd_i(s);
                }
                self.iwr[*dst as usize] += 1;
            }
            FOp::LoadAtI { idx, dst, .. } => {
                self.ird[*idx as usize] += 1;
                self.iwr[*dst as usize] += 1;
            }
            FOp::LoadAtF { idx, dst, .. } => {
                self.ird[*idx as usize] += 1;
                self.fwr[*dst as usize] += 1;
            }
            FOp::StoreAtI { idx, src, .. } => {
                self.ird[*idx as usize] += 1;
                self.rd_i(*src);
            }
            FOp::StoreAtF { idx, src, .. } => {
                self.ird[*idx as usize] += 1;
                self.rd_f(*src);
            }
            FOp::LoadElemI { sub, dst, .. } | FOp::GatherI { sub, dst, .. } => {
                self.rd_i(*sub);
                self.iwr[*dst as usize] += 1;
            }
            FOp::LoadElemF { sub, dst, .. } | FOp::GatherF { sub, dst, .. } => {
                self.rd_i(*sub);
                self.fwr[*dst as usize] += 1;
            }
            FOp::StoreElemI { sub, src, .. } | FOp::ScatterI { sub, src, .. } => {
                self.rd_i(*sub);
                self.rd_i(*src);
            }
            FOp::StoreElemF { sub, src, .. } | FOp::ScatterF { sub, src, .. } => {
                self.rd_i(*sub);
                self.rd_f(*src);
            }
            FOp::LoadAffI { base, dst, .. } => {
                self.ird[*base as usize] += 1;
                self.iwr[*dst as usize] += 1;
            }
            FOp::LoadAffF { base, dst, .. } => {
                self.ird[*base as usize] += 1;
                self.fwr[*dst as usize] += 1;
            }
            FOp::StoreAffI { base, src, .. } => {
                self.ird[*base as usize] += 1;
                self.rd_i(*src);
            }
            FOp::StoreAffF { base, src, .. } => {
                self.ird[*base as usize] += 1;
                self.rd_f(*src);
            }
            FOp::AppendI { ptr, src, .. } => {
                self.ird[*ptr as usize] += 1;
                self.iwr[*ptr as usize] += 1;
                self.rd_i(*src);
            }
            FOp::AppendF { ptr, src, .. } => {
                self.ird[*ptr as usize] += 1;
                self.iwr[*ptr as usize] += 1;
                self.rd_f(*src);
            }
            FOp::LeaI { dst, a, b, .. } => {
                self.rd_i(*a);
                self.rd_i(*b);
                self.iwr[*dst as usize] += 1;
            }
            FOp::MulAddF { dst, a, b, c } => {
                self.rd_f(*a);
                self.rd_f(*b);
                self.rd_f(*c);
                self.fwr[*dst as usize] += 1;
            }
            FOp::DoLoop {
                var,
                var_real,
                lo,
                hi,
                step,
                ..
            } => {
                self.rd_i(*lo);
                self.rd_i(*hi);
                self.rd_i(*step);
                if *var_real {
                    self.fwr[*var as usize] += 1;
                } else {
                    self.iwr[*var as usize] += 1;
                }
            }
            FOp::WhileLoop { cond_temp, .. } => {
                self.ird[*cond_temp as usize] += 1;
            }
        }
    }

    /// A one-shot int-plane temp: safe to erase under fusion.
    fn ionce(&self, r: u16) -> bool {
        !self.ipin[r as usize] && self.iwr[r as usize] == 1 && self.ird[r as usize] == 1
    }

    /// A one-shot float-plane temp.
    fn fonce(&self, r: u16) -> bool {
        !self.fpin[r as usize] && self.fwr[r as usize] == 1 && self.frd[r as usize] == 1
    }
}

/// Fuses `first; second` into one op when `second` consumes a one-shot
/// temp that `first` defines. Every pattern pairs two ops whose fused
/// form charges nothing, errors at the same points with the same
/// identities, and rounds identically — so parity is preserved
/// op-for-op.
fn fuse_pair(first: &FOp, second: &FOp, u: &RegUse) -> Option<FOp> {
    match (first, second) {
        // add + add/sub-immediate → one three-term address computation
        // (all wrapping, so folding the immediate is exact mod 2^64).
        (
            FOp::BinI {
                op: BinOp::Add,
                dst: t,
                a,
                b,
            },
            FOp::BinI {
                op,
                dst,
                a: x,
                b: y,
            },
        ) if matches!(op, BinOp::Add | BinOp::Sub) && u.ionce(*t) => {
            let off = match (op, x, y) {
                (BinOp::Add, IOpnd::Reg(r), IOpnd::Const(c)) if r == t => *c,
                (BinOp::Add, IOpnd::Const(c), IOpnd::Reg(r)) if r == t => *c,
                (BinOp::Sub, IOpnd::Reg(r), IOpnd::Const(c)) if r == t => 0i64.wrapping_sub(*c),
                _ => return None,
            };
            Some(FOp::LeaI {
                dst: *dst,
                a: *a,
                b: *b,
                off,
            })
        }
        // indirection chain → gather: the fused op performs the same
        // two bounds checks in the same order with the same slots.
        (
            FOp::LoadElemI {
                slot: s1,
                sub,
                dst: t,
            },
            FOp::LoadElemI {
                slot: s2,
                sub: IOpnd::Reg(r),
                dst,
            },
        ) if r == t && u.ionce(*t) => Some(FOp::GatherI {
            slot: *s2,
            idx_slot: *s1,
            sub: *sub,
            dst: *dst,
        }),
        (
            FOp::LoadElemI {
                slot: s1,
                sub,
                dst: t,
            },
            FOp::LoadElemF {
                slot: s2,
                sub: IOpnd::Reg(r),
                dst,
            },
        ) if r == t && u.ionce(*t) => Some(FOp::GatherF {
            slot: *s2,
            idx_slot: *s1,
            sub: *sub,
            dst: *dst,
        }),
        // mul feeding the second operand of an add (operand order is
        // preserved — float add is not commuted, keeping NaN payloads
        // and signed zeros bit-exact).
        (
            FOp::BinF {
                op: BinOp::Mul,
                dst: t,
                a: mb,
                b: mc,
            },
            FOp::BinF {
                op: BinOp::Add,
                dst,
                a,
                b: FOpnd::Reg(r),
            },
        ) if r == t && u.fonce(*t) => Some(FOp::MulAddF {
            dst: *dst,
            a: *a,
            b: *mb,
            c: *mc,
        }),
        _ => None,
    }
}

/// Pairwise superinstruction fusion over a built [`FastBody`]. Runs
/// after value numbering, with global register-use counts, so a fused
/// temp is guaranteed dead; jump targets are remapped and no fusion
/// spans a jump target.
fn peephole(fb: &mut FastBody) {
    let u = RegUse::scan(fb);
    for ops in &mut fb.blocks {
        let mut is_target = vec![false; ops.len() + 1];
        for op in ops.iter() {
            if let FOp::Jump { target }
            | FOp::JumpIfZero { target, .. }
            | FOp::JumpIfNonZero { target, .. } = op
            {
                is_target[*target as usize] = true;
            }
        }
        let mut out: Vec<FOp> = Vec::with_capacity(ops.len());
        let mut newpos = vec![0u32; ops.len() + 1];
        let mut k = 0usize;
        while k < ops.len() {
            newpos[k] = out.len() as u32;
            if k + 1 < ops.len() && !is_target[k + 1] {
                if let Some(f) = fuse_pair(&ops[k], &ops[k + 1], &u) {
                    newpos[k + 1] = out.len() as u32;
                    out.push(f);
                    k += 2;
                    continue;
                }
            }
            out.push(ops[k].clone());
            k += 1;
        }
        newpos[ops.len()] = out.len() as u32;
        for op in &mut out {
            if let FOp::Jump { target }
            | FOp::JumpIfZero { target, .. }
            | FOp::JumpIfNonZero { target, .. } = op
            {
                *target = newpos[*target as usize];
            }
        }
        *ops = out;
    }
}

/// Raw view of one array pinned for the duration of a typed run:
/// materialized, its payload addressed directly, and — when the body
/// stores to it — the [`WriteSink`] those stores go through. Stores
/// that land in this store's own payload are counted locally and reach
/// the version counter at flush, so the version arithmetic is
/// identical to per-write bumps without paying them per element.
///
/// # Safety
///
/// `ip`/`fp` stay valid for as long as a pin lives, and every access
/// through them is race-free, because:
///
/// - *The payload cannot move or be freed.* Every referenced array is
///   materialized before the run (`fast_ready`, so no store slot is
///   filled mid-run), element writes never resize an array, and
///   compiled bodies contain no calls, prints, or dispatcher re-entry —
///   nothing else touches this store while the typed loop runs
///   (`run_fblock` takes `&self`). The store's `Arc` keeps the payload
///   alive; a window pin's buffer is kept alive by the master store
///   for the whole dispatch, and a pin exists only inside a chunk job:
///   `WorkerPool::dispatch` does not return, normally or by unwinding,
///   while a job runs or could still be claimed (the barrier in
///   `pool.rs`), so the dispatch — and the buffer — outlive every pin.
/// - *A slot the body only reads (`sink: None`) is pinned shared*,
///   through `Store::array_ref`, with no copy. Its pointer came from a
///   shared reference and is never written: `wr` on such a pin panics
///   before touching memory, and `specialize` records every stored slot
///   (`Builder::store_slot`), so that panic is unreachable. Other
///   holders of the same `Arc` (the master, sibling snapshots) cannot
///   write the payload under the reader either: a store mutates a
///   payload only through `Arc::make_mut`, which copies while this
///   store's reference exists — in-place targets excepted, below.
/// - *`Direct` and `Logged` pins own their payload.* The pointer comes
///   from `Store::array_make_mut` (exactly the clone a first tree-walk
///   write would take; a worker thereby writes its own copy-on-write
///   copy, never the master's), so no other store shares it.
/// - *A `Window` pin is a narrowed view of the master's buffer*: the
///   `RawSlice` `prepare_in_place` took after forcing uniqueness,
///   rebased so that `origin`, `dim0`/`len` and `ip`/`fp` describe the
///   chunk's window alone. `chk`, which every load and store already
///   passes, thus admits exactly the window, and the dispatch gives the
///   chunks of a target disjoint windows (a scatter target: the whole
///   array, stored to through a certified-injective index section and,
///   by the executor's derivation, never loaded) — no pin touches what
///   another worker writes. Targets are 1-D: no `IndexN` reaches one.
/// - *An `Append` pin never writes a payload*: stores go to the worker's
///   buffer; `ip`/`fp` serve bounds and reads, as for a read-only slot.
/// - *Pins never outlive one `run_fast_iters` call*: they live in its
///   `FState`, and their sinks go back to the store before it returns.
///
/// Every index reaching `rd_*`/`wr_*` has passed `chk` (or `IndexN`'s
/// per-dimension check) against the extents cached here, and
/// `fast_ready` checked that the payload's element type is the declared
/// one the ops were typed with (each op dereferences the non-null pointer).
struct RawPin {
    ip: *mut i64,
    fp: *mut f64,
    is_int: bool,
    len: usize,
    /// 1-based subscript of the element `ip`/`fp` point at, and how
    /// many `chk` admits from there: `(1, dims[0])`, or a window.
    origin: u64,
    dim0: u64,
    dims: Vec<usize>,
    /// Stores landed through `ip`/`fp`.
    writes: u64,
    /// `None` for a slot the body only reads.
    sink: Option<WriteSink>,
    /// `sink` is `Direct` or `Window`: a store is a raw write.
    raw: bool,
    /// A subscript inside the array missed the window (`fast_oob`; the
    /// op returns at once), or an append sink refused a store (the
    /// chunk stops at the iteration boundary).
    violated: Cell<bool>,
}

impl RawPin {
    /// Pins a payload this store owns uniquely (the caller got `data`
    /// from `Store::array_make_mut`) for stores that land in it.
    fn owned(data: &mut ArrayData, sink: WriteSink) -> RawPin {
        let mut pin = RawPin::meta(data, Some(sink));
        match data {
            ArrayData::Int { data, .. } => pin.ip = data.as_mut_ptr(),
            ArrayData::Real { data, .. } => pin.fp = data.as_mut_ptr(),
        }
        pin
    }

    /// Pins a payload other stores may share: read through the
    /// pointer, never written. A `Window` sink swaps in the master's,
    /// narrowed to the window; an `Append` sink's stores go to its buffer.
    fn shared(data: &ArrayData, sink: Option<WriteSink>) -> RawPin {
        let mut pin = RawPin::meta(data, sink);
        match data {
            ArrayData::Int { data, .. } => pin.ip = data.as_ptr().cast_mut(),
            ArrayData::Real { data, .. } => pin.fp = data.as_ptr().cast_mut(),
        }
        if let Some(WriteSink::Window(w)) = &pin.sink {
            (pin.origin, pin.dim0, pin.len) = (w.lo as u64 + 1, w.len as u64, w.len);
            match w.slice {
                RawSlice::Int(p) => pin.ip = p.wrapping_add(w.lo),
                RawSlice::Real(p) => pin.fp = p.wrapping_add(w.lo),
            }
        }
        pin
    }

    /// Everything but the payload pointers.
    fn meta(data: &ArrayData, sink: Option<WriteSink>) -> RawPin {
        let dims = data.dims().to_vec();
        RawPin {
            ip: std::ptr::null_mut(),
            fp: std::ptr::null_mut(),
            is_int: matches!(data, ArrayData::Int { .. }),
            len: data.len(),
            origin: 1,
            dim0: dims[0] as u64,
            dims,
            writes: 0,
            raw: matches!(sink, Some(WriteSink::Direct | WriteSink::Window(_))),
            sink,
            violated: Cell::new(false),
        }
    }

    #[inline]
    fn rd_i(&self, k: usize) -> i64 {
        debug_assert!(self.is_int && k < self.len);
        // SAFETY: `k` passed `chk`/`IndexN` against this pin's extents
        // and the payload is an `i64` buffer (see the type's comment).
        unsafe { *self.ip.add(k) }
    }

    #[inline]
    fn rd_f(&self, k: usize) -> f64 {
        debug_assert!(!self.is_int && k < self.len);
        // SAFETY: as `rd_i`, for an `f64` buffer.
        unsafe { *self.fp.add(k) }
    }

    /// An index-array element as an integer (`Value::as_int`).
    #[inline]
    fn rd_int(&self, k: usize) -> i64 {
        if self.is_int {
            self.rd_i(k)
        } else {
            self.rd_f(k) as i64
        }
    }

    /// A store at `k` an observing sink takes: logged (`true`: it lands
    /// in `ip`/`fp` too), or buffered — or refused: a violation, nothing
    /// written — under the position rule of `WriteOverlay::intercept`.
    #[inline(always)]
    fn observed(&mut self, k: usize, v: Value) -> bool {
        // Tests in a row, the log's first: one `match` over every state
        // of the sink compiled to a jump table, an indirect branch a store.
        if let Some(WriteSink::Logged(col)) = &mut self.sink {
            col.idx.push(k);
            col.vals.push(v);
            return true;
        }
        let Some(WriteSink::Append { base, buf }) = &mut self.sink else {
            unreachable!("specialize records every stored slot")
        };
        if !buf.append_at(*base, k, v) {
            self.violated.set(true);
        }
        false
    }

    #[inline]
    fn wr_i(&mut self, k: usize, v: i64) {
        debug_assert!(self.is_int && k < self.len);
        if self.raw || self.observed(k, Value::Int(v)) {
            self.writes += 1;
            // SAFETY: `k` is in bounds as for `rd_i`; the pin owns its
            // payload (`array_make_mut`) or `k` is in its window.
            unsafe { *self.ip.add(k) = v }
        }
    }

    #[inline]
    fn wr_f(&mut self, k: usize, v: f64) {
        debug_assert!(!self.is_int && k < self.len);
        if self.raw || self.observed(k, Value::Real(v)) {
            self.writes += 1;
            // SAFETY: as `wr_i`, for an `f64` buffer.
            unsafe { *self.fp.add(k) = v }
        }
    }

    /// Bounds-checks a 1-based first-dimension subscript against the
    /// view. The wrap to unsigned folds the `< origin` and `> end` tests
    /// into one compare (anything below the origin wraps past any extent).
    #[inline]
    fn chk(&self, v: i64) -> Option<usize> {
        let k = (v as u64).wrapping_sub(self.origin);
        if k >= self.dim0 {
            None
        } else {
            Some(k as usize)
        }
    }
}

/// Per-entry run state: the typed register planes, pinned payloads,
/// and the local fuel/cost ledger flushed back on every exit.
struct FState {
    ir: Vec<i64>,
    fr: Vec<f64>,
    pins: Vec<RawPin>,
    fuel: u64,
    spent: u64,
    /// Inner-loop entry counts, indexed by `lidx` (entries count even
    /// when the body errors, matching the tree walk).
    linv: Vec<u64>,
    /// Inner-loop attributed cost, indexed by `lidx` (completed
    /// entries only, matching the tree walk's error semantics).
    lcost: Vec<u64>,
}

impl FState {
    /// Mirrors `Interp::charge`: cost counts before the fuel check,
    /// and exhaustion leaves the failing charge undeducted.
    #[inline]
    fn charge(&mut self, n: u64) -> Result<(), ExecError> {
        self.spent += n;
        if self.fuel < n {
            return Err(ExecError::OutOfFuel);
        }
        self.fuel -= n;
        Ok(())
    }

    // Register and pin accessors skip the slice bounds checks: every
    // `u16` register number is handed out by `Builder::alloc` below
    // the plane sizes `FState` is built with, and every slot by
    // `Builder::slot` below `arrays.len()`, for which `run_fast_iters`
    // pins one payload each. The debug asserts keep that invariant
    // audited in debug builds.

    #[inline(always)]
    fn irg(&self, r: u16) -> i64 {
        debug_assert!((r as usize) < self.ir.len());
        unsafe { *self.ir.get_unchecked(r as usize) }
    }

    #[inline(always)]
    fn irs(&mut self, r: u16, v: i64) {
        debug_assert!((r as usize) < self.ir.len());
        unsafe { *self.ir.get_unchecked_mut(r as usize) = v }
    }

    #[inline(always)]
    fn frg(&self, r: u16) -> f64 {
        debug_assert!((r as usize) < self.fr.len());
        unsafe { *self.fr.get_unchecked(r as usize) }
    }

    #[inline(always)]
    fn frs(&mut self, r: u16, v: f64) {
        debug_assert!((r as usize) < self.fr.len());
        unsafe { *self.fr.get_unchecked_mut(r as usize) = v }
    }

    #[inline(always)]
    fn pinr(&self, s: u16) -> &RawPin {
        debug_assert!((s as usize) < self.pins.len());
        unsafe { self.pins.get_unchecked(s as usize) }
    }

    #[inline(always)]
    fn pinw(&mut self, s: u16) -> &mut RawPin {
        debug_assert!((s as usize) < self.pins.len());
        unsafe { self.pins.get_unchecked_mut(s as usize) }
    }

    #[inline]
    fn ird(&self, o: IOpnd) -> i64 {
        match o {
            IOpnd::Reg(r) => self.irg(r),
            IOpnd::Const(c) => c,
            IOpnd::FReg(r) => self.frg(r) as i64,
        }
    }

    #[inline]
    fn frd(&self, o: FOpnd) -> f64 {
        match o {
            FOpnd::Reg(r) => self.frg(r),
            FOpnd::Const(c) => c,
            FOpnd::IReg(r) => self.irg(r) as f64,
        }
    }
}

#[inline]
fn bin_i(op: BinOp, x: i64, y: i64) -> Result<i64, ExecError> {
    Ok(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div | BinOp::Mod => return div_mod_i(op, x, y),
        _ => unreachable!("handled in lowering"),
    })
}

/// Euclidean `/` and `mod`, wrapping at `i64::MIN / -1` like `+ - *`.
/// Out of line: a division dwarfs the call, and inlined into the
/// dispatch loop the wrapping forms cost every op of it (+5 % on
/// `exec-reentry`, EXPERIMENTS.md "What the per-op loop was still
/// running").
#[inline(never)]
fn div_mod_i(op: BinOp, x: i64, y: i64) -> Result<i64, ExecError> {
    match op {
        _ if y == 0 => Err(ExecError::DivisionByZero),
        BinOp::Div => Ok(x.wrapping_div_euclid(y)),
        _ => Ok(x.wrapping_rem_euclid(y)),
    }
}

#[inline]
fn bin_f(op: BinOp, x: f64, y: f64) -> Result<f64, ExecError> {
    Ok(match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => {
            if y == 0.0 {
                return Err(ExecError::DivisionByZero);
            }
            x / y
        }
        BinOp::Mod => x.rem_euclid(y),
        _ => unreachable!("handled in lowering"),
    })
}

#[inline]
fn cmp_res(op: BinOp, ord: std::cmp::Ordering) -> i64 {
    use std::cmp::Ordering;
    (match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::Ne => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::Le => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::Ge => ord != Ordering::Less,
        _ => unreachable!("comparison"),
    }) as i64
}

impl<'p> Interp<'p> {
    /// Whether every array the typed body references is materialized
    /// — the precondition for pre-pinning (until it holds the chunk
    /// walks the AST, which materializes in interpreter
    /// order) — with a payload of its declared element type, the type
    /// the ops were specialized for (a preset may install either).
    pub(crate) fn fast_ready(&self, fb: &FastBody) -> bool {
        fb.arrays.iter().all(|&a| {
            matches!(
                (self.store.array_ref(a), self.layout.ty(a)),
                (Some(ArrayData::Int { .. }), ScalarType::Int)
                    | (Some(ArrayData::Real { .. }), ScalarType::Real)
            )
        })
    }

    /// `chk` refused `index`: the program's own error, unless the
    /// subscript is inside the array — a window pin's miss, which marks
    /// the pin; the error then only ends the op.
    #[cold]
    fn fast_oob(&self, fb: &FastBody, st: &FState, slot: u16, index: i64) -> ExecError {
        let pin = &st.pins[slot as usize];
        if (index as u64).wrapping_sub(1) < pin.dims[0] as u64 {
            pin.violated.set(true);
        }
        self.fast_oob_dim(fb, slot, index, pin.dims[0])
    }

    /// Executes root iterations `lo..=hi` of the typed loop: same
    /// observable semantics as the walked iterations of
    /// [`Interp::run_chunk`], with scalars promoted to registers and
    /// every array payload pinned for the whole call. `run_chunk` is
    /// the only caller: it hands over at an iteration boundary, having
    /// already done the entry bookkeeping (the invocation count and
    /// `cost_at_entry`). It keeps scalars, fuel, cost, versions and
    /// the write log on the interpreter itself, so everything loaded
    /// here is already current and the hand-over needs no flush.
    ///
    /// Stored arrays write through the sink the store lends for them
    /// ([`Store::take_sink`]): on a plain store that is a raw write; on
    /// a parallel worker's store it is whatever the dispatch's commit
    /// strategy installed. `watch` is the caller's, see [`ChunkWatch`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_fast_iters(
        &mut self,
        s: StmtId,
        fb: &FastBody,
        lo: i64,
        hi: i64,
        step: i64,
        cost_at_entry: u64,
        watch: Option<&ChunkWatch>,
    ) -> Result<(), ChunkAbort> {
        let mut st = FState {
            ir: vec![0; fb.n_iregs as usize],
            fr: vec![0.0; fb.n_fregs as usize],
            pins: Vec::with_capacity(fb.arrays.len()),
            fuel: self.fuel,
            spent: 0,
            linv: vec![0; fb.loop_stmts.len()],
            lcost: vec![0; fb.loop_stmts.len()],
        };
        for (&a, &stored) in fb.arrays.iter().zip(&fb.stored) {
            let sink = stored.then(|| self.store.take_sink(a));
            st.pins.push(match sink {
                // Unique ownership once per run — the clone a first
                // tree-walk write would have taken.
                Some(sink @ (WriteSink::Direct | WriteSink::Logged(_))) => {
                    RawPin::owned(self.store.array_make_mut(a), sink)
                }
                sink => RawPin::shared(self.store.array_ref(a).expect("fast_ready"), sink),
            });
        }
        for p in &fb.scalars {
            let v = self.store.scalar(p.var);
            if p.real {
                st.fr[p.reg as usize] = v.as_real();
            } else {
                st.ir[p.reg as usize] = v.as_int();
            }
        }
        // Only an append sink can refuse a store, so only a chunk that
        // has one checks for violations per iteration.
        let append_sinks = st
            .pins
            .iter()
            .any(|p| matches!(p.sink, Some(WriteSink::Append { .. })));
        let violated = |st: &FState| st.pins.iter().position(|p| p.violated.get());
        let mut i = lo;
        let res = loop {
            if !((step > 0 && i <= hi) || (step < 0 && i >= hi)) {
                break Ok(());
            }
            if let Some(Err(e)) = watch.map(ChunkWatch::poll) {
                break Err(e);
            }
            #[cfg(test)]
            {
                self.typed_root_iters += 1;
            }
            if fb.root_real {
                st.fr[fb.root_reg as usize] = i as f64;
            } else {
                st.ir[fb.root_reg as usize] = i;
            }
            if let Err(e) = self.run_fblock(fb, fb.root, &mut st) {
                // A window miss ends its op with a placeholder error.
                break Err(violated(&st).map_or(e.into(), |k| ChunkAbort::Violated(fb.arrays[k])));
            }
            if let Err(e) = st.charge(1) {
                break Err(e.into()); // loop bookkeeping
            }
            if let Some(k) = append_sinks.then(|| violated(&st)).flatten() {
                break Err(ChunkAbort::Violated(fb.arrays[k]));
            }
            if !advance_induction(&mut i, step) {
                break Ok(());
            }
        };
        if res.is_ok() && watch.is_none() {
            // Fortran leaves the induction variable at the first
            // out-of-range value.
            if fb.root_real {
                st.fr[fb.root_reg as usize] = i as f64;
            } else {
                st.ir[fb.root_reg as usize] = i;
            }
        }
        // Flush on every exit — success or error — so observable
        // state is indistinguishable from per-access traffic.
        self.stats.total_cost += st.spent;
        self.fuel = st.fuel;
        for (&a, p) in fb.arrays.iter().zip(st.pins) {
            if p.writes > 0 {
                self.store.bump_version_by(a, p.writes);
            }
            if let Some(sink) = p.sink {
                self.store.return_sink(a, sink, p.violated.get());
            }
        }
        // Only what the nest can assign is written back: a scalar it
        // merely reads is unchanged, and in a worker every write-back
        // lands in the log, where the merge would take it for a claim.
        // The worker's root induction variable stays unlogged, as on
        // the walked path.
        for p in fb.scalars.iter().filter(|p| p.assigned) {
            let (ty, val) = if p.real {
                (ScalarType::Real, Value::Real(st.fr[p.reg as usize]))
            } else {
                (ScalarType::Int, Value::Int(st.ir[p.reg as usize]))
            };
            if watch.is_some() && p.var == fb.root_var {
                self.store.set_scalar_untracked(p.var, ty, val);
            } else {
                self.store.set_scalar(p.var, ty, val);
            }
        }
        // Dense counters fold into the per-loop map once per entry;
        // untouched loops get no entry, exactly like the tree walk.
        for (k, &stmt) in fb.loop_stmts.iter().enumerate() {
            if st.linv[k] > 0 {
                let e = self.stats.loops.entry(stmt).or_default();
                e.invocations += st.linv[k];
                e.total_cost += st.lcost[k];
            }
        }
        res?;
        if watch.is_none() {
            let total = self.stats.total_cost - cost_at_entry;
            self.stats.loops.entry(s).or_default().total_cost += total;
        }
        Ok(())
    }

    fn run_fblock(&self, fb: &FastBody, b: u16, st: &mut FState) -> Result<(), ExecError> {
        let ops = &fb.blocks[b as usize];
        let mut pc = 0usize;
        while pc < ops.len() {
            match &ops[pc] {
                FOp::Charge(n) => st.charge(*n)?,
                FOp::MovI { dst, src } => st.irs(*dst, st.ird(*src)),
                FOp::MovF { dst, src } => st.frs(*dst, st.frd(*src)),
                FOp::BinI { op, dst, a, b } => {
                    st.irs(*dst, bin_i(*op, st.ird(*a), st.ird(*b))?);
                }
                FOp::BinF { op, dst, a, b } => {
                    st.frs(*dst, bin_f(*op, st.frd(*a), st.frd(*b))?);
                }
                FOp::NegI { dst, src } => st.irs(*dst, st.ird(*src).wrapping_neg()),
                FOp::NegF { dst, src } => st.frs(*dst, -st.frd(*src)),
                FOp::CmpI { op, dst, a, b } => {
                    st.irs(*dst, cmp_res(*op, st.ird(*a).cmp(&st.ird(*b))));
                }
                FOp::CmpF { op, dst, a, b } => {
                    let ord = st
                        .frd(*a)
                        .partial_cmp(&st.frd(*b))
                        .unwrap_or(std::cmp::Ordering::Equal);
                    st.irs(*dst, cmp_res(*op, ord));
                }
                FOp::TruthyI { dst, src } => st.irs(*dst, (st.ird(*src) != 0) as i64),
                FOp::TruthyF { dst, src } => st.irs(*dst, (st.frd(*src) != 0.0) as i64),
                FOp::Not { t } => {
                    st.irs(*t, (st.irg(*t) == 0) as i64);
                }
                FOp::MinMaxI { max, dst, a, b } => {
                    let (x, y) = (st.ird(*a), st.ird(*b));
                    st.irs(*dst, if *max { x.max(y) } else { x.min(y) });
                }
                FOp::MinMaxF { max, dst, a, b } => {
                    let (x, y) = (st.frd(*a), st.frd(*b));
                    st.frs(*dst, if *max { x.max(y) } else { x.min(y) });
                }
                FOp::AbsI { dst, src } => st.irs(*dst, st.ird(*src).wrapping_abs()),
                FOp::AbsF { dst, src } => st.frs(*dst, st.frd(*src).abs()),
                FOp::Real1 { f, dst, src } => {
                    let x = st.frd(*src);
                    let v = match f {
                        Intrinsic::Sqrt => x.sqrt(),
                        Intrinsic::Sin => x.sin(),
                        Intrinsic::Cos => x.cos(),
                        Intrinsic::Exp => x.exp(),
                        Intrinsic::Log => x.ln(),
                        _ => unreachable!("specialized"),
                    };
                    st.frs(*dst, v);
                }
                FOp::Jump { target } => {
                    pc = *target as usize;
                    continue;
                }
                FOp::JumpIfZero { src, target } => {
                    if st.irg(*src) == 0 {
                        pc = *target as usize;
                        continue;
                    }
                }
                FOp::JumpIfNonZero { src, target } => {
                    if st.irg(*src) != 0 {
                        pc = *target as usize;
                        continue;
                    }
                }
                FOp::IndexN { slot, subs, dst } => {
                    let p = st.pinr(*slot);
                    let mut idx: usize = 0;
                    let mut stride: usize = 1;
                    for (k, sub) in subs.iter().enumerate() {
                        let v = st.ird(*sub);
                        let extent = p.dims[k];
                        if v < 1 || v as usize > extent {
                            return Err(self.fast_oob_dim(fb, *slot, v, extent));
                        }
                        idx += (v as usize - 1) * stride;
                        stride *= extent;
                    }
                    st.irs(*dst, idx as i64);
                }
                FOp::LoadAtI { slot, idx, dst } => {
                    let k = st.irg(*idx) as usize;
                    st.irs(*dst, st.pinr(*slot).rd_i(k));
                }
                FOp::LoadAtF { slot, idx, dst } => {
                    let k = st.irg(*idx) as usize;
                    st.frs(*dst, st.pinr(*slot).rd_f(k));
                }
                FOp::StoreAtI { slot, idx, src } => {
                    let k = st.irg(*idx) as usize;
                    let v = st.ird(*src);
                    st.pinw(*slot).wr_i(k, v);
                }
                FOp::StoreAtF { slot, idx, src } => {
                    let k = st.irg(*idx) as usize;
                    let v = st.frd(*src);
                    st.pinw(*slot).wr_f(k, v);
                }
                FOp::LoadElemI { slot, sub, dst } => {
                    let v = st.ird(*sub);
                    match st.pinr(*slot).chk(v) {
                        Some(k) => st.irs(*dst, st.pinr(*slot).rd_i(k)),
                        None => return Err(self.fast_oob(fb, st, *slot, v)),
                    }
                }
                FOp::LoadElemF { slot, sub, dst } => {
                    let v = st.ird(*sub);
                    match st.pinr(*slot).chk(v) {
                        Some(k) => st.frs(*dst, st.pinr(*slot).rd_f(k)),
                        None => return Err(self.fast_oob(fb, st, *slot, v)),
                    }
                }
                FOp::StoreElemI { slot, sub, src } => {
                    let v = st.ird(*sub);
                    let val = st.ird(*src);
                    match st.pinr(*slot).chk(v) {
                        Some(k) => st.pinw(*slot).wr_i(k, val),
                        None => return Err(self.fast_oob(fb, st, *slot, v)),
                    }
                }
                FOp::StoreElemF { slot, sub, src } => {
                    let v = st.ird(*sub);
                    let val = st.frd(*src);
                    match st.pinr(*slot).chk(v) {
                        Some(k) => st.pinw(*slot).wr_f(k, val),
                        None => return Err(self.fast_oob(fb, st, *slot, v)),
                    }
                }
                FOp::LoadAffI {
                    slot,
                    base,
                    off,
                    dst,
                } => {
                    let v = st.irg(*base).wrapping_add(*off);
                    match st.pinr(*slot).chk(v) {
                        Some(k) => st.irs(*dst, st.pinr(*slot).rd_i(k)),
                        None => return Err(self.fast_oob(fb, st, *slot, v)),
                    }
                }
                FOp::LoadAffF {
                    slot,
                    base,
                    off,
                    dst,
                } => {
                    let v = st.irg(*base).wrapping_add(*off);
                    match st.pinr(*slot).chk(v) {
                        Some(k) => st.frs(*dst, st.pinr(*slot).rd_f(k)),
                        None => return Err(self.fast_oob(fb, st, *slot, v)),
                    }
                }
                FOp::StoreAffI {
                    slot,
                    base,
                    off,
                    src,
                } => {
                    let v = st.irg(*base).wrapping_add(*off);
                    let val = st.ird(*src);
                    match st.pinr(*slot).chk(v) {
                        Some(k) => st.pinw(*slot).wr_i(k, val),
                        None => return Err(self.fast_oob(fb, st, *slot, v)),
                    }
                }
                FOp::StoreAffF {
                    slot,
                    base,
                    off,
                    src,
                } => {
                    let v = st.irg(*base).wrapping_add(*off);
                    let val = st.frd(*src);
                    match st.pinr(*slot).chk(v) {
                        Some(k) => st.pinw(*slot).wr_f(k, val),
                        None => return Err(self.fast_oob(fb, st, *slot, v)),
                    }
                }
                FOp::GatherI {
                    slot,
                    idx_slot,
                    sub,
                    dst,
                } => {
                    let sv = st.ird(*sub);
                    let ip = st.pinr(*idx_slot);
                    let v = match ip.chk(sv) {
                        Some(j) => ip.rd_int(j),
                        None => return Err(self.fast_oob(fb, st, *idx_slot, sv)),
                    };
                    match st.pinr(*slot).chk(v) {
                        Some(k) => st.irs(*dst, st.pinr(*slot).rd_i(k)),
                        None => return Err(self.fast_oob(fb, st, *slot, v)),
                    }
                }
                FOp::GatherF {
                    slot,
                    idx_slot,
                    sub,
                    dst,
                } => {
                    let sv = st.ird(*sub);
                    let ip = st.pinr(*idx_slot);
                    let v = match ip.chk(sv) {
                        Some(j) => ip.rd_int(j),
                        None => return Err(self.fast_oob(fb, st, *idx_slot, sv)),
                    };
                    match st.pinr(*slot).chk(v) {
                        Some(k) => st.frs(*dst, st.pinr(*slot).rd_f(k)),
                        None => return Err(self.fast_oob(fb, st, *slot, v)),
                    }
                }
                FOp::ScatterI {
                    slot,
                    idx_slot,
                    sub,
                    src,
                } => {
                    let sv = st.ird(*sub);
                    let ip = st.pinr(*idx_slot);
                    let v = match ip.chk(sv) {
                        Some(j) => ip.rd_int(j),
                        None => return Err(self.fast_oob(fb, st, *idx_slot, sv)),
                    };
                    let val = st.ird(*src);
                    match st.pinr(*slot).chk(v) {
                        Some(k) => st.pinw(*slot).wr_i(k, val),
                        None => return Err(self.fast_oob(fb, st, *slot, v)),
                    }
                }
                FOp::ScatterF {
                    slot,
                    idx_slot,
                    sub,
                    src,
                } => {
                    let sv = st.ird(*sub);
                    let ip = st.pinr(*idx_slot);
                    let v = match ip.chk(sv) {
                        Some(j) => ip.rd_int(j),
                        None => return Err(self.fast_oob(fb, st, *idx_slot, sv)),
                    };
                    let val = st.frd(*src);
                    match st.pinr(*slot).chk(v) {
                        Some(k) => st.pinw(*slot).wr_f(k, val),
                        None => return Err(self.fast_oob(fb, st, *slot, v)),
                    }
                }
                FOp::AppendI { slot, ptr, src } => {
                    let cur = st.irg(*ptr);
                    let val = st.ird(*src);
                    match st.pinr(*slot).chk(cur) {
                        Some(k) => st.pinw(*slot).wr_i(k, val),
                        None => return Err(self.fast_oob(fb, st, *slot, cur)),
                    }
                    // The fused increment's charge sits between the
                    // write and the pointer bump.
                    st.charge(1)?;
                    st.irs(*ptr, cur.wrapping_add(1));
                }
                FOp::AppendF { slot, ptr, src } => {
                    let cur = st.irg(*ptr);
                    let val = st.frd(*src);
                    match st.pinr(*slot).chk(cur) {
                        Some(k) => st.pinw(*slot).wr_f(k, val),
                        None => return Err(self.fast_oob(fb, st, *slot, cur)),
                    }
                    st.charge(1)?;
                    st.irs(*ptr, cur.wrapping_add(1));
                }
                FOp::LeaI { dst, a, b, off } => {
                    let v = st.ird(*a).wrapping_add(st.ird(*b)).wrapping_add(*off);
                    st.irs(*dst, v);
                }
                FOp::MulAddF { dst, a, b, c } => {
                    // Two roundings, exactly as the unfused ops.
                    let v = st.frd(*a) + st.frd(*b) * st.frd(*c);
                    st.frs(*dst, v);
                }
                FOp::DoLoop {
                    var,
                    var_real,
                    lidx,
                    lo,
                    hi,
                    step,
                    body,
                } => {
                    let lo = st.ird(*lo);
                    let hi = st.ird(*hi);
                    let stp = st.ird(*step);
                    if stp == 0 {
                        return Err(ExecError::DivisionByZero);
                    }
                    st.linv[*lidx as usize] += 1;
                    let spent_at_entry = st.spent;
                    let mut i = lo;
                    while (stp > 0 && i <= hi) || (stp < 0 && i >= hi) {
                        if *var_real {
                            st.frs(*var, i as f64);
                        } else {
                            st.irs(*var, i);
                        }
                        self.run_fblock(fb, *body, st)?;
                        st.charge(1)?; // loop bookkeeping
                        if !advance_induction(&mut i, stp) {
                            break;
                        }
                    }
                    if *var_real {
                        st.frs(*var, i as f64);
                    } else {
                        st.irs(*var, i);
                    }
                    st.lcost[*lidx as usize] += st.spent - spent_at_entry;
                }
                FOp::WhileLoop {
                    lidx,
                    cond,
                    cond_temp,
                    body,
                } => {
                    st.linv[*lidx as usize] += 1;
                    let spent_at_entry = st.spent;
                    loop {
                        self.run_fblock(fb, *cond, st)?;
                        if st.irg(*cond_temp) == 0 {
                            break;
                        }
                        st.charge(1)?;
                        self.run_fblock(fb, *body, st)?;
                    }
                    st.lcost[*lidx as usize] += st.spent - spent_at_entry;
                }
            }
            pc += 1;
        }
        Ok(())
    }

    #[cold]
    fn fast_oob_dim(&self, fb: &FastBody, slot: u16, index: i64, extent: usize) -> ExecError {
        ExecError::OutOfBounds {
            array: self
                .program()
                .symbols
                .name(fb.arrays[slot as usize])
                .to_string(),
            index,
            extent,
        }
    }
}
