//! The compiled tier's one instruction set, its one producer, and the
//! advisory [`CompiledPlan`] read off a lowered nest.
//!
//! [`lower_do_loop`] is the only function in the workspace that builds
//! a [`CompiledBody`], and a body is exactly what the executor's typed
//! loop runs: instructions over split `i64` / `f64` register planes
//! ([`FOp`], [`IOpnd`], [`FOpnd`]), the scalars the nest references
//! promoted to registers, and the arrays it references numbered into
//! pin slots. Whether a `do` nest can be offered to the compiled
//! backend is therefore one question with one answer — "does it
//! lower" — asked by the driver at compile time and by the executor at
//! dispatch.
//!
//! A body's fields are private and only the lowering fills them, which
//! is what the executor's unchecked register and pin accesses rest on:
//!
//! - every register number in an instruction, a [`Promoted`] scalar or
//!   [`CompiledBody::root_reg`] came out of the lowering's per-plane
//!   allocator, below the plane size the body reports
//!   ([`CompiledBody::int_registers`] / [`CompiledBody::real_registers`]);
//! - every pin slot is an index into [`CompiledBody::arrays`], and
//!   every slot some instruction stores to is marked in
//!   [`CompiledBody::stored`];
//! - every block index and jump target lies inside
//!   [`CompiledBody::blocks`], every `lidx` inside
//!   [`CompiledBody::inner_loops`].
//!
//! The driver annotates each verdict with [`CompiledBody::plan`] of its
//! body, next to the strategy facts; the lint layer re-derives the plan
//! with [`derive_compiled_plan`] and flags verdicts whose plan was
//! tampered with. A verdict carries a plan exactly when the typed loop
//! can run the nest.
//!
//! The executor (`irr-exec`'s `bytecode` module) *never* trusts a
//! verdict's plan: at dispatch it calls the same [`lower_do_loop`] on
//! the AST, exactly as it re-derives the in-place and concat proofs
//! with [`crate::derive_in_place_facts`] and
//! [`crate::derive_concat_shape`]. A forged or stale plan can therefore
//! change which tier is *requested*, never what runs: when the plan
//! says "compiled" but the nest does not lower, the loop falls back to
//! the tree-walk with a reason-coded telemetry counter.

mod lower;

pub use lower::{lower_do_loop, LowerReject};

use irr_frontend::{BinOp, Intrinsic, Program, StmtId, VarId};

/// What the compiled tier will do with a loop nest: a summary of its
/// lowered body. Also a fingerprint: the lint layer re-derives the plan
/// and compares for equality, so every field is a pure function of the
/// program.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CompiledPlan {
    /// Registers the body allocates, both planes
    /// ([`CompiledBody::register_count`]).
    pub registers: u32,
    /// Inner loops (`do` and `while`) in the nest, root excluded.
    pub inner_loops: u32,
    /// Fused affine element accesses `a(v + c)`, loads and stores.
    pub affine_accesses: u32,
    /// Fused gather/scatter accesses `a(idx(e))`, loads and stores.
    pub indirect_accesses: u32,
    /// Append-through-pointer fusions `a(p) = e` + `p = p + 1`.
    pub appends: u32,
    /// Fused multiply–adds `x + b * c`, the reduction `s = s + b * c`
    /// included.
    pub multiply_adds: u32,
    /// Innermost `do` loops (the root included) that carry a [`Stream`].
    pub stream_loops: u32,
}

/// The advisory compiled-tier plan for the `do` loop at `loop_stmt`:
/// the summary of its lowered body, or `None` when [`lower_do_loop`]
/// rejects the nest.
pub fn derive_compiled_plan(program: &Program, loop_stmt: StmtId) -> Option<CompiledPlan> {
    lower_do_loop(program, loop_stmt).ok().map(|cb| cb.plan())
}

/// Integer-plane operand: a register, an immediate, or a float
/// register read through Fortran-`INT` truncation (`Value::as_int`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IOpnd {
    Reg(u16),
    Const(i64),
    FReg(u16),
}

/// Float-plane operand: a register, an immediate, or an integer
/// register widened (`Value::as_real`). Immediates compare by bit
/// pattern, so `0.0` and `-0.0` are different operands.
#[derive(Clone, Copy, Debug)]
pub enum FOpnd {
    Reg(u16),
    Const(f64),
    IReg(u16),
}

impl PartialEq for FOpnd {
    fn eq(&self, other: &FOpnd) -> bool {
        match (*self, *other) {
            (FOpnd::Reg(a), FOpnd::Reg(b)) | (FOpnd::IReg(a), FOpnd::IReg(b)) => a == b,
            (FOpnd::Const(a), FOpnd::Const(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

impl Eq for FOpnd {}

/// One instruction of a [`CompiledBody`], split per register plane
/// (`…I` integer, `…F` float). Register numbers index the plane the
/// variant names, `slot` fields the body's pinned-array table, jump
/// targets the instruction's own block, `body` / `cond` the body's
/// block list. Each variant keeps the tree-walk's semantics for the
/// construct it stands for — wrapping integer arithmetic, euclidean
/// `/` and `mod` with zero checks, `eval_cond`'s comparison rules, the
/// store's bounds checks in the store's order — and only
/// [`FOp::Charge`], the appends and the loop ops touch the fuel ledger.
#[derive(Clone, Debug)]
pub enum FOp {
    /// Charge `n` cost/fuel units — emitted at every statement entry
    /// (and nowhere else), so total cost and the out-of-fuel point
    /// match the interpreter exactly.
    Charge(u64),
    /// `dst = src`; also `int()`, `real()` and a scalar assignment,
    /// whose declared-type coercion is the operand conversion.
    MovI {
        dst: u16,
        src: IOpnd,
    },
    MovF {
        dst: u16,
        src: FOpnd,
    },
    /// `dst = a op b` with `apply_bin`'s semantics for the plane.
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
    /// `dst = (a op b) as 0/1` into the integer plane: exact integer
    /// compare when both sides are integers, else float compare with
    /// NaN comparing equal.
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
    /// `dst = (src != 0) as 0/1` (condition fallback truthiness).
    TruthyI {
        dst: u16,
        src: IOpnd,
    },
    TruthyF {
        dst: u16,
        src: FOpnd,
    },
    /// Logical not over a 0/1 condition register, in place.
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
    /// `sqrt` / `sin` / `cos` / `exp` / `log`.
    Real1 {
        f: Intrinsic,
        dst: u16,
        src: FOpnd,
    },
    Jump {
        target: u32,
    },
    /// Jump when the 0/1 condition register is 0.
    JumpIfZero {
        src: u16,
        target: u32,
    },
    JumpIfNonZero {
        src: u16,
        target: u32,
    },
    /// Column-major flat index of the subscripts, bounds-checked per
    /// dimension, left to right; `dst` feeds a `LoadAt*` / `StoreAt*`.
    IndexN {
        slot: u16,
        subs: Box<[IOpnd]>,
        dst: u16,
    },
    /// `dst = arr[idx]`, flat index previously checked by `IndexN`.
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
    /// One-subscript access `arr(sub)`, checked against the first
    /// extent.
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
    /// Affine access `arr(base + off)`; `base` is the register of an
    /// integer-declared scalar. The store is the proven
    /// in-place-disjoint write pattern.
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
    /// Subscripted subscript `arr(idx_arr(sub))`: both subscripts
    /// bounds-checked, the index array's first.
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
    /// Append-through-pointer: `arr(ptr) = src`, then the second
    /// statement's charge, then `ptr = ptr + 1` — the
    /// privatize-and-concat write pattern.
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
    /// Three-term address `dst = a + b + off`, all wrapping (so folding
    /// `- c` into `off` is exact mod 2^64).
    LeaI {
        dst: u16,
        a: IOpnd,
        b: IOpnd,
        off: i64,
    },
    /// `dst = a + b * c` with the two roundings of the separate ops
    /// (never an actual FMA), operand order kept.
    MulAddF {
        dst: u16,
        a: FOpnd,
        b: FOpnd,
        c: FOpnd,
    },
    /// A nested `do` loop: bounds already evaluated in order by the
    /// preceding ops, per-loop statistics kept under `lidx` exactly as
    /// the interpreter's.
    DoLoop {
        var: u16,
        var_real: bool,
        lidx: u16,
        lo: IOpnd,
        hi: IOpnd,
        step: IOpnd,
        body: u16,
    },
    /// A nested `while` loop: the condition block leaves 0/1 in
    /// `cond_temp` before every iteration.
    WhileLoop {
        lidx: u16,
        cond: u16,
        cond_temp: u16,
        body: u16,
    },
}

/// The loop-invariant part of a stream subscript `inv + j`: a literal
/// plus signed terms (`true` subtracts) over integer scalars and loads
/// `ptr(inv)` from integer rank-1 arrays, none of which the loop's one
/// statement writes — `rowptr(i) + j - 1` is `-1 + rowptr(i)`. Kept as
/// an expression, not hoisted: the executor evaluates it at loop entry,
/// only for a loop that iterates, with checked arithmetic and the
/// pin's own bounds check, and declines the stream when either fails.
///
/// A stream keeps its parts in one table ([`Stream::invs`]), each
/// distinct part once, and everything else names them by position: the
/// three `rowptr(i) + j - 1` of an SpMV row are one entry, and its
/// `rowptr(i)` loads at the entry before it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inv {
    pub off: i64,
    pub terms: Box<[(bool, InvTerm)]>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InvTerm {
    /// The register of an integer-declared scalar.
    Reg(u16),
    /// `ptr(at)`, `ptr` an integer rank-1 array and `at` an *earlier*
    /// entry of the table.
    Load { slot: u16, at: u16 },
}

/// A per-iteration location of a stream over a real rank-1 array:
/// LINEAR `arr(base + j)`, or INDIRECT `arr(idx(base + j))` through the
/// integer rank-1 array at `idx_slot` (gem-forge's access-pattern
/// classes, decided here from the tree). `base` is an entry of
/// [`Stream::invs`].
#[derive(Clone, Debug)]
pub struct StreamAt {
    pub slot: u16,
    pub idx_slot: Option<u16>,
    pub base: u16,
}

/// One operand of a stream, read as a real.
#[derive(Clone, Debug)]
pub enum StreamRef {
    /// A literal, or a scalar the statement does not assign.
    Inv(FOpnd),
    At(StreamAt),
    /// The sink's own running value: the `c` of a reduction.
    Acc,
}

/// Where a stream's value goes each iteration.
#[derive(Clone, Debug)]
pub enum StreamSink {
    /// A store at `base + j`, or a scatter through `idx(base + j)`.
    At(StreamAt),
    /// A reduction into a real scalar's register.
    Scalar(u16),
    /// A reduction into `arr(at)`, `at` an entry of [`Stream::invs`];
    /// no operand reads `arr`.
    Elem { slot: u16, at: u16 },
}

/// How a stream's product `P` and its third operand `c` combine.
/// Operand order is the source's: float `+` is never commuted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StreamTail {
    /// `P + c`
    PAddC,
    /// `P - c`
    PSubC,
    /// `c + P`
    CAddP,
    /// `c - P`
    CSubP,
}

/// An innermost unit-step `do j` whose body is the one assignment
/// `sink = P`, `P ± c` or `c ± P` with `P = a` or `a * b`, every
/// binary operation real: what the typed loop may fast-forward as one
/// guarded stream instead of dispatching the loop's block per
/// iteration. The block is still lowered — it runs every iteration the
/// stream's guards do not cover — and computes exactly this: two
/// roundings, no reassociation.
#[derive(Clone, Debug)]
pub struct Stream {
    pub sink: StreamSink,
    pub a: StreamRef,
    pub b: Option<StreamRef>,
    pub tail: Option<(StreamTail, StreamRef)>,
    /// The distinct loop-invariant subscript parts of the statement, a
    /// load's subscript before the load: one pass in order evaluates
    /// every entry once.
    pub invs: Box<[Inv]>,
}

impl Stream {
    /// The statement by operand kind, in source order —
    /// `lin = lin·val + val`, `elem = acc + lin·ind`: what the executor
    /// picks its kernel instantiation by, and the rows of the shape
    /// histogram in EXPERIMENTS.md.
    pub fn shape(&self) -> String {
        let lane = |at: &StreamAt| ["lin", "ind"][usize::from(at.idx_slot.is_some())];
        let kind = |r: &StreamRef| match r {
            StreamRef::Inv(_) => "val",
            StreamRef::At(at) => lane(at),
            StreamRef::Acc => "acc",
        };
        let sink = match &self.sink {
            StreamSink::At(at) => lane(at),
            StreamSink::Scalar(_) => "scalar",
            StreamSink::Elem { .. } => "elem",
        };
        let p = match &self.b {
            Some(b) => format!("{}·{}", kind(&self.a), kind(b)),
            None => kind(&self.a).to_string(),
        };
        match &self.tail {
            None => format!("{sink} = {p}"),
            Some((StreamTail::PAddC, c)) => format!("{sink} = {p} + {}", kind(c)),
            Some((StreamTail::PSubC, c)) => format!("{sink} = {p} − {}", kind(c)),
            Some((StreamTail::CAddP, c)) => format!("{sink} = {} + {p}", kind(c)),
            Some((StreamTail::CSubP, c)) => format!("{sink} = {} − {p}", kind(c)),
        }
    }
}

/// Entries a [`SegStream`]'s row table may hold: the executor
/// evaluates a row into a fixed array of this many values.
pub const ROW_INVS: usize = 16;

/// A row-invariant real value of a [`SegStream`]'s row statements: a
/// literal, a scalar the row does not assign (the row's own induction
/// variable included), or `arr(at)` of a real rank-1 array at an entry
/// of the row table.
#[derive(Clone, Debug)]
pub enum RowVal {
    Inv(FOpnd),
    Elem { slot: u16, at: u16 },
}

/// A [`SegStream`]'s one store of the reduced value: `sink = acc op v`
/// (`acc_first`) or `sink = v op acc`, `op` one of `+ - *`, real.
#[derive(Clone, Debug)]
pub struct RowFin {
    pub op: BinOp,
    pub acc_first: bool,
    pub v: RowVal,
}

/// An outer unit-step `do i` whose body is one row of an offset–length
/// nest (§3.2.7): at most one initialization of a reduction's target,
/// one inner `do j` carrying a [`Stream`] whose bounds are row-invariant,
/// and at most one store of the reduced value —
///
/// ```text
/// do i = ...
///   y(i) = 0.0
///   do j = 1, len(i)
///     y(i) = y(i) + a(ptr(i) + j - 1) * x(idx(ptr(i) + j - 1))
///   enddo
/// enddo
/// ```
///
/// — what the typed loop may run as one two-level stream, a row at a
/// time, instead of entering the inner loop's stream once per row. The
/// outer body's block is still lowered and runs every row the
/// executor's row guard does not admit.
///
/// A lane sink (`lin = …`) takes no initialization, no final store and
/// no INDIRECT operand, so a row it runs writes only elements whose
/// subscripts were all checked before the row began; a reduction's
/// INDIRECT operands are checked as they are read, and the row stores
/// nothing before its end.
#[derive(Clone, Debug)]
pub struct SegStream {
    /// The inner loop's `lidx`.
    pub inner: u16,
    /// The integer registers of the row variable `i` and of `j`.
    pub row: u16,
    pub var: u16,
    /// The inner loop's stream, its `invs` extended with the row's own
    /// parts: at most [`ROW_INVS`] entries, the stream's first.
    pub stream: Stream,
    /// The inner loop's bounds, entries of `stream.invs`.
    pub lo: u16,
    pub hi: u16,
    /// The reduction's initial value (its target is the stream's sink).
    pub init: Option<RowVal>,
    pub fin: Option<RowFin>,
}

impl SegStream {
    /// [`Stream::shape`] with the row's initialization before it and its
    /// final store after — `elem := val; elem = acc + lin·ind` — the
    /// rows of the segmented-stream histogram in EXPERIMENTS.md.
    pub fn shape(&self) -> String {
        let sink = match self.stream.sink {
            StreamSink::Scalar(_) => "scalar",
            _ => "elem",
        };
        let val = |v: &RowVal| match v {
            RowVal::Inv(_) => "val",
            RowVal::Elem { .. } => "elem",
        };
        let mut out = String::new();
        if let Some(v) = &self.init {
            out += &format!("{sink} := {}; ", val(v));
        }
        out += &self.stream.shape();
        if let Some(f) = &self.fin {
            let op = match f.op {
                BinOp::Add => "+",
                BinOp::Sub => "−",
                _ => "·",
            };
            let (x, y) = if f.acc_first {
                ("acc", val(&f.v))
            } else {
                (val(&f.v), "acc")
            };
            out += &format!("; {sink} := {x} {op} {y}");
        }
        out
    }
}

/// A scalar promoted to a register for the length of a typed run.
#[derive(Clone, Copy, Debug)]
pub struct Promoted {
    pub var: VarId,
    pub reg: u16,
    /// `f64` plane (real-declared) rather than `i64`.
    pub real: bool,
    /// Whether the nest can assign it: the target of a scalar
    /// assignment, an append pointer, or a loop's induction variable
    /// (the root's included). Only these are written back at exit.
    pub assigned: bool,
}

/// A lowered `do`-loop nest, as the typed loop runs it: blocks of
/// instructions (the root block is one iteration of the outermost
/// body; nested loop bodies and `while` conditions get their own
/// blocks), the sizes of the two register planes, and the tables that
/// tie registers and pin slots back to the program's variables. Plain
/// data (`Send + Sync`): the executor caches one per loop statement
/// and shares it with parallel workers via `Arc`.
#[derive(Debug)]
pub struct CompiledBody {
    blocks: Vec<Vec<FOp>>,
    root: u16,
    n_iregs: u16,
    n_fregs: u16,
    scalars: Vec<Promoted>,
    arrays: Vec<VarId>,
    stored: Vec<bool>,
    loops: Vec<StmtId>,
    streams: Vec<Option<Stream>>,
    segs: Vec<Option<SegStream>>,
    root_var: VarId,
    root_reg: u16,
    root_real: bool,
}

impl CompiledBody {
    /// The instruction blocks; [`FOp::DoLoop`] and [`FOp::WhileLoop`]
    /// name their body and condition blocks by index.
    #[inline]
    pub fn blocks(&self) -> &[Vec<FOp>] {
        &self.blocks
    }

    /// Index of the block holding one iteration of the outermost body.
    #[inline]
    pub fn root(&self) -> u16 {
        self.root
    }

    /// Size of the `i64` register plane.
    #[inline]
    pub fn int_registers(&self) -> usize {
        usize::from(self.n_iregs)
    }

    /// Size of the `f64` register plane.
    #[inline]
    pub fn real_registers(&self) -> usize {
        usize::from(self.n_fregs)
    }

    /// Registers an executor must provide to run the body, both planes.
    #[inline]
    pub fn register_count(&self) -> usize {
        self.int_registers() + self.real_registers()
    }

    /// Total instruction count across all blocks.
    pub fn op_count(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    /// Every scalar the nest references, in `VarId` order.
    #[inline]
    pub fn scalars(&self) -> &[Promoted] {
        &self.scalars
    }

    /// The scalars the nest can assign, the root induction variable
    /// aside — what a worker's write-back will log.
    pub fn assigned_scalars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.scalars
            .iter()
            .filter(|p| p.assigned && p.var != self.root_var)
            .map(|p| p.var)
    }

    /// Every array the nest references, in pin-slot order.
    #[inline]
    pub fn arrays(&self) -> &[VarId] {
        &self.arrays
    }

    /// Per pin slot: whether some instruction stores to the array. A
    /// slot the body only reads is pinned shared; a stored slot gets a
    /// write sink.
    #[inline]
    pub fn stored(&self) -> &[bool] {
        &self.stored
    }

    /// Every loop statement in the nest by slot: the root in slot 0, the
    /// inner loop counted under `lidx` in slot `lidx + 1`. Checked
    /// against `record_loops` at dispatch, since per-iteration cost
    /// recording is an interpreter-only instrument.
    #[inline]
    pub fn loop_stmts(&self) -> &[StmtId] {
        &self.loops
    }

    /// The inner loop statements in dense `lidx` order: per-loop stats
    /// accumulate in flat counters during a run and fold into the
    /// per-statement map once per entry.
    #[inline]
    pub fn inner_loops(&self) -> &[StmtId] {
        &self.loops[1..]
    }

    /// The stream of the `do` loop in slot `slot` of
    /// [`CompiledBody::loop_stmts`] (the root is slot 0, the inner loop
    /// counted under `lidx` slot `lidx + 1`), when its body is one.
    #[inline]
    pub fn stream(&self, slot: usize) -> Option<&Stream> {
        self.streams[slot].as_ref()
    }

    /// Every stream of the nest, the root's first.
    pub fn streams(&self) -> impl Iterator<Item = &Stream> {
        self.streams.iter().flatten()
    }

    /// The segmented stream of the `do` loop in slot `slot`, numbered
    /// as for [`CompiledBody::stream`], when its body is a row.
    #[inline]
    pub fn seg(&self, slot: usize) -> Option<&SegStream> {
        self.segs[slot].as_ref()
    }

    /// Every segmented stream of the nest, the root's first.
    pub fn segs(&self) -> impl Iterator<Item = &SegStream> {
        self.segs.iter().flatten()
    }

    /// The outermost loop's induction variable.
    #[inline]
    pub fn root_var(&self) -> VarId {
        self.root_var
    }

    /// The register promoted for the root induction variable, which
    /// the loop driver writes before every root iteration.
    #[inline]
    pub fn root_reg(&self) -> u16 {
        self.root_reg
    }

    /// Whether [`CompiledBody::root_reg`] is in the `f64` plane.
    #[inline]
    pub fn root_real(&self) -> bool {
        self.root_real
    }

    /// The advisory summary of this body: register count, inner loops,
    /// and how many of each fused pattern the lowering emitted.
    pub fn plan(&self) -> CompiledPlan {
        let mut plan = CompiledPlan {
            registers: self.register_count() as u32,
            inner_loops: self.inner_loops().len() as u32,
            stream_loops: self.streams().count() as u32,
            ..CompiledPlan::default()
        };
        for op in self.blocks.iter().flatten() {
            match op {
                FOp::LoadAffI { .. }
                | FOp::LoadAffF { .. }
                | FOp::StoreAffI { .. }
                | FOp::StoreAffF { .. } => plan.affine_accesses += 1,
                FOp::GatherI { .. }
                | FOp::GatherF { .. }
                | FOp::ScatterI { .. }
                | FOp::ScatterF { .. } => plan.indirect_accesses += 1,
                FOp::AppendI { .. } | FOp::AppendF { .. } => plan.appends += 1,
                FOp::MulAddF { .. } => plan.multiply_adds += 1,
                _ => {}
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_frontend::{parse_program, StmtKind};

    fn first_do(program: &Program) -> StmtId {
        let main = program.main();
        program
            .stmts_in(&program.procedure(main).body)
            .into_iter()
            .find(|s| matches!(program.stmt(*s).kind, StmtKind::Do { .. }))
            .unwrap()
    }

    #[test]
    fn spmv_style_nest_gets_a_plan_with_patterns() {
        let p = parse_program(
            "program t
             integer i, j, n, rowptr(9), colind(16)
             real y(8), aval(16), x(8), s
             n = 8
             do i = 1, n
               s = 0.0
               do j = rowptr(i), rowptr(i + 1) - 1
                 s = s + aval(j) * x(colind(j))
               enddo
               y(i) = s
             enddo
             end",
        )
        .unwrap();
        let plan = derive_compiled_plan(&p, first_do(&p)).unwrap();
        assert_eq!(plan.inner_loops, 1);
        assert!(plan.indirect_accesses >= 1, "{plan:?}");
        assert!(plan.multiply_adds >= 1, "{plan:?}");
        assert!(plan.registers > 0);
        let body = lower_do_loop(&p, first_do(&p)).unwrap();
        assert_eq!(plan.registers as usize, body.register_count());
    }

    #[test]
    fn print_in_nest_rejects() {
        let p = parse_program(
            "program t
             integer i
             real x(8)
             do i = 1, 8
               x(i) = 1.0
               print x(i)
             enddo
             end",
        )
        .unwrap();
        assert!(derive_compiled_plan(&p, first_do(&p)).is_none());
        assert_eq!(
            lower_do_loop(&p, first_do(&p)).unwrap_err(),
            LowerReject("print")
        );
    }

    #[test]
    fn append_and_affine_patterns_are_counted() {
        let p = parse_program(
            "program t
             integer i, n, p
             real out(100), x(100), y(100)
             n = 50
             p = 1
             do i = 1, n
               y(i + 1) = x(i)
               out(p) = x(i)
               p = p + 1
             enddo
             end",
        )
        .unwrap();
        let plan = derive_compiled_plan(&p, first_do(&p)).unwrap();
        assert_eq!(plan.appends, 1, "{plan:?}");
        assert!(plan.affine_accesses >= 1, "{plan:?}");
    }

    /// The stream family, shape by shape: what gets a `Stream` beside
    /// its block and what stays on the per-iteration instructions.
    #[test]
    fn the_stream_family_is_closed() {
        let streams = |body: &str| {
            let src = format!(
                "program t
                 integer i, j, k, m, ptr(9), idx(16), cnt(16)
                 real r, s, a(16), b(16), c(16), z(4, 4)
                 do i = 1, 8
                   {body}
                 enddo
                 end"
            );
            let p = parse_program(&src).unwrap();
            derive_compiled_plan(&p, first_do(&p)).unwrap().stream_loops
        };
        for body in [
            "a(i) = 0.0",
            "a(i) = 2",
            "a(i + 1) = b(i) * 1.5 + 0.25",
            "a(idx(i)) = b(i) * 2",
            "a(i) = c(i) - b(idx(i + k)) * s",
            "a(i) = b(i) + k",
            "s = s + a(i) * b(idx(i))",
            "s = a(i) - s",
            "do j = 1, 4\n a(k) = a(k) - b(ptr(i) + j - 1) * c(idx(ptr(i) + j - 1))\n enddo",
            "do j = ptr(i), ptr(i + 1) - 1\n a(j) = a(j) * 0.5 + 1.0\n enddo",
        ] {
            assert_eq!(streams(body), 1, "{body}");
        }
        for body in [
            "cnt(i) = 0",                          // integer-typed sink
            "z(i, 1) = 0.0",                       // multi-dimensional target
            "a(i) = i * 0.5",                      // the induction variable as a value
            "a(i) = b(k) * 2.0",                   // an invariant element operand
            "a(i) = 2 + k",                        // integer arithmetic
            "a(i) = b(i) * c(i) + a(i) * 0.5",     // two products
            "a(i) = sqrt(b(i))",                   // an intrinsic
            "a(2 * i) = b(i)",                     // a strided subscript
            "a(idx(idx(i))) = b(i)",               // two levels of indirection
            "s = a(i) * b(i)",                     // a scalar sink that does not accumulate
            "a(k) = a(k) + a(i)",                  // a reduction reading its own array
            "a(i) = b(i)\n c(i) = b(i)",           // two statements
            "do j = 1, 8, 2\n a(j) = 0.0\n enddo", // a stride
        ] {
            assert_eq!(streams(body), 0, "{body}");
        }
    }

    #[test]
    fn derivation_is_deterministic() {
        let p = parse_program(
            "program t
             integer i, j, n, rowlen(8), rowptr(9)
             real front(16)
             n = 8
             do i = 1, n
               do j = 1, rowlen(i)
                 front(rowptr(i) + j - 1) = front(rowptr(i) + j - 1) * 0.98
               enddo
             enddo
             end",
        )
        .unwrap();
        let s = first_do(&p);
        assert_eq!(derive_compiled_plan(&p, s), derive_compiled_plan(&p, s));
    }
}
