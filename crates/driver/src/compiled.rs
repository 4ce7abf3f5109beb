//! The compiled tier's compile-time artefact: the register bytecode IR,
//! its lowering, and the advisory [`CompiledPlan`] read off a lowered
//! nest.
//!
//! [`lower_do_loop`] is the one function in the workspace that decides
//! whether a `do` nest can be offered to the compiled backend, and it
//! decides by producing the [`CompiledBody`] the backend types and runs
//! (a lowered nest the backend cannot type falls back like one that
//! does not lower; the corpus has none). The driver
//! annotates each verdict with [`CompiledBody::plan`] of that body, next
//! to the strategy facts; the lint layer re-derives the plan with
//! [`derive_compiled_plan`] and flags verdicts whose plan was tampered
//! with.
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

use irr_frontend::{BinOp, Intrinsic, Program, ScalarType, StmtId, VarId};

/// What the compiled tier will do with a loop nest: a summary of its
/// lowered body. Also a fingerprint: the lint layer re-derives the plan
/// and compares for equality, so every field is a pure function of the
/// program.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CompiledPlan {
    /// Registers the bytecode body allocates
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
    /// Scalar reduction accumulates `s = s op e` / `s = e op s`.
    pub accumulates: u32,
}

/// The advisory compiled-tier plan for the `do` loop at `loop_stmt`:
/// the summary of its lowered body, or `None` when [`lower_do_loop`]
/// rejects the nest.
pub fn derive_compiled_plan(program: &Program, loop_stmt: StmtId) -> Option<CompiledPlan> {
    lower_do_loop(program, loop_stmt).ok().map(|cb| cb.plan())
}

/// An instruction operand: a temp register, a scalar store slot, or an
/// immediate. Scalar reads are deferred to the consuming instruction —
/// expressions cannot write scalars, so the deferred read observes the
/// same value the interpreter's eager left-to-right evaluation would.
#[derive(Clone, Copy, Debug)]
pub enum Opnd {
    /// Temp register.
    T(u16),
    /// Scalar store slot (dense `VarId` index).
    S(VarId),
    /// Integer immediate.
    I(i64),
    /// Real immediate.
    R(f64),
}

/// One bytecode instruction. Temp register indices (`u16`) index the
/// per-execution register file; jump targets are indices into the
/// instruction's own block. Nothing executes an `Op`: the executor's
/// `specialize` types a body into its own instruction set, and each
/// variant documents the tree-walk semantics that translation keeps.
/// Array accesses say nothing about materialization — the typed loop
/// runs only once every referenced array is live, and until then the
/// tree-walk materializes lazily in its own order.
#[derive(Clone, Debug)]
pub enum Op {
    /// Charge `n` cost/fuel units — emitted at every statement entry
    /// (and nowhere else), so total cost and the out-of-fuel point
    /// match the interpreter exactly.
    Charge(u64),
    /// `t[dst] = src`.
    Mov { dst: u16, src: Opnd },
    /// `t[dst] = a op b` with the interpreter's `apply_bin` semantics
    /// (wrapping integer arithmetic, euclidean div/mod, zero checks).
    Bin {
        op: BinOp,
        dst: u16,
        a: Opnd,
        b: Opnd,
    },
    /// `t[dst] = -src`.
    Neg { dst: u16, src: Opnd },
    /// `t[dst] = (a op b) as 0/1` with `eval_cond` ordering semantics
    /// (exact integer compare, NaN compares equal).
    Cmp {
        op: BinOp,
        dst: u16,
        a: Opnd,
        b: Opnd,
    },
    /// `t[dst] = (src != 0.0) as 0/1` (condition fallback truthiness).
    Truthy { dst: u16, src: Opnd },
    /// `t[t] = 1 - t[t]` (logical not over a 0/1 condition register).
    Not { t: u16 },
    /// One-argument intrinsic.
    Intr1 { f: Intrinsic, dst: u16, a: Opnd },
    /// Two-argument intrinsic.
    Intr2 {
        f: Intrinsic,
        dst: u16,
        a: Opnd,
        b: Opnd,
    },
    /// Unconditional jump within the block.
    Jump { target: u32 },
    /// Jump when the 0/1 condition register is 0.
    JumpIfZero { src: u16, target: u32 },
    /// Jump when the 0/1 condition register is non-0.
    JumpIfNonZero { src: u16, target: u32 },
    /// Column-major flat index of `n` subscripts held in consecutive
    /// temps `t[base..base+n]`, bounds-checked per dimension;
    /// `t[dst] = flat index`.
    IndexN {
        arr: VarId,
        base: u16,
        n: u8,
        dst: u16,
    },
    /// `t[dst] = arr[t[idx]]` (flat index previously checked).
    LoadAt { arr: VarId, idx: u16, dst: u16 },
    /// `arr[t[idx]] = src` through the store's full write path
    /// (overlay intercept, copy-on-write, version bump, write log).
    StoreAt { arr: VarId, idx: u16, src: Opnd },
    /// Fused 1-subscript load: bounds-check `sub` against the first
    /// extent, read.
    LoadElem1 { arr: VarId, sub: Opnd, dst: u16 },
    /// Fused 1-subscript store.
    StoreElem1 { arr: VarId, sub: Opnd, src: Opnd },
    /// Fused affine load `arr(base + off)`; `base` is an
    /// integer-typed scalar slot.
    LoadAffine {
        arr: VarId,
        base: VarId,
        off: i64,
        dst: u16,
    },
    /// Fused affine store `arr(base + off) = src` — the proven
    /// in-place-disjoint write pattern.
    StoreAffine {
        arr: VarId,
        base: VarId,
        off: i64,
        src: Opnd,
    },
    /// Fused gather `arr(idx_arr(sub))`: both subscripts
    /// bounds-checked, the index array's first.
    Gather {
        arr: VarId,
        idx_arr: VarId,
        sub: Opnd,
        dst: u16,
    },
    /// Fused gather-store `arr(idx_arr(sub)) = src`.
    Scatter {
        arr: VarId,
        idx_arr: VarId,
        sub: Opnd,
        src: Opnd,
    },
    /// Scalar write with declared-type coercion and write-log record.
    SetScalar {
        var: VarId,
        ty: ScalarType,
        src: Opnd,
    },
    /// Fused reduction accumulate `var = var op src` (`rev` swaps the
    /// operand order: `var = src op var`).
    Accum {
        var: VarId,
        ty: ScalarType,
        op: BinOp,
        rev: bool,
        src: Opnd,
    },
    /// Fused append-through-pointer: `arr(ptr) = src` followed by the
    /// second statement's charge and `ptr = ptr + 1` — the
    /// privatize-and-concat write pattern.
    Append {
        arr: VarId,
        ptr: VarId,
        ty: ScalarType,
        src: Opnd,
    },
    /// A nested `do` loop: bounds read from operands (already
    /// evaluated in-order by preceding ops), induction writes logged,
    /// per-loop statistics maintained exactly as the interpreter's.
    DoLoop {
        var: VarId,
        ty: ScalarType,
        stmt: StmtId,
        lo: Opnd,
        hi: Opnd,
        step: Opnd,
        body: u16,
    },
    /// A nested `while` loop: the condition block leaves 0/1 in
    /// `cond_temp` before every iteration.
    WhileLoop {
        stmt: StmtId,
        cond: u16,
        cond_temp: u16,
        body: u16,
    },
}

/// A lowered `do`-loop nest: blocks of instructions (the root block is
/// one iteration of the outermost body; nested loop bodies and `while`
/// conditions get their own blocks) plus the register-file size and
/// the loop metadata the drivers need.
#[derive(Debug)]
pub struct CompiledBody {
    blocks: Vec<Vec<Op>>,
    /// Block holding one iteration of the outermost loop body.
    root: u16,
    /// Register-file size.
    n_temps: u16,
    /// The outermost loop's induction variable and its declared type.
    root_var: VarId,
    root_ty: ScalarType,
    /// Every loop statement in the nest (root first) — checked against
    /// `record_loops` at dispatch, since per-iteration cost recording
    /// is an interpreter-only instrument.
    loops: Vec<StmtId>,
}

impl CompiledBody {
    /// The instruction blocks; [`Op::DoLoop`] and [`Op::WhileLoop`]
    /// name their body and condition blocks by index.
    #[inline]
    pub fn blocks(&self) -> &[Vec<Op>] {
        &self.blocks
    }

    /// Index of the block holding one iteration of the outermost body.
    #[inline]
    pub fn root(&self) -> u16 {
        self.root
    }

    /// The outermost loop's induction variable and its declared type.
    #[inline]
    pub fn root_var(&self) -> (VarId, ScalarType) {
        (self.root_var, self.root_ty)
    }

    /// Total instruction count across all blocks.
    pub fn op_count(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    /// Register-file size an executor must provide to run the body.
    #[inline]
    pub fn register_count(&self) -> usize {
        self.n_temps as usize
    }

    /// Loop statements in the nest (outermost first).
    pub fn loop_stmts(&self) -> &[StmtId] {
        &self.loops
    }

    /// The advisory summary of this body: register count, inner loops,
    /// and how many of each fused access pattern the lowering emitted.
    pub fn plan(&self) -> CompiledPlan {
        let mut plan = CompiledPlan {
            registers: u32::from(self.n_temps),
            ..CompiledPlan::default()
        };
        for op in self.blocks.iter().flatten() {
            match op {
                Op::DoLoop { .. } | Op::WhileLoop { .. } => plan.inner_loops += 1,
                Op::LoadAffine { .. } | Op::StoreAffine { .. } => plan.affine_accesses += 1,
                Op::Gather { .. } | Op::Scatter { .. } => plan.indirect_accesses += 1,
                Op::Append { .. } => plan.appends += 1,
                Op::Accum { .. } => plan.accumulates += 1,
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
        assert!(plan.accumulates >= 1, "{plan:?}");
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
