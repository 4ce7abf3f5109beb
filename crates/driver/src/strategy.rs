//! Strategy facts: proven properties that let the runtime execute a
//! parallel loop without the write-log transaction.
//!
//! The write-log executor (`irr-exec`) is a safety net: each chunk
//! writes its own copy of every array it stores to and logs those
//! stores, and a validating merge replays the logs. When the compiler
//! has already *proven* where a loop writes, that machinery is pure
//! overhead. This module derives two such proofs from the loop body:
//!
//! - [`StrategyFacts::InPlace`] — every non-privatized written array
//!   is touched under one [`WriteShape`], from which the executor
//!   computes what each chunk of the iteration space may touch: an
//!   affine window, an offset–length segment window, or — under an
//!   injectivity certificate — a scattered set. Workers write the
//!   master store in place.
//! - [`StrategyFacts::ConsecutiveAppend`] — the written arrays are
//!   consecutively-written sections (§2.2 of the paper) through a
//!   single pointer scalar, so per-worker private buffers concatenate
//!   positionally.
//!
//! `derive_in_place_facts` and `derive_concat_shape` are pure functions
//! of the program text (one [`BodyTable`] walk of the nest, no analysis
//! context): the executor re-derives them per dispatch and trusts *only*
//! its own derivation, so a forged verdict can never reach the in-place
//! write path. The driver runs the same code on the context's memoized
//! table.

use crate::{GuardPlan, ResidualCheck};
use irr_core::{consecutively_written, AnalysisCtx, BodyTable};
use irr_frontend::ast::{BinOp, Expr, LValue, StmtKind};
use irr_frontend::symbols::VarId;
use irr_frontend::{Program, StmtId};

/// How a loop touches one in-place target: the one subscript form
/// every access to the array has. The executor turns a shape into what
/// a chunk `[clo, chi]` of the iteration space may touch, and enforces
/// it at every access — the shape only predicts that nothing trips.
///
/// Ordered by how much of the in-place argument rests on run-time
/// input: nothing, the live offset array, a certificate.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum WriteShape {
    /// `a(i + off)`, written and read only there: the chunk owns the
    /// window `[clo + off, chi + off]`.
    Affine {
        /// The constant `c` of `loop_var + c`.
        off: i64,
    },
    /// `a(ptr(i) + e)` with `ptr` not written in the nest (the
    /// offset–length walk): the chunk owns `[ptr(clo), ptr(chi + 1))`,
    /// read off the live `ptr`.
    Segment {
        /// The offset array.
        ptr: VarId,
    },
    /// `a(index(i + off))`, never read, `index` not written in the
    /// nest: chunks write disjoint *sets* when `index` is injective on
    /// `[lo + off, hi + off]`, which only a run-time certificate of the
    /// executor's own inspector establishes.
    Scatter {
        /// The index array.
        index: VarId,
        /// The constant `c` of `index(loop_var + c)`.
        off: i64,
    },
}

impl WriteShape {
    /// Short stable name for telemetry, witnesses and expectations.
    pub fn name(self) -> &'static str {
        match self {
            WriteShape::Affine { .. } => "disjoint-affine",
            WriteShape::Segment { .. } => "offset-length-segment",
            WriteShape::Scatter { .. } => "certified-scatter",
        }
    }
}

/// One array an in-place dispatch writes through the master buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InPlaceTarget {
    /// The written array.
    pub array: VarId,
    /// The subscript form of every access to it.
    pub shape: WriteShape,
    /// The nest also reads the array (under the same shape): a failed
    /// dispatch must put its old contents back before the sequential
    /// fallback runs.
    pub read: bool,
    /// Some top-level statement of the body writes it unconditionally,
    /// so every iteration of a sequential re-execution writes its cell
    /// again, whatever a failed dispatch left there.
    pub always_written: bool,
}

/// Proven facts the runtime can turn into a zero-merge execution
/// strategy. Derived per loop after the dispatch tier is known; `None`
/// means parallel dispatches use the transactional write-log.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum StrategyFacts {
    /// No strategy-grade proof: parallel dispatches use the write-log.
    #[default]
    None,
    /// Every target has a [`WriteShape`]: iteration chunks touch
    /// disjoint parts of each and workers may write the master store in
    /// place.
    InPlace {
        /// The targets with their shapes.
        targets: Vec<InPlaceTarget>,
    },
    /// The arrays are consecutively-written sections through `ptr`
    /// (§2.2): per-worker private buffers concatenate positionally.
    ConsecutiveAppend {
        /// The pointer scalar (`p` in `p = p + 1; a(p) = ...`).
        ptr: VarId,
        /// The consecutively-written arrays.
        arrays: Vec<VarId>,
    },
}

impl StrategyFacts {
    /// Short stable name for telemetry and witnesses. In-place facts
    /// are named after the target shape that leans most on run-time
    /// input.
    pub fn name(&self) -> &'static str {
        match self {
            StrategyFacts::None => "none",
            StrategyFacts::InPlace { targets } => targets
                .iter()
                .map(|t| t.shape)
                .max()
                .map_or("none", WriteShape::name),
            StrategyFacts::ConsecutiveAppend { .. } => "consecutive-append",
        }
    }
}

/// `loop_var + c` (including bare `loop_var`, `c + loop_var`, and
/// `loop_var - c`) — the subscript shapes whose per-iteration write
/// sets are trivially disjoint.
fn affine_offset(e: &Expr, loop_var: VarId) -> Option<i64> {
    match e {
        Expr::Var(v) if *v == loop_var => Some(0),
        Expr::Bin(BinOp::Add, a, b) => match (&**a, &**b) {
            (Expr::Var(v), Expr::IntLit(c)) if *v == loop_var => Some(*c),
            (Expr::IntLit(c), Expr::Var(v)) if *v == loop_var => Some(*c),
            _ => None,
        },
        Expr::Bin(BinOp::Sub, a, b) => match (&**a, &**b) {
            // Checked: constant folding can leave `i - i64::MIN`, whose
            // negation has no i64 representation.
            (Expr::Var(v), Expr::IntLit(c)) if *v == loop_var => c.checked_neg(),
            _ => None,
        },
        _ => None,
    }
}

/// The `ptr` of an `a(ptr(i) + e)` subscript: the one term
/// `ptr(loop_var)` on the positive side of a sum. Bare `ptr(i)` is a
/// scatter, not a segment walk.
fn segment_base(e: &Expr, loop_var: VarId) -> Option<VarId> {
    fn term(e: &Expr, loop_var: VarId) -> Option<VarId> {
        match e {
            Expr::Element(p, subs) => match subs.as_slice() {
                [Expr::Var(v)] if *v == loop_var => Some(*p),
                _ => None,
            },
            Expr::Bin(BinOp::Add, a, b) => match (term(a, loop_var), term(b, loop_var)) {
                (Some(p), None) | (None, Some(p)) => Some(p),
                _ => None,
            },
            Expr::Bin(BinOp::Sub, a, _) => term(a, loop_var),
            _ => None,
        }
    }
    match e {
        Expr::Bin(BinOp::Add | BinOp::Sub, ..) => term(e, loop_var),
        _ => None,
    }
}

/// The one [`WriteShape`] a subscript list can have.
fn shape_of(subs: &[Expr], loop_var: VarId) -> Option<WriteShape> {
    let [sub] = subs else {
        return None;
    };
    if let Some(off) = affine_offset(sub, loop_var) {
        return Some(WriteShape::Affine { off });
    }
    if let Expr::Element(index, inner) = sub {
        let [inner] = inner.as_slice() else {
            return None;
        };
        let off = affine_offset(inner, loop_var)?;
        return Some(WriteShape::Scatter { index: *index, off });
    }
    segment_base(sub, loop_var).map(|ptr| WriteShape::Segment { ptr })
}

/// The one shape two accesses to the same target can share: the same
/// one, or — bare `ptr(i)` being the `e = 0` element of the segment
/// `ptr(i)` starts — the segment when the other is a walk through it.
fn unify(a: WriteShape, b: WriteShape) -> Option<WriteShape> {
    use WriteShape::{Scatter, Segment};
    match (a, b) {
        _ if a == b => Some(a),
        (Segment { ptr }, Scatter { index, off: 0 })
        | (Scatter { index, off: 0 }, Segment { ptr })
            if ptr == index =>
        {
            Some(Segment { ptr })
        }
        _ => None,
    }
}

/// The statement kinds a concat-eligible body may contain. Nested
/// loops and calls are rejected: they make the per-iteration append
/// sequence non-obvious and bring in side effects the derivation
/// cannot see.
fn body_is_straightline(program: &Program, stmts: &[StmtId]) -> bool {
    stmts.iter().all(|s| {
        matches!(
            program.stmt(*s).kind,
            StmtKind::Assign { .. }
                | StmtKind::If { .. }
                | StmtKind::Print { .. }
                | StmtKind::Return
        )
    })
}

/// Finds, for every non-privatized array `loop_stmt` writes, the one
/// [`WriteShape`] all of the nest's accesses to it have, so iteration
/// chunks touch disjoint parts of each and workers may write the master
/// store in place.
///
/// Returns one [`InPlaceTarget`] per written array, or `None` if any of
/// the conditions fail. The executor calls this itself on every
/// `InPlaceDisjoint` dispatch — the plan's strategy is advisory, this
/// derivation is the safety gate — so it must stay a pure function of
/// the program text plus the privatized/reduction sets.
///
/// Conditions:
/// - the nest contains no call (inner `do`/`while`/`if` are fine: what
///   a chunk may touch is enforced per access, wherever it happens) and
///   does not assign the loop variable;
/// - every assigned scalar is privatized or a reduction (each chunk
///   keeps them in its own registers);
/// - every access to a target, read or write, has the same shape with
///   the same constants (distinct offsets would reach across chunks),
///   and a scatter target is never read (its chunks own sets, not
///   windows, so nothing confines a read);
/// - the `ptr` / `index` array of a shape is not written in the nest,
///   so the windows and the certificate computed at dispatch hold for
///   its whole length;
/// - targets are 1-D.
pub fn derive_in_place_facts(
    program: &Program,
    loop_stmt: StmtId,
    privatized: &[VarId],
    reductions: &[VarId],
) -> Option<Vec<InPlaceTarget>> {
    let StmtKind::Do { body, .. } = &program.stmt(loop_stmt).kind else {
        return None;
    };
    let table = BodyTable::of(program, body);
    in_place_targets(program, loop_stmt, &table, privatized, reductions)
}

/// [`derive_in_place_facts`] over the already-walked body of `loop_stmt`.
fn in_place_targets(
    program: &Program,
    loop_stmt: StmtId,
    table: &BodyTable<'_>,
    privatized: &[VarId],
    reductions: &[VarId],
) -> Option<Vec<InPlaceTarget>> {
    let StmtKind::Do {
        var: loop_var,
        body,
        ..
    } = &program.stmt(loop_stmt).kind
    else {
        return None;
    };
    let loop_var = *loop_var;
    if !table.callees.is_empty() {
        return None;
    }
    let assigned = &table.assigned_scalars;
    if assigned.contains(&loop_var) {
        return None;
    }
    if !assigned
        .iter()
        .all(|s| privatized.contains(s) || reductions.contains(s))
    {
        return None;
    }
    let accesses = &table.accesses;
    let mut targets: Vec<InPlaceTarget> = Vec::new();
    for acc in accesses {
        if !acc.is_write || privatized.contains(&acc.array) {
            continue;
        }
        let shape = shape_of(acc.subscripts, loop_var)?;
        match targets.iter_mut().find(|t| t.array == acc.array) {
            None => targets.push(InPlaceTarget {
                array: acc.array,
                shape,
                read: false,
                always_written: false,
            }),
            Some(t) => t.shape = unify(t.shape, shape)?,
        }
    }
    if targets.is_empty() {
        return None;
    }
    // Reads of a target — in rhs, conditions, loop bounds, print
    // arguments, or any subscript (collect_array_accesses sees all of
    // those) — must go through the shape its writes have.
    for acc in accesses.iter().filter(|acc| !acc.is_write) {
        let Some(t) = targets.iter_mut().find(|t| t.array == acc.array) else {
            continue;
        };
        t.shape = unify(t.shape, shape_of(acc.subscripts, loop_var)?)?;
        if matches!(t.shape, WriteShape::Scatter { .. }) {
            return None;
        }
        t.read = true;
    }
    for t in &mut targets {
        if let WriteShape::Segment { ptr: via } | WriteShape::Scatter { index: via, .. } = t.shape {
            if table.written_arrays.contains(&via) {
                return None;
            }
        }
        if program.symbols.var(t.array).rank() != 1 {
            return None;
        }
        t.always_written = body.iter().any(|&s| {
            matches!(&program.stmt(s).kind,
                     StmtKind::Assign { lhs: LValue::Element(v, _), .. } if *v == t.array)
        });
    }
    Some(targets)
}

/// The in-place facts the driver attaches to a parallel-tier verdict:
/// [`derive_in_place_facts`], minus loops whose scatter targets could
/// never be certified — a certificate comes out of the guard's own
/// injectivity inspection of that index array, so a loop without one
/// (compile-time parallel, or guarded by something else) keeps the
/// write-log.
pub(crate) fn in_place_facts(
    ctx: &AnalysisCtx<'_>,
    loop_stmt: StmtId,
    privatized: &[VarId],
    reductions: &[VarId],
    guard: Option<&GuardPlan>,
) -> StrategyFacts {
    let table = ctx.loop_table(loop_stmt);
    let Some(targets) = in_place_targets(ctx.program, loop_stmt, table, privatized, reductions)
    else {
        return StrategyFacts::None;
    };
    let inspected = |index: VarId| {
        guard.is_some_and(|g| {
            g.all_checks()
                .any(|c| matches!(c, ResidualCheck::Injective { array } if *array == index))
        })
    };
    let certifiable = targets.iter().all(|t| match t.shape {
        WriteShape::Scatter { index, .. } => inspected(index),
        _ => true,
    });
    if certifiable {
        StrategyFacts::InPlace { targets }
    } else {
        StrategyFacts::None
    }
}

/// Syntactic half of the consecutive-append proof: finds the unique
/// pointer scalar and the arrays written only at `[ptr]`, and checks
/// the pointer discipline (`ptr = ptr + 1` is its only definition,
/// nothing else in the body mentions `ptr`). The semantic half — that
/// the appended region has no holes — is `consecutively_written` in
/// `irr-core`; the executor cannot run that (no analysis context), so
/// it re-derives this shape and validates hole-freedom dynamically at
/// commit (append positions must be contiguous and the pointer delta
/// must equal each buffer length).
pub fn derive_concat_shape(
    program: &Program,
    loop_stmt: StmtId,
    privatized: &[VarId],
    reductions: &[VarId],
) -> Option<(VarId, Vec<VarId>)> {
    let StmtKind::Do { body, .. } = &program.stmt(loop_stmt).kind else {
        return None;
    };
    let table = BodyTable::of(program, body);
    concat_shape(program, loop_stmt, &table, privatized, reductions)
}

/// [`derive_concat_shape`] over the already-walked body of `loop_stmt`.
fn concat_shape(
    program: &Program,
    loop_stmt: StmtId,
    table: &BodyTable<'_>,
    privatized: &[VarId],
    reductions: &[VarId],
) -> Option<(VarId, Vec<VarId>)> {
    let StmtKind::Do { var: loop_var, .. } = &program.stmt(loop_stmt).kind else {
        return None;
    };
    let loop_var = *loop_var;
    if !body_is_straightline(program, &table.stmts) {
        return None;
    }
    let assigned = &table.assigned_scalars;
    if assigned.contains(&loop_var) {
        return None;
    }
    // The pointer: the unique non-privatized, non-reduction scalar
    // used as the whole subscript of a write.
    let accesses = &table.accesses;
    let mut ptr: Option<VarId> = None;
    for acc in accesses {
        if !acc.is_write || privatized.contains(&acc.array) {
            continue;
        }
        if let [Expr::Var(p)] = acc.subscripts {
            if *p != loop_var
                && !program.symbols.var(*p).is_array()
                && !privatized.contains(p)
                && !reductions.contains(p)
            {
                match ptr {
                    None => ptr = Some(*p),
                    Some(q) if q == *p => {}
                    Some(_) => return None,
                }
            }
        }
    }
    let ptr = ptr?;
    let mut targets: Vec<VarId> = Vec::new();
    for acc in accesses {
        if acc.is_write
            && !privatized.contains(&acc.array)
            && matches!(acc.subscripts, [Expr::Var(p)] if *p == ptr)
            && !targets.contains(&acc.array)
        {
            targets.push(acc.array);
        }
    }
    // Every access to a target must be exactly such a write: a read
    // would observe the worker's stale private copy instead of the
    // appended values, and any other write shape breaks contiguity.
    for acc in accesses {
        if targets.contains(&acc.array)
            && !(acc.is_write && matches!(acc.subscripts, [Expr::Var(p)] if *p == ptr))
        {
            return None;
        }
    }
    // Pointer discipline: assigned only as `ptr = ptr + 1`, mentioned
    // nowhere else. Workers start from the shared entry value, so any
    // other use of `ptr` would observe a position shifted by the other
    // chunks' appends.
    let is_increment = |rhs: &Expr| match rhs {
        Expr::Bin(BinOp::Add, a, b) => matches!(
            (&**a, &**b),
            (Expr::Var(v), Expr::IntLit(1)) | (Expr::IntLit(1), Expr::Var(v)) if *v == ptr
        ),
        _ => false,
    };
    let mut increments = 0usize;
    for &s in &table.stmts {
        match &program.stmt(s).kind {
            StmtKind::Assign {
                lhs: LValue::Scalar(v),
                rhs,
            } if *v == ptr => {
                if !is_increment(rhs) {
                    return None;
                }
                increments += 1;
            }
            StmtKind::Assign { lhs, rhs } => {
                let target_write = matches!(lhs, LValue::Element(a, _) if targets.contains(a));
                // Target subscripts are `[ptr]` by construction; every
                // other position must not mention the pointer.
                if !target_write && lhs.subscripts().iter().any(|e| e.mentions(ptr)) {
                    return None;
                }
                if rhs.mentions(ptr) {
                    return None;
                }
            }
            StmtKind::If { cond, .. } => {
                if cond.mentions(ptr) {
                    return None;
                }
            }
            StmtKind::Print { args } => {
                if args.iter().any(|e| e.mentions(ptr)) {
                    return None;
                }
            }
            StmtKind::Return => {}
            _ => return None,
        }
    }
    if increments == 0 {
        return None;
    }
    if !assigned
        .iter()
        .all(|s| *s == ptr || privatized.contains(s) || reductions.contains(s))
    {
        return None;
    }
    if targets.is_empty() || targets.iter().any(|&a| program.symbols.var(a).rank() != 1) {
        return None;
    }
    Some((ptr, targets))
}

/// Full consecutive-append derivation for the driver: the syntactic
/// shape plus the paper's hole-freedom proof per target, plus the
/// requirement that every *other* written array is privatized or
/// proven independent (their writes still go through the write-log
/// merge, which catches overlaps but not stale cross-chunk reads — so
/// promotion demands the compile-time proof).
pub(crate) fn derive_concat_facts(
    ctx: &AnalysisCtx<'_>,
    loop_stmt: StmtId,
    privatized: &[VarId],
    reductions: &[VarId],
    independent: &[VarId],
) -> StrategyFacts {
    let table = ctx.loop_table(loop_stmt);
    let Some((ptr, targets)) = concat_shape(ctx.program, loop_stmt, table, privatized, reductions)
    else {
        return StrategyFacts::None;
    };
    let covered =
        |a: &VarId| targets.contains(a) || privatized.contains(a) || independent.contains(a);
    if !table.written_arrays.iter().all(covered) {
        return StrategyFacts::None;
    }
    for &a in &targets {
        match consecutively_written(ctx, loop_stmt, a, ptr) {
            Some(cw) if !cw.increments.is_empty() => {}
            _ => return StrategyFacts::None,
        }
    }
    StrategyFacts::ConsecutiveAppend {
        ptr,
        arrays: targets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_frontend::parse_program;

    fn first_do(p: &Program) -> StmtId {
        p.stmts_in(&p.procedure(p.main()).body)
            .into_iter()
            .find(|s| matches!(p.stmt(*s).kind, StmtKind::Do { .. }))
            .expect("program has a do loop")
    }

    fn var(p: &Program, name: &str) -> VarId {
        p.symbols.lookup(name).expect("variable exists")
    }

    fn shapes(targets: &[InPlaceTarget]) -> Vec<(VarId, WriteShape)> {
        targets.iter().map(|t| (t.array, t.shape)).collect()
    }

    /// The in-place derivation of `body` inside `do i = 1, n`, with
    /// `j` privatized (the inner loops' induction variable).
    fn derive_body(body: &str) -> (Program, Option<Vec<InPlaceTarget>>) {
        let p = parse_program(&format!(
            "program t
             integer i, j, n, ptr(101), len(100), p(100), q(100)
             real x(100), y(100), z(100)
             do i = 1, n
{body}
             enddo
             end"
        ))
        .unwrap();
        let facts = derive_in_place_facts(&p, first_do(&p), &[var(&p, "j")], &[]);
        (p, facts)
    }

    #[test]
    fn affine_offset_survives_extreme_constants() {
        use irr_frontend::{BinOp, Expr};
        let p = parse_program(
            "program t
             integer i
             real x(10)
             do i = 1, 10
               x(i) = 1
             enddo
             end",
        )
        .unwrap();
        let i = var(&p, "i");
        // `i - i64::MIN` (only reachable through constant folding):
        // negation has no i64 representation, so no offset — and no
        // debug-build overflow panic.
        let e = Expr::Bin(
            BinOp::Sub,
            Box::new(Expr::Var(i)),
            Box::new(Expr::IntLit(i64::MIN)),
        );
        assert_eq!(affine_offset(&e, i), None);
        // i64::MAX-adjacent offsets keep their exact value in both
        // operand orders.
        let e = Expr::Bin(
            BinOp::Add,
            Box::new(Expr::Var(i)),
            Box::new(Expr::IntLit(i64::MAX - 1)),
        );
        assert_eq!(affine_offset(&e, i), Some(i64::MAX - 1));
        let e = Expr::Bin(
            BinOp::Sub,
            Box::new(Expr::Var(i)),
            Box::new(Expr::IntLit(i64::MIN + 1)),
        );
        assert_eq!(affine_offset(&e, i), Some(i64::MAX));
    }

    #[test]
    fn in_place_facts_carry_extreme_offsets_unclamped() {
        // The derivation is a pure fact about the program text; range
        // validation happens at dispatch. The fact must carry the
        // extreme offset without overflow.
        let p = parse_program(
            "program t
             integer i
             real x(10)
             do i = 1, 10
               x(i + 9223372036854775800) = 1
             enddo
             end",
        )
        .unwrap();
        let facts = derive_in_place_facts(&p, first_do(&p), &[], &[]).expect("facts derive");
        assert_eq!(
            shapes(&facts),
            vec![(
                var(&p, "x"),
                WriteShape::Affine {
                    off: 9223372036854775800
                }
            )]
        );
    }

    #[test]
    fn a_target_read_where_it_is_written_qualifies_and_asks_for_an_undo_copy() {
        // `y(i)` is read and written at the same subscript: the chunk
        // that writes it is the only one that reads it. `x` is
        // write-only and needs no undo.
        let (p, facts) = derive_body("x(i) = y(i) * 2.0\n y(i) = 0.0");
        let facts = facts.expect("read-own-write qualifies");
        let affine = WriteShape::Affine { off: 0 };
        assert_eq!(
            shapes(&facts),
            vec![(var(&p, "x"), affine), (var(&p, "y"), affine)]
        );
        assert_eq!(
            facts.iter().map(|t| t.read).collect::<Vec<_>>(),
            [false, true]
        );
    }

    #[test]
    fn a_target_read_anywhere_else_rejects() {
        // A second offset reaches into the neighbouring chunk's
        // window; so does a read through another array's subscript.
        for body in [
            "y(i) = y(i - 1) + 1.0",
            "y(i) = y(i) + y(i + 1)",
            "y(i) = y(p(i))",
            "x(i) = z(p(i))\n z(i) = 1.0",
            "if (y(1) > 0.0) then\n y(i) = 1.0\n endif",
        ] {
            assert_eq!(derive_body(body).1, None, "{body}");
        }
    }

    #[test]
    fn write_only_affine_targets_qualify_with_offsets() {
        let p = parse_program(
            "program t
             integer i, n
             real x(100), y(101), z(100)
             do i = 1, n
               x(i) = z(i) * 2.0
               y(i + 1) = z(i)
             enddo
             end",
        )
        .unwrap();
        let facts = derive_in_place_facts(&p, first_do(&p), &[], &[]).expect("facts");
        assert_eq!(
            shapes(&facts),
            vec![
                (var(&p, "x"), WriteShape::Affine { off: 0 }),
                (var(&p, "y"), WriteShape::Affine { off: 1 })
            ]
        );
        assert!(facts.iter().all(|t| !t.read && t.always_written));
    }

    #[test]
    fn conflicting_offsets_reject() {
        let p = parse_program(
            "program t
             integer i, n
             real x(101)
             do i = 1, n
               x(i) = 1.0
               x(i + 1) = 2.0
             enddo
             end",
        )
        .unwrap();
        assert_eq!(derive_in_place_facts(&p, first_do(&p), &[], &[]), None);
    }

    #[test]
    fn conditional_only_writes_are_flagged_not_always_written() {
        // A target written only under a condition is not rewritten
        // cell for cell by a sequential re-execution.
        let (p, facts) = derive_body("if (z(i) > 0.0) then\n x(i) = 1.0\n endif");
        let facts = facts.expect("facts");
        assert_eq!(
            shapes(&facts),
            vec![(var(&p, "x"), WriteShape::Affine { off: 0 })]
        );
        assert!(!facts[0].always_written);
    }

    #[test]
    fn scatter_shape_needs_one_unwritten_index_array_and_an_unread_target() {
        let (p, facts) = derive_body("x(p(i + 2)) = 1.0");
        assert_eq!(
            shapes(&facts.expect("scatter")),
            vec![(
                var(&p, "x"),
                WriteShape::Scatter {
                    index: var(&p, "p"),
                    off: 2
                }
            )]
        );
        for body in [
            // two index arrays onto one target
            "x(p(i)) = 1.0\n x(q(i)) = 2.0",
            // the target is read, through the index array or not
            "x(p(i)) = x(p(i)) + 1.0",
            "x(p(i)) = 1.0\n y(i) = x(i)",
            // the index array is written in the nest
            "p(i) = i\n x(p(i)) = 1.0",
            // not a subscripted subscript of the loop variable
            "x(p(j)) = 1.0",
            "x(p(p(i))) = 1.0",
            "x(i * 2) = 1.0",
        ] {
            assert_eq!(derive_body(body).1, None, "{body}");
        }
    }

    #[test]
    fn segment_shape_is_every_access_through_one_unwritten_ptr() {
        let walk = "do j = 1, len(i)\n x(ptr(i) + j - 1) = x(ptr(i) + j - 1) * 0.5\n enddo";
        let (p, facts) = derive_body(walk);
        let facts = facts.expect("segment");
        assert_eq!(
            shapes(&facts),
            vec![(
                var(&p, "x"),
                WriteShape::Segment {
                    ptr: var(&p, "ptr")
                }
            )]
        );
        assert!(facts[0].read && !facts[0].always_written);
        // Bare `ptr(i)` is the walk's first element, on either side.
        for body in [
            "x(ptr(i)) = 0.0\n x(ptr(i) + 1) = 1.0",
            "x(ptr(i) + 1) = 1.0\n y(i) = x(ptr(i))",
            "x(ptr(i)) = 1.0\n y(i) = x(ptr(i) + 1)",
        ] {
            let (_, facts) = derive_body(body);
            assert_eq!(
                facts.unwrap_or_else(|| panic!("{body}"))[0].shape,
                WriteShape::Segment {
                    ptr: var(&p, "ptr")
                },
                "{body}"
            );
        }
        for body in [
            // `ptr` written in the nest: the windows read at dispatch
            // would not hold
            "ptr(i + 1) = ptr(i) + len(i)\n x(ptr(i) + 1) = 1.0",
            // a second offset array, or a second shape, on one target
            "x(ptr(i) + 1) = 1.0\n x(len(i) + 1) = 2.0",
            "x(ptr(i) + 1) = 1.0\n x(i) = 2.0",
            "x(ptr(i) + len(i)) = 1.0",
            // the target read outside the walk
            "x(ptr(i) + 1) = x(i)",
        ] {
            assert_eq!(derive_body(body).1, None, "{body}");
        }
    }

    #[test]
    fn unlisted_assigned_scalar_rejects_but_reduction_passes() {
        let p = parse_program(
            "program t
             integer i, n
             real s, x(100), z(100)
             do i = 1, n
               s = s + z(i)
               x(i) = z(i)
             enddo
             end",
        )
        .unwrap();
        let s = var(&p, "s");
        assert_eq!(derive_in_place_facts(&p, first_do(&p), &[], &[]), None);
        let facts = derive_in_place_facts(&p, first_do(&p), &[], &[s]).expect("facts");
        assert_eq!(
            shapes(&facts),
            vec![(var(&p, "x"), WriteShape::Affine { off: 0 })]
        );
    }

    #[test]
    fn nested_loops_qualify_and_calls_reject() {
        // The spmv row accumulate: an inner `do` (or `while`) reading
        // and writing `y(i)` stays inside the chunk's window.
        for body in [
            "y(i) = 0.0\n do j = 1, len(i)\n y(i) = y(i) + x(ptr(i) + j - 1)\n enddo",
            "j = 0\n while (j < 2)\n y(i) = y(i) + 1.0\n j = j + 1\n endwhile",
        ] {
            let (p, facts) = derive_body(body);
            let facts = facts.unwrap_or_else(|| panic!("{body}"));
            assert_eq!(
                shapes(&facts),
                vec![(var(&p, "y"), WriteShape::Affine { off: 0 })]
            );
            assert!(facts[0].read);
        }
        // ... with the inner induction variable privatized: shared, it
        // is a scalar every chunk assigns.
        let p = parse_program(
            "program t
             integer i, j, n
             real x(100)
             do i = 1, n
               do j = 1, 2
                 x(i) = x(i)
               enddo
             enddo
             end",
        )
        .unwrap();
        assert_eq!(derive_in_place_facts(&p, first_do(&p), &[], &[]), None);
        // A call brings in effects the derivation cannot see.
        let p = parse_program(
            "program t
             integer i, n
             real x(100)
             do i = 1, n
               x(i) = 1.0
               call side
             enddo
             end
             subroutine side
             real x(100)
             x(1) = 2.0
             end",
        )
        .unwrap();
        assert_eq!(derive_in_place_facts(&p, first_do(&p), &[], &[]), None);
    }

    #[test]
    fn facts_name_the_shape_that_leans_most_on_the_run() {
        let name = |body: &str, guard: Option<&GuardPlan>| {
            let (p, _) = derive_body(body);
            let ctx = AnalysisCtx::new(&p);
            in_place_facts(&ctx, first_do(&p), &[var(&p, "j")], &[], guard)
                .name()
                .to_string()
        };
        assert_eq!(name("y(i) = y(i) + 1.0", None), "disjoint-affine");
        assert_eq!(
            name("y(i) = 1.0\n x(ptr(i) + 1) = 2.0", None),
            "offset-length-segment"
        );
        // A scatter is in-place material only when the loop's own
        // guard inspects that index array.
        let (p, _) = derive_body("x(p(i)) = 1.0");
        let guard = |array| GuardPlan {
            groups: vec![vec![ResidualCheck::Injective { array }]],
        };
        assert_eq!(name("x(p(i)) = 1.0", None), "none");
        assert_eq!(name("x(p(i)) = 1.0", Some(&guard(var(&p, "q")))), "none");
        assert_eq!(
            name("y(i) = 1.0\n x(p(i)) = 1.0", Some(&guard(var(&p, "p")))),
            "certified-scatter"
        );
    }

    #[test]
    fn concat_shape_recognizes_gather() {
        let p = parse_program(
            "program t
             integer i, n, q, ind(100)
             real z(100)
             do i = 1, n
               if (z(i) > 0.0) then
                 q = q + 1
                 ind(q) = i
               endif
             enddo
             end",
        )
        .unwrap();
        let (ptr, targets) = derive_concat_shape(&p, first_do(&p), &[], &[]).expect("shape");
        assert_eq!(ptr, var(&p, "q"));
        assert_eq!(targets, vec![var(&p, "ind")]);
    }

    #[test]
    fn concat_shape_rejects_pointer_leak() {
        // `s = s + q` observes the pointer's numeric value, which is
        // chunk-local under concatenation.
        let p = parse_program(
            "program t
             integer i, n, q, s, ind(100)
             do i = 1, n
               q = q + 1
               ind(q) = i
               s = s + q
             enddo
             end",
        )
        .unwrap();
        assert_eq!(derive_concat_shape(&p, first_do(&p), &[], &[]), None);
    }

    #[test]
    fn concat_shape_rejects_target_read() {
        let p = parse_program(
            "program t
             integer i, n, q, s, ind(100)
             do i = 1, n
               q = q + 1
               ind(q) = i
               s = s + ind(i)
             enddo
             end",
        )
        .unwrap();
        let s = var(&p, "s");
        assert_eq!(derive_concat_shape(&p, first_do(&p), &[], &[s]), None);
    }

    #[test]
    fn concat_shape_rejects_non_unit_increment() {
        let p = parse_program(
            "program t
             integer i, n, q, ind(100)
             do i = 1, n
               q = q + 2
               ind(q) = i
             enddo
             end",
        )
        .unwrap();
        assert_eq!(derive_concat_shape(&p, first_do(&p), &[], &[]), None);
    }

    #[test]
    fn concat_facts_require_hole_freedom() {
        use irr_core::AnalysisCtx;
        // Increment not always followed by a write: holes possible.
        let holey = parse_program(
            "program t
             integer i, n, q, ind(100)
             real z(100)
             do i = 1, n
               q = q + 1
               if (z(i) > 0.0) then
                 ind(q) = i
               endif
             enddo
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&holey);
        assert_eq!(
            derive_concat_facts(&ctx, first_do(&holey), &[], &[], &[]),
            StrategyFacts::None
        );
        let dense = parse_program(
            "program t
             integer i, n, q, ind(100)
             real z(100)
             do i = 1, n
               if (z(i) > 0.0) then
                 q = q + 1
                 ind(q) = i
               endif
             enddo
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&dense);
        let facts = derive_concat_facts(&ctx, first_do(&dense), &[], &[], &[]);
        assert_eq!(
            facts,
            StrategyFacts::ConsecutiveAppend {
                ptr: var(&dense, "q"),
                arrays: vec![var(&dense, "ind")],
            }
        );
    }
}
