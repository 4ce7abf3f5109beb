//! Traversal helpers over programs and statements: read-only walks, and
//! the mutable twin the scalar passes rewrite expressions through.

use crate::ast::{Expr, LValue, Program, StmtId, StmtKind};
use crate::symbols::VarId;

/// Calls `f` on every expression appearing in statement `id` (not
/// recursing into nested statements): assignment right-hand sides and
/// subscripts, loop bounds, conditions, print arguments.
pub fn for_each_expr_in_stmt<'p>(p: &'p Program, id: StmtId, mut f: impl FnMut(&'p Expr)) {
    match &p.stmt(id).kind {
        StmtKind::Assign { lhs, rhs } => {
            for s in lhs.subscripts() {
                f(s);
            }
            f(rhs);
        }
        StmtKind::Do { lo, hi, step, .. } => {
            f(lo);
            f(hi);
            if let Some(s) = step {
                f(s);
            }
        }
        StmtKind::While { cond, .. } => f(cond),
        StmtKind::If { cond, .. } => f(cond),
        StmtKind::Print { args } => {
            for a in args {
                f(a);
            }
        }
        StmtKind::Call { .. } | StmtKind::Return => {}
    }
}

/// [`for_each_expr_in_stmt`] for in-place rewriting: the same
/// expressions in the same order, mutably. Nothing else of the statement
/// (targets, bodies) is reachable through it.
pub fn for_each_expr_in_stmt_mut(p: &mut Program, id: StmtId, mut f: impl FnMut(&mut Expr)) {
    match &mut p.stmt_mut(id).kind {
        StmtKind::Assign { lhs, rhs } => {
            if let LValue::Element(_, subs) = lhs {
                for s in subs {
                    f(s);
                }
            }
            f(rhs);
        }
        StmtKind::Do { lo, hi, step, .. } => {
            f(lo);
            f(hi);
            if let Some(s) = step {
                f(s);
            }
        }
        StmtKind::While { cond, .. } => f(cond),
        StmtKind::If { cond, .. } => f(cond),
        StmtKind::Print { args } => {
            for a in args {
                f(a);
            }
        }
        StmtKind::Call { .. } | StmtKind::Return => {}
    }
}

/// Replaces each scalar use `Var(v)` in `e` for which `f` returns an
/// expression by that expression, which is not itself revisited; array
/// bases are not uses. Returns how many uses were replaced.
pub fn substitute_vars(e: &mut Expr, f: &mut impl FnMut(VarId) -> Option<Expr>) -> usize {
    match e {
        Expr::Var(v) => match f(*v) {
            Some(r) => {
                *e = r;
                1
            }
            None => 0,
        },
        Expr::IntLit(_) | Expr::RealLit(_) => 0,
        Expr::Element(_, args) | Expr::Call(_, args) => {
            args.iter_mut().map(|a| substitute_vars(a, f)).sum()
        }
        Expr::Bin(_, a, b) => substitute_vars(a, f) + substitute_vars(b, f),
        Expr::Un(_, a) => substitute_vars(a, f),
    }
}

/// Calls `f` on every sub-expression of `e`, in pre-order (including `e`
/// itself).
pub fn for_each_subexpr<'e>(e: &'e Expr, f: &mut impl FnMut(&'e Expr)) {
    f(e);
    match e {
        Expr::IntLit(_) | Expr::RealLit(_) | Expr::Var(_) => {}
        Expr::Element(_, subs) => {
            for s in subs {
                for_each_subexpr(s, f);
            }
        }
        Expr::Bin(_, a, b) => {
            for_each_subexpr(a, f);
            for_each_subexpr(b, f);
        }
        Expr::Un(_, a) => for_each_subexpr(a, f),
        Expr::Call(_, args) => {
            for a in args {
                for_each_subexpr(a, f);
            }
        }
    }
}

/// One syntactic access to an array: the base variable, the subscripts
/// (borrowed from the program), whether it is a write, and the statement
/// it appears in.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ArrayAccess<'p> {
    /// Array variable.
    pub array: VarId,
    /// Subscript expressions.
    pub subscripts: &'p [Expr],
    /// Whether this access stores to the array.
    pub is_write: bool,
    /// The statement containing the access.
    pub stmt: StmtId,
}

/// Appends the array accesses of statement `id`'s own expressions (not
/// of nested statements): the write of an element assignment first, then
/// every read in evaluation pre-order.
pub fn stmt_array_accesses<'p>(p: &'p Program, id: StmtId, out: &mut Vec<ArrayAccess<'p>>) {
    if let StmtKind::Assign {
        lhs: LValue::Element(v, subs),
        ..
    } = &p.stmt(id).kind
    {
        out.push(ArrayAccess {
            array: *v,
            subscripts: subs,
            is_write: true,
            stmt: id,
        });
    }
    for_each_expr_in_stmt(p, id, |e| {
        for_each_subexpr(e, &mut |sub| {
            if let Expr::Element(v, subs) = sub {
                out.push(ArrayAccess {
                    array: *v,
                    subscripts: subs,
                    is_write: false,
                    stmt: id,
                });
            }
        });
    });
}

/// Collects every array access in the statements of `body`
/// (transitively), in program pre-order.
pub fn collect_array_accesses<'p>(p: &'p Program, body: &[StmtId]) -> Vec<ArrayAccess<'p>> {
    let mut out = Vec::new();
    for id in p.stmts_in(body) {
        stmt_array_accesses(p, id, &mut out);
    }
    out
}

/// Returns the set of scalar variables assigned anywhere in `body`
/// (transitively), including loop induction variables.
pub fn scalars_assigned_in(p: &Program, body: &[StmtId]) -> Vec<VarId> {
    let mut out = Vec::new();
    for id in p.stmts_in(body) {
        match &p.stmt(id).kind {
            StmtKind::Assign {
                lhs: LValue::Scalar(v),
                ..
            } if !out.contains(v) => {
                out.push(*v);
            }
            StmtKind::Do { var, .. } if !out.contains(var) => {
                out.push(*var);
            }
            _ => {}
        }
    }
    out
}

/// Returns the arrays written anywhere in `body` (transitively).
pub fn arrays_written_in(p: &Program, body: &[StmtId]) -> Vec<VarId> {
    let mut out = Vec::new();
    for acc in collect_array_accesses(p, body) {
        if acc.is_write && !out.contains(&acc.array) {
            out.push(acc.array);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn collects_reads_and_writes() {
        let p = parse_program(
            "program t
             integer i, n, pos(10)
             real x(10), y(10)
             do i = 1, n
               x(pos(i)) = y(i) + x(i)
             enddo
             end",
        )
        .unwrap();
        let body = &p.procedure(p.main()).body;
        let accesses = collect_array_accesses(&p, body);
        let x = p.symbols.lookup("x").unwrap();
        let y = p.symbols.lookup("y").unwrap();
        let pos = p.symbols.lookup("pos").unwrap();
        let writes: Vec<_> = accesses.iter().filter(|a| a.is_write).collect();
        assert_eq!(writes.len(), 1);
        assert_eq!(writes[0].array, x);
        let reads: Vec<_> = accesses.iter().filter(|a| !a.is_write).collect();
        // pos(i) (in the write subscript), y(i), x(i).
        assert_eq!(reads.len(), 3);
        assert!(reads.iter().any(|a| a.array == pos));
        assert!(reads.iter().any(|a| a.array == y));
        assert!(reads.iter().any(|a| a.array == x));
    }

    #[test]
    fn scalar_assignment_collection_includes_loop_vars() {
        let p = parse_program(
            "program t
             integer i, q
             do i = 1, 5
               q = q + 1
             enddo
             end",
        )
        .unwrap();
        let body = &p.procedure(p.main()).body;
        let assigned = scalars_assigned_in(&p, body);
        assert_eq!(assigned.len(), 2);
    }

    #[test]
    fn arrays_written_in_skips_read_only() {
        let p = parse_program(
            "program t
             integer i
             real a(5), b(5)
             do i = 1, 5
               a(i) = b(i)
             enddo
             end",
        )
        .unwrap();
        let body = &p.procedure(p.main()).body;
        let written = arrays_written_in(&p, body);
        assert_eq!(written.len(), 1);
        assert_eq!(p.symbols.name(written[0]), "a");
    }
}
