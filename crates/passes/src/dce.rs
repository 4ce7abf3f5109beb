//! Dead scalar-assignment elimination.
//!
//! Removes assignments to scalars that are never read anywhere in the
//! program (after the other scalar passes have rewritten uses away).
//! Array writes and anything with observable effects are kept.

use crate::{edit_bodies, edit_procedures};
use irr_frontend::visit::{for_each_expr_in_stmt, for_each_subexpr};
use irr_frontend::{Expr, LValue, Program, StmtId, StmtKind, VarId};

/// Removes dead scalar assignments; returns how many were removed.
///
/// One walk counts every scalar read — in any expression, a loop index
/// as always read (its value is observable after the loop) — and lists
/// the scalar assignments. An assignment to an unread scalar is dead;
/// removing it un-reads what its right-hand side read, which may kill
/// more, so the list is swept until nothing changes. Only then are the
/// dead statements cut out of their bodies.
pub fn eliminate_dead_code(program: &mut Program) -> usize {
    let mut reads = vec![0u32; program.symbols.len()];
    let mut assigns: Vec<(StmtId, VarId)> = Vec::new();
    for proc in &program.procedures {
        for s in program.stmts_in(&proc.body) {
            for_each_read(program, s, |v| reads[v.index()] += 1);
            match &program.stmt(s).kind {
                StmtKind::Assign {
                    lhs: LValue::Scalar(v),
                    ..
                } => assigns.push((s, *v)),
                StmtKind::Do { var, .. } => reads[var.index()] += 1,
                _ => {}
            }
        }
    }
    let mut dead = vec![false; program.stmts.len()];
    let mut removed = 0;
    loop {
        let before = removed;
        for &(s, v) in &assigns {
            if reads[v.index()] == 0 && !dead[s.index()] {
                dead[s.index()] = true;
                removed += 1;
                for_each_read(program, s, |v| reads[v.index()] -= 1);
            }
        }
        if removed == before {
            break;
        }
    }
    if removed > 0 {
        edit_procedures(program, |p, _, body| prune_body(p, body, &dead));
    }
    removed
}

/// Calls `f` on every variable statement `s` reads (array bases
/// included).
fn for_each_read(program: &Program, s: StmtId, mut f: impl FnMut(VarId)) {
    for_each_expr_in_stmt(program, s, |e| {
        for_each_subexpr(e, &mut |sub| {
            if let Expr::Var(v) | Expr::Element(v, _) = sub {
                f(*v);
            }
        })
    });
}

fn prune_body(program: &mut Program, body: &mut Vec<StmtId>, dead: &[bool]) {
    body.retain(|s| !dead[s.index()]);
    for &s in body.iter() {
        edit_bodies(program, s, |p, inner| prune_body(p, inner, dead));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_frontend::parse_program;

    #[test]
    fn removes_unread_scalar() {
        let mut p = parse_program(
            "program t
             integer a, b
             real x(10)
             a = 5
             b = 2
             x(b) = 1
             end",
        )
        .unwrap();
        let n = eliminate_dead_code(&mut p);
        assert_eq!(n, 1);
        let printed = irr_frontend::print_program(&p);
        assert!(!printed.contains("a = 5"), "printed:\n{printed}");
        assert!(printed.contains("b = 2"), "printed:\n{printed}");
    }

    #[test]
    fn cascading_removal() {
        let mut p = parse_program(
            "program t
             integer a, b
             a = 5
             b = a + 1
             end",
        )
        .unwrap();
        // b unread -> removed; then a unread -> removed.
        let n = eliminate_dead_code(&mut p);
        assert_eq!(n, 2);
    }

    #[test]
    fn printed_and_array_values_are_kept() {
        let mut p = parse_program(
            "program t
             integer a
             real x(10)
             a = 5
             x(1) = 2
             print a
             end",
        )
        .unwrap();
        assert_eq!(eliminate_dead_code(&mut p), 0);
    }
}
