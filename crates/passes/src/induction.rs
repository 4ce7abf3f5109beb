//! Induction variable substitution.
//!
//! A scalar `q` that is incremented by a constant exactly once per
//! iteration, unconditionally, at the top level of a `do` loop body is a
//! derived induction variable. The pass removes the increment, rewrites
//! uses of `q` inside the loop as `q + c*(i - lo [+1])` (where `q` now
//! always holds its loop-entry value), and appends
//! `q = q + c * max(hi - lo + 1, 0)` after the loop to restore the final
//! value. Irregular-looking subscripts like `x(q)` thus become affine in
//! the loop index. Both rewrites re-read `lo` and `hi`, so the loop's
//! bounds must hold their values through it: nothing in the body may
//! call, assign a scalar or write an array either mentions.
//!
//! Conditional increments (the gather loops of §4) are deliberately
//! *not* substituted — those are exactly the cases the paper's irregular
//! analyses exist for.

use crate::{bounds_invariant, edit_bodies, push_stmt, rewrite_innermost_first};
use irr_frontend::visit::{for_each_expr_in_stmt_mut, substitute_vars};
use irr_frontend::{BinOp, Expr, Intrinsic, LValue, Program, StmtId, StmtKind, VarId};

/// Applies induction variable substitution to every `do` loop in the
/// program, innermost first, splicing each loop's adjustments in right
/// after it. Returns the number of variables substituted.
pub fn substitute_induction_variables(program: &mut Program) -> usize {
    let mut count = 0;
    rewrite_innermost_first(program, |p, s| substitute_in_loop(p, s, &mut count));
    count
}

/// Recognizes `q = q + c` / `q = q - c` and returns `(q, c)`.
fn increment_of(program: &Program, s: StmtId) -> Option<(VarId, i64)> {
    if let StmtKind::Assign {
        lhs: LValue::Scalar(q),
        rhs,
    } = &program.stmt(s).kind
    {
        match rhs {
            Expr::Bin(BinOp::Add, a, b) => {
                if let (Expr::Var(v), Expr::IntLit(c)) = (a.as_ref(), b.as_ref()) {
                    if v == q {
                        return Some((*q, *c));
                    }
                }
                if let (Expr::IntLit(c), Expr::Var(v)) = (a.as_ref(), b.as_ref()) {
                    if v == q {
                        return Some((*q, *c));
                    }
                }
            }
            Expr::Bin(BinOp::Sub, a, b) => {
                if let (Expr::Var(v), Expr::IntLit(c)) = (a.as_ref(), b.as_ref()) {
                    if v == q {
                        return Some((*q, -*c));
                    }
                }
            }
            _ => {}
        }
    }
    None
}

/// Attempts the substitution for one loop; returns the post-loop
/// adjustment statements to splice after it.
fn substitute_in_loop(program: &mut Program, loop_stmt: StmtId, count: &mut usize) -> Vec<StmtId> {
    let StmtKind::Do {
        var,
        lo,
        hi,
        step,
        body,
        ..
    } = &program.stmt(loop_stmt).kind
    else {
        return Vec::new();
    };
    if step.as_ref().and_then(|e| e.as_int_lit()).unwrap_or(1) != 1
        || !bounds_invariant(program, *var, lo, hi, body)
    {
        return Vec::new();
    }
    let all = program.stmts_in(body);
    let candidates: Vec<(usize, StmtId, VarId, i64)> = body
        .iter()
        .enumerate()
        .filter_map(|(pos, s)| increment_of(program, *s).map(|(q, c)| (pos, *s, q, c)))
        .filter(|(_, inc_stmt, q, _)| {
            q != var
                && !all.iter().any(|s| {
                    *s != *inc_stmt
                        && match &program.stmt(*s).kind {
                            StmtKind::Assign {
                                lhs: LValue::Scalar(v),
                                ..
                            } => v == q,
                            StmtKind::Do { var: v, .. } => v == q,
                            _ => false,
                        }
                })
        })
        .collect();
    if candidates.is_empty() {
        return Vec::new();
    }
    let (var, lo, hi) = (*var, lo.clone(), hi.clone());
    let mut adjustments = Vec::new();
    edit_bodies(program, loop_stmt, |program, body| {
        for &(pos, inc_stmt, q, c) in &candidates {
            // Rewrite every use of q in the loop (except the increment
            // itself, which is removed): before the increment the value
            // is q + c*(i - lo), after it q + c*(i - lo + 1).
            let make = |extra: i64| {
                let delta = Expr::add(Expr::sub(Expr::Var(var), lo.clone()), Expr::int(extra));
                Expr::add(Expr::Var(q), Expr::mul(Expr::int(c), delta))
            };
            let (before, after) = (make(0), make(1));
            for (k, s) in body.iter().enumerate() {
                if *s == inc_stmt {
                    continue;
                }
                let replacement = if k < pos { &before } else { &after };
                for t in program.stmts_in(std::slice::from_ref(s)) {
                    for_each_expr_in_stmt_mut(program, t, |e| {
                        substitute_vars(e, &mut |v| (v == q).then(|| replacement.clone()));
                    });
                }
            }
            // q = q + c * max(hi - lo + 1, 0) after the loop.
            let trip = Expr::Call(
                Intrinsic::Max,
                vec![
                    Expr::add(Expr::sub(hi.clone(), lo.clone()), Expr::int(1)),
                    Expr::int(0),
                ],
            );
            let rhs = Expr::add(Expr::Var(q), Expr::mul(Expr::int(c), trip));
            let lhs = LValue::Scalar(q);
            adjustments.push(push_stmt(program, StmtKind::Assign { lhs, rhs }));
            *count += 1;
        }
        // The increments go.
        body.retain(|s| !candidates.iter().any(|c| c.1 == *s));
    });
    adjustments
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_frontend::parse_program;

    #[test]
    fn unconditional_increment_is_substituted() {
        let mut p = parse_program(
            "program t
             integer i, q, n
             real x(100)
             q = 0
             do i = 1, n
               q = q + 1
               x(q) = i
             enddo
             end",
        )
        .unwrap();
        let n = substitute_induction_variables(&mut p);
        assert_eq!(n, 1);
        let printed = irr_frontend::print_program(&p);
        // x(q) becomes x(q + 1*((i-1)+1)); the increment is gone; the
        // final value is restored after the loop.
        assert!(
            printed.contains("x((q + (1 * ((i - 1) + 1))))"),
            "printed:\n{printed}"
        );
        assert!(
            printed.contains("q = (q + (1 * max(((n - 1) + 1), 0)))"),
            "printed:\n{printed}"
        );
        assert!(!printed.contains("q = (q + 1)\n"), "printed:\n{printed}");
    }

    #[test]
    fn conditional_increment_is_left_alone() {
        let mut p = parse_program(
            "program t
             integer i, q, n, ind(100)
             real x(100)
             q = 0
             do i = 1, n
               if (x(i) > 0) then
                 q = q + 1
                 ind(q) = i
               endif
             enddo
             end",
        )
        .unwrap();
        let n = substitute_induction_variables(&mut p);
        assert_eq!(n, 0, "gather loops must not be destroyed");
        let printed = irr_frontend::print_program(&p);
        assert!(printed.contains("ind(q)"), "printed:\n{printed}");
    }

    #[test]
    fn uses_before_increment_get_smaller_offset() {
        let mut p = parse_program(
            "program t
             integer i, q, n
             real x(100), y(100)
             do i = 1, n
               y(i) = x(q)
               q = q + 1
             enddo
             end",
        )
        .unwrap();
        substitute_induction_variables(&mut p);
        let printed = irr_frontend::print_program(&p);
        assert!(
            printed.contains("x((q + (1 * ((i - 1) + 0))))"),
            "printed:\n{printed}"
        );
    }

    #[test]
    fn two_defs_block_substitution() {
        let mut p = parse_program(
            "program t
             integer i, q, n
             real x(100)
             do i = 1, n
               q = q + 1
               x(q) = i
               q = q - 1
             enddo
             end",
        )
        .unwrap();
        assert_eq!(substitute_induction_variables(&mut p), 0);
    }

    #[test]
    fn substituted_loop_matches_interpretation() {
        // Semantic check by hand: q0=0, loop 1..3 writes x(1), x(2),
        // x(3); after the loop q == 3. Verify the rewritten uses with a
        // direct symbolic check on the printed program.
        let mut p = parse_program(
            "program t
             integer i, q
             real x(10)
             q = 0
             do i = 1, 3
               q = q + 1
               x(q) = i
             enddo
             print q
             end",
        )
        .unwrap();
        substitute_induction_variables(&mut p);
        let printed = irr_frontend::print_program(&p);
        // The adjustment restores q = 0 + 1*max(3,0) = 3.
        assert!(printed.contains("max(((3 - 1) + 1), 0)"), "{printed}");
    }

    #[test]
    fn unstable_bounds_block_substitution() {
        let mut p = parse_program(
            "program t
             integer i, q, n
             real x(100)
             do i = 1, n
               q = q + 1
               n = n - 1
               x(q) = i
             enddo
             end",
        )
        .unwrap();
        assert_eq!(substitute_induction_variables(&mut p), 0);
    }
}
