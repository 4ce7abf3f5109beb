//! Conversion from AST expressions to symbolic expressions.

use crate::expr::SymExpr;
use irr_frontend::{BinOp, Expr, Intrinsic, UnOp};

/// Converts an integer-valued AST expression into a [`SymExpr`].
///
/// Returns `None` for expressions the symbolic layer cannot represent:
/// real literals, comparisons/logical operators, real-valued
/// intrinsics, and arithmetic whose coefficients leave `i64` (the
/// program's own arithmetic wraps there, the symbolic one cannot).
/// Callers treat `None` as "unanalyzable" and approximate
/// conservatively.
pub fn expr_to_sym(e: &Expr) -> Option<SymExpr> {
    match e {
        Expr::IntLit(v) => Some(SymExpr::int(*v)),
        Expr::RealLit(_) => None,
        Expr::Var(v) => Some(SymExpr::var(*v)),
        Expr::Element(arr, subs) => {
            let subs: Option<Vec<SymExpr>> = subs.iter().map(expr_to_sym).collect();
            Some(SymExpr::elem(*arr, subs?))
        }
        Expr::Bin(op, a, b) => {
            let a = expr_to_sym(a)?;
            let b = expr_to_sym(b)?;
            match op {
                BinOp::Add => a.checked_add(&b),
                BinOp::Sub => a.checked_sub(&b),
                BinOp::Mul => a.checked_mul(&b),
                BinOp::Div => Some(a.div(&b)),
                BinOp::Mod => Some(a.mod_op(&b)),
                _ => None,
            }
        }
        Expr::Un(UnOp::Neg, a) => expr_to_sym(a)?.checked_neg(),
        Expr::Un(UnOp::Not, _) => None,
        Expr::Call(intr, args) => match intr {
            Intrinsic::Min if args.len() == 2 => {
                Some(expr_to_sym(&args[0])?.min_op(&expr_to_sym(&args[1])?))
            }
            Intrinsic::Max if args.len() == 2 => {
                Some(expr_to_sym(&args[0])?.max_op(&expr_to_sym(&args[1])?))
            }
            Intrinsic::Mod if args.len() == 2 => {
                Some(expr_to_sym(&args[0])?.mod_op(&expr_to_sym(&args[1])?))
            }
            _ => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_frontend::parse_program;
    use irr_frontend::StmtKind;

    fn rhs_of_first_assign(src: &str) -> (irr_frontend::Program, Expr) {
        let p = parse_program(src).unwrap();
        let body = p.procedure(p.main()).body.clone();
        let all = p.stmts_in(&body);
        for id in all {
            if let StmtKind::Assign { rhs, .. } = &p.stmt(id).kind {
                let rhs = rhs.clone();
                return (p, rhs);
            }
        }
        panic!("no assignment found");
    }

    #[test]
    fn affine_expression_converts() {
        let (p, rhs) = rhs_of_first_assign("program t\ninteger k, i, j\nk = 2*i + j - 3\nend\n");
        let s = expr_to_sym(&rhs).unwrap();
        let i = p.symbols.lookup("i").unwrap();
        let j = p.symbols.lookup("j").unwrap();
        let expect = SymExpr::var(i)
            .scale(2)
            .add(&SymExpr::var(j))
            .sub(&SymExpr::int(3));
        assert_eq!(s, expect);
    }

    #[test]
    fn triangular_index_converts_with_division() {
        let (_, rhs) = rhs_of_first_assign("program t\ninteger k, i\nk = i*(i-1)/2\nend\n");
        let s = expr_to_sym(&rhs).unwrap();
        // Not exactly divisible coefficient-wise, so an opaque div atom.
        assert!(s.as_single_atom().is_some());
    }

    #[test]
    fn indirect_subscript_converts_to_elem_atom() {
        let (p, rhs) =
            rhs_of_first_assign("program t\ninteger k, pos(10), i\nk = pos(i) + 1\nend\n");
        let s = expr_to_sym(&rhs).unwrap();
        let pos = p.symbols.lookup("pos").unwrap();
        assert!(s.mentions_array(pos));
    }

    #[test]
    fn real_literals_do_not_convert() {
        let (_, rhs) = rhs_of_first_assign("program t\nx = 1.5\nend\n");
        assert!(expr_to_sym(&rhs).is_none());
    }

    #[test]
    fn comparisons_do_not_convert() {
        let p =
            parse_program("program t\ninteger a, b\nif (a < b) then\na = 1\nendif\nend\n").unwrap();
        let body = &p.procedure(p.main()).body;
        if let StmtKind::If { cond, .. } = &p.stmt(body[0]).kind {
            assert!(expr_to_sym(cond).is_none());
        } else {
            panic!("expected if");
        }
    }

    #[test]
    fn overflowing_coefficients_do_not_convert() {
        for src in [
            "program t\ninteger k, i\nk = i * 4611686018427387904 * 4\nend\n",
            "program t\ninteger k, i\nk = i * 9223372036854775807 + i * 9223372036854775807\nend\n",
        ] {
            let (_, rhs) = rhs_of_first_assign(src);
            assert!(expr_to_sym(&rhs).is_none(), "{src}");
        }
        // (2^62 + 2^62 - 1) * i is the largest coefficient there is.
        let (_, rhs) = rhs_of_first_assign(
            "program t\ninteger k, i\nk = i * 4611686018427387904 + i * 4611686018427387903\nend\n",
        );
        assert!(expr_to_sym(&rhs).is_some());
    }

    #[test]
    fn min_max_mod_intrinsics_convert() {
        let (_, rhs) =
            rhs_of_first_assign("program t\ninteger k, a, b\nk = min(a, b) + mod(a, 4)\nend\n");
        assert!(expr_to_sym(&rhs).is_some());
    }
}
