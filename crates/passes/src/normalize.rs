//! Loop normalization.
//!
//! Rewrites constant-step `do` loops into unit-step form so every later
//! phase only sees `do i' = 1, n` loops:
//!
//! ```text
//! do i = lo, hi, c        do i2 = 1, (hi - lo + c) / c
//!   ... i ...        =>     i = lo + (i2 - 1) * c      (synthesized)
//! enddo                     ... i ...
//!                         enddo
//!                         i = lo + c * max((hi - lo + c) / c, 0)
//! ```
//!
//! The original induction variable becomes an ordinary derived variable,
//! which the scalar passes then clean up; the statement after the loop
//! leaves it at the first value past the range, as the original loop
//! does. Both synthesized statements re-read `lo` (and `hi`), so only a
//! loop whose bounds hold their values through it is rewritten; any
//! other strided loop stays as written, and the analyses treat it
//! conservatively.

use crate::{bounds_invariant, push_stmt, rewrite_innermost_first};
use irr_frontend::{BinOp, Expr, Intrinsic, LValue, Program, ScalarType, StmtId, StmtKind};

/// Normalizes every positive constant-step (`step != 1`) `do` loop whose
/// bounds are invariant, innermost first, and drops a literal unit step.
/// Returns the number of loops rewritten, a dropped unit step included:
/// 0 exactly when the program is left as it was.
pub fn normalize_loops(program: &mut Program) -> usize {
    let mut count = 0;
    rewrite_innermost_first(program, |p, s| normalize(p, s, &mut count));
    count
}

/// Rewrites loop `s` if it qualifies, counting it in `count`; returns the
/// statement that must follow it.
fn normalize(program: &mut Program, s: StmtId, count: &mut usize) -> Option<StmtId> {
    let StmtKind::Do {
        var,
        lo,
        hi,
        step,
        body,
        ..
    } = &program.stmt(s).kind
    else {
        return None;
    };
    let c = step.as_ref()?.as_int_lit()?;
    if c == 1 {
        if let StmtKind::Do { step, .. } = &mut program.stmt_mut(s).kind {
            *step = None;
        }
        *count += 1;
        return None;
    }
    // Negative and zero steps are left alone.
    if c <= 0 || !bounds_invariant(program, *var, lo, hi, body) {
        return None;
    }
    let (var, lo, hi) = (*var, lo.clone(), hi.clone());
    let fresh_name = fresh_var_name(program, "i_nrm");
    let fresh = program
        .symbols
        .declare(&fresh_name, ScalarType::Int, Vec::new())
        .expect("fresh name cannot conflict");
    let assign = |rhs| StmtKind::Assign {
        lhs: LValue::Scalar(var),
        rhs,
    };
    let derive = push_stmt(
        program,
        assign(Expr::add(
            lo.clone(),
            Expr::mul(Expr::sub(Expr::Var(fresh), Expr::int(1)), Expr::int(c)),
        )),
    );
    // Trip count: (hi - lo + c) / c with floor division.
    let trip = Expr::bin(
        BinOp::Div,
        Expr::add(Expr::sub(hi, lo.clone()), Expr::int(c)),
        Expr::int(c),
    );
    let exit = Expr::Call(Intrinsic::Max, vec![trip.clone(), Expr::int(0)]);
    let exit = push_stmt(
        program,
        assign(Expr::add(lo, Expr::mul(Expr::int(c), exit))),
    );
    if let StmtKind::Do {
        var,
        lo,
        hi,
        step,
        body,
        ..
    } = &mut program.stmt_mut(s).kind
    {
        (*var, *lo, *hi, *step) = (fresh, Expr::int(1), trip, None);
        body.insert(0, derive);
    }
    *count += 1;
    Some(exit)
}

fn fresh_var_name(program: &Program, base: &str) -> String {
    let mut k = 0;
    loop {
        let name = format!("{base}{k}");
        if program.symbols.lookup(&name).is_none() {
            return name;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_frontend::parse_program;

    #[test]
    fn constant_step_is_normalized() {
        let mut p = parse_program(
            "program t
             integer i
             real x(100)
             do i = 1, 99, 2
               x(i) = 1
             enddo
             end",
        )
        .unwrap();
        let n = normalize_loops(&mut p);
        assert_eq!(n, 1);
        let printed = irr_frontend::print_program(&p);
        assert!(printed.contains("do i_nrm0 = 1,"), "printed:\n{printed}");
        assert!(
            printed.contains("i = (1 + ((i_nrm0 - 1) * 2))"),
            "printed:\n{printed}"
        );
    }

    #[test]
    fn unit_step_is_cleaned() {
        let mut p = parse_program(
            "program t
             integer i
             real x(10)
             do i = 1, 10, 1
               x(i) = 1
             enddo
             end",
        )
        .unwrap();
        // Dropping the step is a rewrite, and counted as one.
        assert_eq!(normalize_loops(&mut p), 1);
        let body = p.procedure(p.main()).body.clone();
        match &p.stmt(body[0]).kind {
            StmtKind::Do { step, .. } => assert!(step.is_none()),
            other => panic!("expected do, got {other:?}"),
        }
    }

    #[test]
    fn negative_step_left_alone() {
        let mut p = parse_program(
            "program t
             integer i
             real x(10)
             do i = 10, 1, 0 - 1
               x(i) = 1
             enddo
             end",
        )
        .unwrap();
        // Step is an expression, not a literal: left alone.
        assert_eq!(normalize_loops(&mut p), 0);
    }
}
