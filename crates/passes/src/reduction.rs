//! Reduction recognition.
//!
//! Recognizes scalar reductions (`s = s + e`, `s = s * e`,
//! `s = min(s, e)`, `s = max(s, e)`) inside a loop: the accumulator may
//! appear *only* in such updates, so the loop can be parallelized with a
//! privatized partial accumulator per processor.

use irr_frontend::{BinOp, Expr, Intrinsic, LValue, Program, StmtId, StmtKind, VarId};

/// The reduction operator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReductionOp {
    Sum,
    Product,
    Min,
    Max,
}

/// A recognized scalar reduction in a loop.
#[derive(Clone, Debug)]
pub struct Reduction {
    /// The accumulator variable.
    pub var: VarId,
    /// The operator.
    pub op: ReductionOp,
    /// The update statements.
    pub updates: Vec<StmtId>,
}

/// Recognizes the reductions of one loop body. An accumulator qualifies
/// when every appearance of it inside the loop is within one of its own
/// update statements, all updates use the same operator, and the update
/// expressions do not read the accumulator elsewhere.
pub fn recognize_reductions(program: &Program, loop_stmt: StmtId) -> Vec<Reduction> {
    let all = match &program.stmt(loop_stmt).kind {
        StmtKind::Do { body, .. } | StmtKind::While { body, .. } => program.stmts_in(body),
        _ => return Vec::new(),
    };
    // Candidate updates per variable.
    let mut candidates: Vec<Reduction> = Vec::new();
    for &s in &all {
        if let Some((v, op)) = reduction_update(program, s) {
            match candidates.iter_mut().find(|r| r.var == v) {
                Some(r) => {
                    if r.op == op {
                        r.updates.push(s);
                    } else {
                        r.updates.clear(); // mixed operators: disqualify
                    }
                }
                None => candidates.push(Reduction {
                    var: v,
                    op,
                    updates: vec![s],
                }),
            }
        }
    }
    candidates.retain(|r| !r.updates.is_empty());
    // Reject accumulators read or written outside their updates.
    candidates.retain(|r| {
        all.iter().all(|&s| {
            if r.updates.contains(&s) {
                return true;
            }
            let mut uses = false;
            irr_frontend::visit::for_each_expr_in_stmt(program, s, |e| {
                if e.mentions(r.var) {
                    uses = true;
                }
            });
            let writes = match &program.stmt(s).kind {
                StmtKind::Assign { lhs, .. } => lhs.var() == r.var,
                StmtKind::Do { var, .. } => *var == r.var,
                StmtKind::Call { .. } => true, // conservative
                _ => false,
            };
            !uses && !writes
        })
    });
    candidates
}

/// Matches `v = v op e` / `v = e op v` (op commutative) or
/// `v = min/max(v, e)`. The accumulator must not occur in `e`.
fn reduction_update(program: &Program, s: StmtId) -> Option<(VarId, ReductionOp)> {
    let StmtKind::Assign {
        lhs: LValue::Scalar(v),
        rhs,
    } = &program.stmt(s).kind
    else {
        return None;
    };
    let v = *v;
    match rhs {
        Expr::Bin(BinOp::Add, a, b) => {
            if a.is_var(v) && !b.mentions(v) {
                return Some((v, ReductionOp::Sum));
            }
            if b.is_var(v) && !a.mentions(v) {
                return Some((v, ReductionOp::Sum));
            }
            None
        }
        Expr::Bin(BinOp::Sub, a, b) => {
            // s = s - e is a sum reduction with negated operand.
            if a.is_var(v) && !b.mentions(v) {
                return Some((v, ReductionOp::Sum));
            }
            None
        }
        Expr::Bin(BinOp::Mul, a, b) => {
            if (a.is_var(v) && !b.mentions(v)) || (b.is_var(v) && !a.mentions(v)) {
                return Some((v, ReductionOp::Product));
            }
            None
        }
        Expr::Call(intr, args) if args.len() == 2 => {
            let op = match intr {
                Intrinsic::Min => ReductionOp::Min,
                Intrinsic::Max => ReductionOp::Max,
                _ => return None,
            };
            if (args[0].is_var(v) && !args[1].mentions(v))
                || (args[1].is_var(v) && !args[0].mentions(v))
            {
                Some((v, op))
            } else {
                None
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_frontend::parse_program;
    use irr_frontend::Program;

    fn first_loop(p: &Program) -> StmtId {
        p.stmts_in(&p.procedure(p.main()).body)
            .into_iter()
            .find(|s| p.stmt(*s).kind.is_loop())
            .unwrap()
    }

    #[test]
    fn sum_reduction() {
        let p = parse_program(
            "program t
             integer i, n
             real s, x(100)
             s = 0
             do i = 1, n
               s = s + x(i)
             enddo
             end",
        )
        .unwrap();
        let r = recognize_reductions(&p, first_loop(&p));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].op, ReductionOp::Sum);
        assert_eq!(p.symbols.name(r[0].var), "s");
    }

    #[test]
    fn conditional_and_multiple_updates() {
        let p = parse_program(
            "program t
             integer i, n
             real s, x(100)
             do i = 1, n
               if (x(i) > 0) then
                 s = s + x(i)
               else
                 s = s + 1
               endif
             enddo
             end",
        )
        .unwrap();
        let r = recognize_reductions(&p, first_loop(&p));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].updates.len(), 2);
    }

    #[test]
    fn min_max_reductions() {
        let p = parse_program(
            "program t
             integer i, n
             real lo, hi, x(100)
             do i = 1, n
               lo = min(lo, x(i))
               hi = max(hi, x(i))
             enddo
             end",
        )
        .unwrap();
        let r = recognize_reductions(&p, first_loop(&p));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn accumulator_read_elsewhere_disqualifies() {
        let p = parse_program(
            "program t
             integer i, n
             real s, x(100)
             do i = 1, n
               s = s + x(i)
               x(i) = s
             enddo
             end",
        )
        .unwrap();
        assert!(recognize_reductions(&p, first_loop(&p)).is_empty());
    }

    #[test]
    fn mixed_operators_disqualify() {
        let p = parse_program(
            "program t
             integer i, n
             real s, x(100)
             do i = 1, n
               s = s + x(i)
               s = s * 2
             enddo
             end",
        )
        .unwrap();
        assert!(recognize_reductions(&p, first_loop(&p)).is_empty());
    }

    #[test]
    fn accumulator_in_update_operand_disqualifies() {
        let p = parse_program(
            "program t
             integer i, n
             real s
             do i = 1, n
               s = s + s
             enddo
             end",
        )
        .unwrap();
        assert!(recognize_reductions(&p, first_loop(&p)).is_empty());
    }
}
