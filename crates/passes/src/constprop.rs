//! Flow-sensitive scalar constant propagation, with a simple
//! interprocedural fixpoint across call sites.

use crate::{apply_edits, record_edits, Kills};
use irr_frontend::{BinOp, Expr, Intrinsic, LValue, Program, StmtId, StmtKind, UnOp};

/// The abstract value of a scalar.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Lattice {
    /// A known integer constant.
    Int(i64),
    /// A known real constant.
    Real(f64),
    /// Not a constant.
    Bottom,
}

impl Lattice {
    fn join(self, other: Lattice) -> Lattice {
        match (self, other) {
            (a, b) if a == b => a,
            _ => Lattice::Bottom,
        }
    }
}

/// The abstract value of every variable, by `VarId`.
type State = Vec<Lattice>;

fn join_into(a: &mut State, b: &State) {
    for (x, y) in a.iter_mut().zip(b) {
        *x = x.join(*y);
    }
}

/// Propagates scalar constants through the whole program, rewriting uses
/// of known-constant scalars into literals. Returns the number of
/// expression sites rewritten.
///
/// Interprocedural behavior: each procedure's entry state is the join of
/// the states at all of its call sites, iterated to a fixpoint; this is
/// the "interprocedural constant propagation" phase of Fig. 15.
pub fn propagate_constants(program: &mut Program) -> usize {
    let kills = Kills::new(program);
    // Fixpoint over procedure entry states. It is reached: a routine's
    // entry state is set once, when it is first seen called, and then
    // only joined, so each variable of it can only fall to `Bottom`. A
    // cap on the rounds would leave a routine reached late in a call
    // chain with the entry state of its first call sites alone.
    let nprocs = program.procedures.len();
    let mut entry_states = vec![vec![Lattice::Bottom; program.symbols.len()]; nprocs];
    // Main starts with everything unknown; a procedure's entry state is
    // only meaningful once it is seen to be called.
    let mut seen: Vec<bool> = vec![false; nprocs];
    seen[program.main().index()] = true;
    loop {
        let mut next_states = entry_states.clone();
        let mut next_seen = seen.clone();
        for (i, proc) in program.procedures.iter().enumerate() {
            if !seen[i] {
                continue;
            }
            let mut st = entry_states[i].clone();
            walk(
                program,
                &kills,
                &proc.body,
                &mut st,
                &mut |s, call_state| {
                    let StmtKind::Call { proc: callee } = program.stmt(s).kind else {
                        return;
                    };
                    let ci = callee.index();
                    if !next_seen[ci] {
                        next_seen[ci] = true;
                        next_states[ci] = call_state.clone();
                    } else {
                        join_into(&mut next_states[ci], call_state);
                    }
                },
            );
        }
        if next_states == entry_states && next_seen == seen {
            break;
        }
        entry_states = next_states;
        seen = next_seen;
    }
    // Walk each procedure once more from its entry state, recording the
    // constant uses, then fold them in place.
    let mut edits = Vec::new();
    for (i, proc) in program.procedures.iter().enumerate() {
        if !seen[i] {
            continue;
        }
        let mut st = entry_states[i].clone();
        walk(program, &kills, &proc.body, &mut st, &mut |s, state| {
            record_edits(program, s, &mut edits, |v| match state[v.index()] {
                Lattice::Int(c) => Some(Expr::IntLit(c)),
                Lattice::Real(c) => Some(Expr::RealLit(c)),
                Lattice::Bottom => None,
            });
        });
    }
    apply_edits(program, &edits)
}

/// Effect of an assignment on the state.
fn eval(state: &State, e: &Expr) -> Lattice {
    match e {
        Expr::IntLit(v) => Lattice::Int(*v),
        Expr::RealLit(v) => Lattice::Real(*v),
        Expr::Var(v) => state[v.index()],
        Expr::Bin(op, a, b) => {
            let (la, lb) = (eval(state, a), eval(state, b));
            match (la, lb) {
                (Lattice::Int(x), Lattice::Int(y)) => match op {
                    BinOp::Add => Lattice::Int(x.wrapping_add(y)),
                    BinOp::Sub => Lattice::Int(x.wrapping_sub(y)),
                    BinOp::Mul => Lattice::Int(x.wrapping_mul(y)),
                    BinOp::Div if y != 0 => Lattice::Int(x.wrapping_div_euclid(y)),
                    BinOp::Mod if y != 0 => Lattice::Int(x.wrapping_rem_euclid(y)),
                    _ => Lattice::Bottom,
                },
                _ => Lattice::Bottom,
            }
        }
        Expr::Un(UnOp::Neg, a) => match eval(state, a) {
            Lattice::Int(x) => Lattice::Int(x.wrapping_neg()),
            Lattice::Real(x) => Lattice::Real(-x),
            _ => Lattice::Bottom,
        },
        Expr::Call(Intrinsic::Min, args) if args.len() == 2 => {
            match (eval(state, &args[0]), eval(state, &args[1])) {
                (Lattice::Int(x), Lattice::Int(y)) => Lattice::Int(x.min(y)),
                _ => Lattice::Bottom,
            }
        }
        Expr::Call(Intrinsic::Max, args) if args.len() == 2 => {
            match (eval(state, &args[0]), eval(state, &args[1])) {
                (Lattice::Int(x), Lattice::Int(y)) => Lattice::Int(x.max(y)),
                _ => Lattice::Bottom,
            }
        }
        _ => Lattice::Bottom,
    }
}

/// Walks `body` updating `state`, calling `on` with every statement and
/// the state its expressions see (a `while` condition sees the state
/// after the body's effects, since it is evaluated after them too).
fn walk(
    program: &Program,
    kills: &Kills,
    body: &[StmtId],
    state: &mut State,
    on: &mut impl FnMut(StmtId, &State),
) {
    // A loop runs its body's effects on both sides of the walk, so
    // constants established in the first iteration don't leak.
    let kill = |s, state: &mut State| {
        for v in &kills.of_loop(s).vars {
            state[v.index()] = Lattice::Bottom;
        }
    };
    for &s in body {
        match &program.stmt(s).kind {
            StmtKind::Assign { lhs, rhs } => {
                on(s, state);
                if let LValue::Scalar(v) = lhs {
                    state[v.index()] = eval(state, rhs);
                }
            }
            StmtKind::Do { var, body, .. } => {
                on(s, state);
                state[var.index()] = Lattice::Bottom;
                kill(s, state);
                walk(program, kills, body, state, on);
                kill(s, state);
            }
            StmtKind::While { body, .. } => {
                kill(s, state);
                on(s, state);
                walk(program, kills, body, state, on);
                kill(s, state);
            }
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                on(s, state);
                let mut st_else = state.clone();
                walk(program, kills, then_body, state, on);
                walk(program, kills, else_body, &mut st_else, on);
                join_into(state, &st_else);
            }
            StmtKind::Call { proc } => {
                on(s, state);
                // Everything the callee (transitively) assigns is killed.
                for v in kills.of_call(*proc) {
                    state[v.index()] = Lattice::Bottom;
                }
            }
            StmtKind::Print { .. } | StmtKind::Return => on(s, state),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_frontend::parse_program;

    #[test]
    fn straight_line_propagation() {
        let mut p = parse_program(
            "program t
             integer n, m
             real x(100)
             n = 100
             m = n - 1
             x(m) = 1
             end",
        )
        .unwrap();
        let rewrites = propagate_constants(&mut p);
        assert!(rewrites >= 2);
        let printed = irr_frontend::print_program(&p);
        assert!(printed.contains("x(99)"), "printed:\n{printed}");
    }

    #[test]
    fn loop_kills_induction_and_assigned() {
        let mut p = parse_program(
            "program t
             integer i, q, n
             real x(100)
             n = 10
             q = 5
             do i = 1, n
               q = q + 1
               x(q) = i
             enddo
             x(q) = 0
             end",
        )
        .unwrap();
        propagate_constants(&mut p);
        let printed = irr_frontend::print_program(&p);
        // n propagated into the loop bound; q not constant inside/after.
        assert!(printed.contains("do i = 1, 10"), "printed:\n{printed}");
        assert!(printed.contains("x(q)"), "printed:\n{printed}");
    }

    #[test]
    fn branch_join() {
        let mut p = parse_program(
            "program t
             integer a, b, c
             real x(10)
             if (c > 0) then
               a = 1
               b = 7
             else
               a = 2
               b = 7
             endif
             x(a) = 1
             x(b) = 2
             end",
        )
        .unwrap();
        propagate_constants(&mut p);
        let printed = irr_frontend::print_program(&p);
        // b = 7 on both arms: propagates; a differs: stays.
        assert!(printed.contains("x(7)"), "printed:\n{printed}");
        assert!(printed.contains("x(a)"), "printed:\n{printed}");
    }

    #[test]
    fn interprocedural_entry_state() {
        let mut p = parse_program(
            "program t
             integer n
             real x(100)
             n = 100
             call init
             end
             subroutine init
             integer i
             do i = 1, n
               x(i) = 0
             enddo
             end",
        )
        .unwrap();
        propagate_constants(&mut p);
        let printed = irr_frontend::print_program(&p);
        assert!(printed.contains("do i = 1, 100"), "printed:\n{printed}");
    }

    #[test]
    fn conflicting_call_sites_do_not_propagate() {
        let mut p = parse_program(
            "program t
             integer n
             real x(100)
             n = 100
             call init
             n = 50
             call init
             end
             subroutine init
             integer i
             do i = 1, n
               x(i) = 0
             enddo
             end",
        )
        .unwrap();
        propagate_constants(&mut p);
        let printed = irr_frontend::print_program(&p);
        assert!(printed.contains("do i = 1, n"), "printed:\n{printed}");
    }

    #[test]
    fn a_call_site_deep_in_a_chain_still_joins() {
        // `p` is called with n = 100 first, and with n = 50 at the end
        // of a chain whose last call is seen only in the fifth round.
        let mut p = parse_program(
            "program t
             integer n
             n = 100
             call p
             n = 50
             call a
             end
             subroutine a
             call b
             end
             subroutine b
             call c
             end
             subroutine c
             call d
             end
             subroutine d
             call p
             end
             subroutine p
             print n
             end",
        )
        .unwrap();
        propagate_constants(&mut p);
        let printed = irr_frontend::print_program(&p);
        assert!(printed.contains("print n"), "printed:\n{printed}");
    }

    #[test]
    fn callee_assignment_kills_after_call() {
        let mut p = parse_program(
            "program t
             integer n
             real x(100)
             n = 100
             call setn
             x(n) = 1
             end
             subroutine setn
             n = 7
             end",
        )
        .unwrap();
        propagate_constants(&mut p);
        let printed = irr_frontend::print_program(&p);
        // n is rewritten by the callee: use after call must stay symbolic.
        assert!(printed.contains("x(n)"), "printed:\n{printed}");
    }
}
