//! Flow-sensitive scalar constant propagation, with a simple
//! interprocedural fixpoint across call sites.

use irr_frontend::{
    BinOp, Expr, Intrinsic, LValue, ProcId, Program, StmtId, StmtKind, UnOp, VarId,
};
use std::collections::HashMap;

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

type State = HashMap<VarId, Lattice>;

fn join_states(a: &State, b: &State) -> State {
    let mut out = State::new();
    for (v, &la) in a {
        let lb = b.get(v).copied().unwrap_or(Lattice::Bottom);
        out.insert(*v, la.join(lb));
    }
    // Vars only in b join with Bottom (absent means Bottom).
    for v in b.keys() {
        out.entry(*v).or_insert(Lattice::Bottom);
    }
    out.retain(|_, l| !matches!(l, Lattice::Bottom));
    out
}

/// Propagates scalar constants through the whole program, rewriting uses
/// of known-constant scalars into literals. Returns the number of
/// expression sites rewritten.
///
/// Interprocedural behavior: each procedure's entry state is the join of
/// the states at all of its call sites, iterated to a fixpoint; this is
/// the "interprocedural constant propagation" phase of Fig. 15.
pub fn propagate_constants(program: &mut Program) -> usize {
    // Fixpoint over procedure entry states.
    let nprocs = program.procedures.len();
    let mut entry_states: Vec<State> = vec![State::new()]
        .into_iter()
        .cycle()
        .take(nprocs)
        .collect();
    // Main starts with everything unknown-but-joinable (Top is implicit:
    // absent vars in a *seen* state are Bottom, so track "never called"
    // separately).
    let mut seen: Vec<bool> = vec![false; nprocs];
    let main = program.main();
    seen[main.index()] = true;
    for _ in 0..4 {
        let mut next_states = entry_states.clone();
        let mut next_seen = seen.clone();
        for (i, proc) in program.procedures.iter().enumerate() {
            if !seen[i] {
                continue;
            }
            let mut st = entry_states[i].clone();
            walk_collect(
                program,
                &proc.body.clone(),
                &mut st,
                &mut |callee, call_state| {
                    let ci = callee.index();
                    if !next_seen[ci] {
                        next_seen[ci] = true;
                        next_states[ci] = call_state.clone();
                    } else {
                        next_states[ci] = join_states(&next_states[ci], call_state);
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
    // Rewrite pass: walk each procedure with its entry state and fold
    // constant uses.
    let mut rewrites = 0;
    for i in 0..nprocs {
        if !seen[i] {
            continue;
        }
        let body = program.procedures[i].body.clone();
        let mut st = entry_states[i].clone();
        rewrites += walk_rewrite(program, &body, &mut st);
    }
    rewrites
}

/// Effect of an assignment on the state.
fn eval(state: &State, e: &Expr) -> Lattice {
    match e {
        Expr::IntLit(v) => Lattice::Int(*v),
        Expr::RealLit(v) => Lattice::Real(*v),
        Expr::Var(v) => state.get(v).copied().unwrap_or(Lattice::Bottom),
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

/// Walks a body updating `state`, reporting call-site states to `on_call`.
fn walk_collect(
    program: &Program,
    body: &[StmtId],
    state: &mut State,
    on_call: &mut impl FnMut(ProcId, &State),
) {
    for &s in body {
        match &program.stmt(s).kind {
            StmtKind::Assign { lhs, rhs } => {
                if let LValue::Scalar(v) = lhs {
                    let l = eval(state, rhs);
                    match l {
                        Lattice::Bottom => {
                            state.remove(v);
                        }
                        _ => {
                            state.insert(*v, l);
                        }
                    }
                }
            }
            StmtKind::Do { var, body, .. } => {
                // The induction variable and everything assigned in the
                // body become unknown.
                state.remove(var);
                kill_assigned(program, body, state);
                walk_collect(program, &body.clone(), state, on_call);
                // Run the body effects twice so constants established in
                // the first iteration don't leak (conservative).
                kill_assigned(program, body, state);
            }
            StmtKind::While { body, .. } => {
                kill_assigned(program, body, state);
                walk_collect(program, &body.clone(), state, on_call);
                kill_assigned(program, body, state);
            }
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                let mut st_then = state.clone();
                let mut st_else = state.clone();
                walk_collect(program, &then_body.clone(), &mut st_then, on_call);
                walk_collect(program, &else_body.clone(), &mut st_else, on_call);
                *state = join_states(&st_then, &st_else);
            }
            StmtKind::Call { proc } => {
                on_call(*proc, state);
                // Everything the callee (transitively) assigns is killed.
                kill_callee_effects(program, *proc, state, &mut Vec::new());
            }
            StmtKind::Print { .. } | StmtKind::Return => {}
        }
    }
}

fn kill_assigned(program: &Program, body: &[StmtId], state: &mut State) {
    for v in irr_frontend::visit::scalars_assigned_in(program, body) {
        state.remove(&v);
    }
    // Calls in the body kill their callees' effects too.
    for s in program.stmts_in(body) {
        if let StmtKind::Call { proc } = &program.stmt(s).kind {
            kill_callee_effects(program, *proc, state, &mut Vec::new());
        }
    }
}

fn kill_callee_effects(
    program: &Program,
    proc: ProcId,
    state: &mut State,
    visiting: &mut Vec<ProcId>,
) {
    if visiting.contains(&proc) {
        return;
    }
    visiting.push(proc);
    let body = &program.procedures[proc.index()].body;
    for v in irr_frontend::visit::scalars_assigned_in(program, body) {
        state.remove(&v);
    }
    for s in program.stmts_in(body) {
        if let StmtKind::Call { proc: q } = &program.stmt(s).kind {
            kill_callee_effects(program, *q, state, visiting);
        }
    }
    visiting.pop();
}

/// Walks and rewrites: replaces constant scalar uses with literals.
fn walk_rewrite(program: &mut Program, body: &[StmtId], state: &mut State) -> usize {
    let mut rewrites = 0;
    for &s in body {
        // Rewrite the expressions of this statement first (uses see the
        // state *before* the statement executes).
        let kind = program.stmt(s).kind.clone();
        match kind {
            StmtKind::Assign { lhs, rhs } => {
                let mut rhs = rhs;
                rewrites += rewrite_expr(&mut rhs, state);
                let lhs = match lhs {
                    LValue::Scalar(v) => LValue::Scalar(v),
                    LValue::Element(a, mut subs) => {
                        for e in &mut subs {
                            rewrites += rewrite_expr(e, state);
                        }
                        LValue::Element(a, subs)
                    }
                };
                if let LValue::Scalar(v) = &lhs {
                    let l = eval(state, &rhs);
                    match l {
                        Lattice::Bottom => {
                            state.remove(v);
                        }
                        _ => {
                            state.insert(*v, l);
                        }
                    }
                }
                program.stmt_mut(s).kind = StmtKind::Assign { lhs, rhs };
            }
            StmtKind::Do {
                var,
                mut lo,
                mut hi,
                mut step,
                body: inner,
                label,
            } => {
                rewrites += rewrite_expr(&mut lo, state);
                rewrites += rewrite_expr(&mut hi, state);
                if let Some(st) = &mut step {
                    rewrites += rewrite_expr(st, state);
                }
                program.stmt_mut(s).kind = StmtKind::Do {
                    var,
                    lo,
                    hi,
                    step,
                    body: inner.clone(),
                    label,
                };
                state.remove(&var);
                kill_assigned(program, &inner, state);
                rewrites += walk_rewrite(program, &inner, state);
                kill_assigned(program, &inner, state);
            }
            StmtKind::While {
                mut cond,
                body: inner,
            } => {
                // The condition is evaluated after body effects too.
                kill_assigned(program, &inner, state);
                rewrites += rewrite_expr(&mut cond, state);
                program.stmt_mut(s).kind = StmtKind::While {
                    cond,
                    body: inner.clone(),
                };
                rewrites += walk_rewrite(program, &inner, state);
                kill_assigned(program, &inner, state);
            }
            StmtKind::If {
                mut cond,
                then_body,
                else_body,
            } => {
                rewrites += rewrite_expr(&mut cond, state);
                program.stmt_mut(s).kind = StmtKind::If {
                    cond,
                    then_body: then_body.clone(),
                    else_body: else_body.clone(),
                };
                let mut st_then = state.clone();
                let mut st_else = state.clone();
                rewrites += walk_rewrite(program, &then_body, &mut st_then);
                rewrites += walk_rewrite(program, &else_body, &mut st_else);
                *state = join_states(&st_then, &st_else);
            }
            StmtKind::Call { proc } => {
                kill_callee_effects(program, proc, state, &mut Vec::new());
            }
            StmtKind::Print { mut args } => {
                for e in &mut args {
                    rewrites += rewrite_expr(e, state);
                }
                program.stmt_mut(s).kind = StmtKind::Print { args };
            }
            StmtKind::Return => {}
        }
    }
    rewrites
}

fn rewrite_expr(e: &mut Expr, state: &State) -> usize {
    match e {
        Expr::Var(v) => match state.get(v) {
            Some(Lattice::Int(c)) => {
                *e = Expr::IntLit(*c);
                1
            }
            Some(Lattice::Real(c)) => {
                *e = Expr::RealLit(*c);
                1
            }
            _ => 0,
        },
        Expr::IntLit(_) | Expr::RealLit(_) => 0,
        Expr::Element(_, subs) => subs.iter_mut().map(|x| rewrite_expr(x, state)).sum(),
        Expr::Bin(_, a, b) => rewrite_expr(a, state) + rewrite_expr(b, state),
        Expr::Un(_, a) => rewrite_expr(a, state),
        Expr::Call(_, args) => args.iter_mut().map(|x| rewrite_expr(x, state)).sum(),
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
