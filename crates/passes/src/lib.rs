//! The scalar optimization phases of the parallelizer pipeline
//! (Fig. 15 of the paper).
//!
//! Polaris runs a fixed sequence of normalizing transformations before
//! the analyses: inlining, interprocedural constant propagation, program
//! normalization, induction variable substitution, constant propagation,
//! forward substitution, and dead-code elimination. These are
//! implemented here as real (if modest) AST-to-AST passes; §5.1.1's
//! reorganization — running every transformation on every program unit
//! *before* any analysis — is what makes the interprocedural array
//! property analysis possible, and is reproduced in `irr-driver`.
//!
//! Every pass edits the program in place and copies nothing it does not
//! change: expressions are rewritten through
//! [`irr_frontend::visit::for_each_expr_in_stmt_mut`], and a statement
//! list is moved out of the arena (`edit_bodies`) only by the passes
//! that splice or remove statements — inlining, dead-code elimination,
//! and induction substitution and normalization, which share one
//! innermost-first walk (`rewrite_innermost_first`).

pub mod constprop;
pub mod dce;
pub mod forward_sub;
pub mod induction;
pub mod inline;
pub mod normalize;
pub mod reduction;

pub use constprop::propagate_constants;
pub use dce::eliminate_dead_code;
pub use forward_sub::forward_substitute;
pub use induction::substitute_induction_variables;
pub use inline::inline_small_procedures;
pub use normalize::normalize_loops;
pub use reduction::{recognize_reductions, Reduction, ReductionOp};

use irr_frontend::visit::{
    for_each_expr_in_stmt, for_each_expr_in_stmt_mut, for_each_subexpr, substitute_vars,
};
use irr_frontend::{Expr, LValue, ProcId, Program, SourceLoc, Stmt, StmtId, StmtKind, VarId};

/// One in-place rewrite: every use of the scalar in the statement
/// becomes the expression.
type Edit = (StmtId, VarId, Expr);

/// Records one [`Edit`] for each distinct scalar that statement `s`
/// reads and `f` has a replacement for.
fn record_edits(
    program: &Program,
    s: StmtId,
    edits: &mut Vec<Edit>,
    mut f: impl FnMut(VarId) -> Option<Expr>,
) {
    let first = edits.len();
    for_each_expr_in_stmt(program, s, |e| {
        for_each_subexpr(e, &mut |sub| {
            if let Expr::Var(v) = sub {
                if !edits[first..].iter().any(|(_, w, _)| w == v) {
                    if let Some(r) = f(*v) {
                        edits.push((s, *v, r));
                    }
                }
            }
        })
    });
}

/// Applies [`record_edits`]' output in place, statement by statement;
/// returns how many uses were rewritten.
fn apply_edits(program: &mut Program, edits: &[Edit]) -> usize {
    let mut rewrites = 0;
    for run in edits.chunk_by(|a, b| a.0 == b.0) {
        let mut replace = |v| {
            run.iter()
                .find(|(_, w, _)| *w == v)
                .map(|(_, _, r)| r.clone())
        };
        for_each_expr_in_stmt_mut(program, run[0].0, |e| {
            rewrites += substitute_vars(e, &mut replace)
        });
    }
    rewrites
}

/// Runs `f` on each procedure's top-level statement list, moved out of
/// the program for the call (see [`edit_bodies`]).
fn edit_procedures(
    program: &mut Program,
    mut f: impl FnMut(&mut Program, ProcId, &mut Vec<StmtId>),
) {
    for i in 0..program.procedures.len() {
        let mut body = std::mem::take(&mut program.procedures[i].body);
        f(program, ProcId(i as u32), &mut body);
        program.procedures[i].body = body;
    }
}

/// Runs `f` on each statement list directly under `s` — a loop's body,
/// an `if`'s two branches — moved out of the arena for the call, so `f`
/// may edit the statements under it and splice the list itself. Nothing
/// is copied. While a list is out its owner reads as empty, so `f` must
/// not walk an ancestor of `s`.
fn edit_bodies(
    program: &mut Program,
    s: StmtId,
    mut f: impl FnMut(&mut Program, &mut Vec<StmtId>),
) {
    for k in 0..2 {
        let Some(slot) = body_list(&mut program.stmt_mut(s).kind, k) else {
            return;
        };
        let mut body = std::mem::take(slot);
        f(program, &mut body);
        *body_list(&mut program.stmt_mut(s).kind, k).expect("the kind is unchanged") = body;
    }
}

/// Calls `f` on every statement of every procedure, innermost first, and
/// splices the statements it returns right after the one it was called on.
fn rewrite_innermost_first<F, I>(program: &mut Program, mut f: F)
where
    F: FnMut(&mut Program, StmtId) -> I,
    I: IntoIterator<Item = StmtId>,
{
    edit_procedures(program, |p, _, body| splice_after(p, body, &mut f));
}

fn splice_after<F, I>(program: &mut Program, body: &mut Vec<StmtId>, f: &mut F)
where
    F: FnMut(&mut Program, StmtId) -> I,
    I: IntoIterator<Item = StmtId>,
{
    let mut k = 0;
    while k < body.len() {
        let s = body[k];
        edit_bodies(program, s, |p, inner| splice_after(p, inner, f));
        let len = body.len();
        body.splice(k + 1..k + 1, f(program, s));
        k += 1 + body.len() - len;
    }
}

/// The `k`-th statement list directly under a statement: a loop's body
/// (`0`), an `if`'s then (`0`) and else (`1`) branches.
fn body_list(kind: &mut StmtKind, k: usize) -> Option<&mut Vec<StmtId>> {
    match (kind, k) {
        (StmtKind::Do { body, .. } | StmtKind::While { body, .. }, 0) => Some(body),
        (StmtKind::If { then_body, .. }, 0) => Some(then_body),
        (StmtKind::If { else_body, .. }, 1) => Some(else_body),
        _ => None,
    }
}

/// Appends a synthesized statement to the arena; the caller links it.
fn push_stmt(program: &mut Program, kind: StmtKind) -> StmtId {
    let id = StmtId(program.stmts.len() as u32);
    let loc = SourceLoc::synthetic();
    program.stmts.push(Stmt { id, kind, loc });
    id
}

/// Whether `lo` and `hi` of a `do` over `body` with index `var` hold the
/// same values before, during and after it: the body calls nothing and
/// assigns no scalar and writes no array either mentions, and neither
/// mentions `var`.
fn bounds_invariant(program: &Program, var: VarId, lo: &Expr, hi: &Expr, body: &[StmtId]) -> bool {
    let mentioned = |v| lo.mentions(v) || hi.mentions(v);
    !mentioned(var)
        && program
            .stmts_in(body)
            .into_iter()
            .all(|s| match &program.stmt(s).kind {
                StmtKind::Assign { lhs, .. } => !mentioned(lhs.var()),
                StmtKind::Do { var, .. } => !mentioned(*var),
                StmtKind::Call { .. } => false,
                _ => true,
            })
}

/// What one execution of a body may assign.
#[derive(Clone, Default)]
struct Kill {
    /// The scalars it assigns, `do` indices and callees' assignments
    /// (transitively) included.
    vars: Vec<VarId>,
    /// Whether it calls.
    calls: bool,
}

impl Kill {
    fn add(&mut self, v: VarId) {
        if !self.vars.contains(&v) {
            self.vars.push(v);
        }
    }

    fn union(&mut self, other: &Kill) {
        other.vars.iter().for_each(|v| self.add(*v));
        self.calls |= other.calls;
    }
}

/// The kill sets of the flow-sensitive passes (constant propagation,
/// forward substitution), built in one walk when a pass starts. They stay
/// valid for the whole pass: those passes rewrite expressions only —
/// never an assignment target, a call or a body.
struct Kills {
    /// Per statement (by `StmtId`; empty but for loops): its body's.
    loops: Vec<Kill>,
    /// Per procedure: the scalars a call to it assigns.
    procs: Vec<Vec<VarId>>,
}

impl Kills {
    fn new(program: &Program) -> Kills {
        let n = program.procedures.len();
        // Each procedure's own assignments and callees, then what a call
        // reaches.
        let mut direct = vec![(Kill::default(), Vec::new()); n];
        for (i, proc) in program.procedures.iter().enumerate() {
            for s in program.stmts_in(&proc.body) {
                match &program.stmt(s).kind {
                    StmtKind::Assign {
                        lhs: LValue::Scalar(v),
                        ..
                    }
                    | StmtKind::Do { var: v, .. } => direct[i].0.add(*v),
                    StmtKind::Call { proc } => direct[i].1.push(proc.index()),
                    _ => {}
                }
            }
        }
        let procs = (0..n)
            .map(|i| {
                let (mut reach, mut seen, mut stack) = (Kill::default(), vec![false; n], vec![i]);
                seen[i] = true;
                while let Some(p) = stack.pop() {
                    reach.union(&direct[p].0);
                    for &c in &direct[p].1 {
                        if !std::mem::replace(&mut seen[c], true) {
                            stack.push(c);
                        }
                    }
                }
                reach.vars
            })
            .collect();
        let mut kills = Kills {
            loops: vec![Kill::default(); program.stmts.len()],
            procs,
        };
        for proc in &program.procedures {
            kills.scan(program, &proc.body);
        }
        kills
    }

    /// Records the kill set of every loop in `body`; returns `body`'s.
    fn scan(&mut self, program: &Program, body: &[StmtId]) -> Kill {
        let mut kill = Kill::default();
        for &s in body {
            match &program.stmt(s).kind {
                StmtKind::Assign {
                    lhs: LValue::Scalar(v),
                    ..
                } => kill.add(*v),
                StmtKind::Do { var, body, .. } => {
                    kill.add(*var);
                    self.loops[s.index()] = self.scan(program, body);
                    kill.union(&self.loops[s.index()]);
                }
                StmtKind::While { body, .. } => {
                    self.loops[s.index()] = self.scan(program, body);
                    kill.union(&self.loops[s.index()]);
                }
                StmtKind::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    kill.union(&self.scan(program, then_body));
                    kill.union(&self.scan(program, else_body));
                }
                StmtKind::Call { proc } => {
                    kill.calls = true;
                    self.procs[proc.index()].iter().for_each(|v| kill.add(*v));
                }
                _ => {}
            }
        }
        kill
    }

    /// What one iteration of loop `s`'s body may assign.
    fn of_loop(&self, s: StmtId) -> &Kill {
        &self.loops[s.index()]
    }

    /// What a call to `proc` may assign.
    fn of_call(&self, proc: ProcId) -> &[VarId] {
        &self.procs[proc.index()]
    }
}
