//! Forward substitution of scalar definitions into later uses.
//!
//! `m = n - 1 ; do i = 1, m` becomes `do i = 1, n - 1`, exposing the
//! symbolic bound to the range test. Substitution is deliberately
//! conservative: only *single-definition* scalars are propagated (a
//! multiply-defined scalar is usually an index variable whose irregular
//! idiom — `p = 0; p = p + 1; x(p) = ...` — must survive for the §2
//! analyses), only while the defined variable and every variable in its
//! defining expression remain unmodified, and never across calls.

use crate::{apply_edits, record_edits, Edit, Kills};
use irr_frontend::visit::substitute_vars;
use irr_frontend::{Expr, FxHashMap, LValue, Program, StmtId, StmtKind, VarId};

/// What one walk carries: the pass's kill sets, which scalars the
/// procedure defines once (by `VarId`), and the rewrites found so far.
struct Walk<'a> {
    kills: &'a Kills,
    single_def: Vec<bool>,
    edits: Vec<Edit>,
}

/// Applies forward substitution in every procedure. Returns the number
/// of use sites rewritten.
pub fn forward_substitute(program: &mut Program) -> usize {
    let kills = Kills::new(program);
    let mut w = Walk {
        kills: &kills,
        single_def: Vec::new(),
        edits: Vec::new(),
    };
    for proc in &program.procedures {
        // Scalars assigned more than once in this procedure are index
        // variables, accumulators, or state: never substitute them.
        let mut counts = vec![0u32; program.symbols.len()];
        for s in program.stmts_in(&proc.body) {
            match &program.stmt(s).kind {
                StmtKind::Assign {
                    lhs: LValue::Scalar(v),
                    ..
                } => counts[v.index()] += 1,
                StmtKind::Do { var, .. } => counts[var.index()] += 2,
                _ => {}
            }
        }
        w.single_def = counts.iter().map(|c| *c == 1).collect();
        w.walk(program, &proc.body, &mut FxHashMap::default());
    }
    apply_edits(program, &w.edits)
}

/// Whether `e` is simple enough to copy: scalars, literals, arithmetic —
/// no array references (their values could change).
fn substitutable(e: &Expr) -> bool {
    match e {
        Expr::IntLit(_) | Expr::RealLit(_) | Expr::Var(_) => true,
        Expr::Element(..) => false,
        Expr::Bin(_, a, b) => substitutable(a) && substitutable(b),
        Expr::Un(_, a) => substitutable(a),
        // Intrinsic calls are values the symbolic layer treats as opaque
        // anchors (e.g. a runtime-derived stack bottom): keep the name.
        Expr::Call(..) => false,
    }
}

fn invalidate(defs: &mut FxHashMap<VarId, Expr>, killed: VarId) {
    defs.remove(&killed);
    defs.retain(|_, e| !e.mentions(killed));
}

impl Walk<'_> {
    /// Loop `s`'s body may have run: drop what it assigns (everything,
    /// if it calls).
    fn kill(&self, s: StmtId, defs: &mut FxHashMap<VarId, Expr>) {
        let kill = self.kills.of_loop(s);
        if kill.calls {
            defs.clear();
        }
        for v in &kill.vars {
            invalidate(defs, *v);
        }
    }

    fn record(&mut self, program: &Program, s: StmtId, defs: &FxHashMap<VarId, Expr>) {
        record_edits(program, s, &mut self.edits, |v| defs.get(&v).cloned());
    }

    fn walk(&mut self, program: &Program, body: &[StmtId], defs: &mut FxHashMap<VarId, Expr>) {
        for &s in body {
            match &program.stmt(s).kind {
                StmtKind::Assign { lhs, rhs } => {
                    self.record(program, s, defs);
                    if let LValue::Scalar(v) = lhs {
                        // The definition is the right-hand side as
                        // rewritten.
                        let def = (self.single_def[v.index()] && substitutable(rhs)).then(|| {
                            let mut def = rhs.clone();
                            substitute_vars(&mut def, &mut |u| defs.get(&u).cloned());
                            def
                        });
                        invalidate(defs, *v);
                        if let Some(def) = def.filter(|d| !d.mentions(*v)) {
                            defs.insert(*v, def);
                        }
                    }
                }
                StmtKind::Do { var, body, .. } => {
                    self.record(program, s, defs);
                    invalidate(defs, *var);
                    self.kill(s, defs);
                    self.walk(program, body, defs);
                    self.kill(s, defs);
                }
                StmtKind::While { body, .. } => {
                    self.kill(s, defs);
                    self.record(program, s, defs);
                    self.walk(program, body, defs);
                    self.kill(s, defs);
                }
                StmtKind::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    self.record(program, s, defs);
                    let mut d_then = defs.clone();
                    let mut d_else = defs.clone();
                    self.walk(program, then_body, &mut d_then);
                    self.walk(program, else_body, &mut d_else);
                    // Keep only definitions that survived both arms
                    // unchanged.
                    defs.retain(|v, e| d_then.get(v) == Some(e) && d_else.get(v) == Some(e));
                }
                StmtKind::Call { .. } => defs.clear(),
                StmtKind::Print { .. } => self.record(program, s, defs),
                StmtKind::Return => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_frontend::parse_program;

    #[test]
    fn substitutes_into_loop_bounds() {
        let mut p = parse_program(
            "program t
             integer n, m, i
             real x(100)
             m = n - 1
             do i = 1, m
               x(i) = 1
             enddo
             end",
        )
        .unwrap();
        let r = forward_substitute(&mut p);
        assert!(r >= 1);
        let printed = irr_frontend::print_program(&p);
        assert!(printed.contains("do i = 1, (n - 1)"), "printed:\n{printed}");
    }

    #[test]
    fn redefinition_stops_substitution() {
        let mut p = parse_program(
            "program t
             integer n, m
             real x(100)
             m = n - 1
             n = 5
             x(m) = 1
             end",
        )
        .unwrap();
        forward_substitute(&mut p);
        let printed = irr_frontend::print_program(&p);
        // m's definition mentions n which changed: keep the use symbolic.
        assert!(printed.contains("x(m)"), "printed:\n{printed}");
    }

    #[test]
    fn array_rhs_is_not_substituted() {
        let mut p = parse_program(
            "program t
             integer m, a(10), k
             real x(100)
             m = a(3)
             a(3) = 0
             x(m) = 1
             end",
        )
        .unwrap();
        forward_substitute(&mut p);
        let printed = irr_frontend::print_program(&p);
        assert!(printed.contains("x(m)"), "printed:\n{printed}");
        let _ = p.symbols.lookup("k");
    }

    #[test]
    fn branches_preserve_only_common_defs() {
        let mut p = parse_program(
            "program t
             integer m, c
             real x(100)
             m = 3
             if (c > 0) then
               m = 4
             endif
             x(m) = 1
             end",
        )
        .unwrap();
        forward_substitute(&mut p);
        let printed = irr_frontend::print_program(&p);
        assert!(printed.contains("x(m)"), "printed:\n{printed}");
    }

    #[test]
    fn chains_of_definitions() {
        let mut p = parse_program(
            "program t
             integer a, b, n
             real x(100)
             a = n + 1
             b = a + 1
             x(b) = 1
             end",
        )
        .unwrap();
        forward_substitute(&mut p);
        let printed = irr_frontend::print_program(&p);
        assert!(printed.contains("x(((n + 1) + 1))"), "printed:\n{printed}");
    }
}
