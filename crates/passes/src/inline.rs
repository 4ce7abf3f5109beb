//! Procedure inlining.
//!
//! Polaris' default auto-inliner inlines procedures "that contain no I/O
//! statements and contain less than fifty lines of code" (§5.1.1).
//! Because the language passes everything through globals, inlining is a
//! pure statement-tree clone.

use crate::{body_list, edit_bodies, edit_procedures};
use irr_frontend::{ProcId, Program, Stmt, StmtId, StmtKind};

/// Inlines eligible calls (callee has fewer than `max_stmts` statements,
/// no `print`, no `return`, and is not (mutually) recursive). Returns
/// the number of call sites inlined.
pub fn inline_small_procedures(program: &mut Program, max_stmts: usize) -> usize {
    if !program
        .stmts
        .iter()
        .any(|s| matches!(s.kind, StmtKind::Call { .. }))
    {
        return 0;
    }
    let mut inlined = 0;
    // Iterate to a fixpoint so chains of small calls flatten, with a
    // safety cap.
    for _ in 0..8 {
        let mut changed = 0;
        edit_procedures(program, |p, caller, body| {
            inline_in_body(p, caller, body, max_stmts, &mut changed)
        });
        if changed == 0 {
            break;
        }
        inlined += changed;
    }
    inlined
}

fn eligible(program: &Program, caller: ProcId, callee: ProcId, max_stmts: usize) -> bool {
    if caller == callee {
        return false;
    }
    let body = &program.procedures[callee.index()].body;
    let stmts = program.stmts_in(body);
    if stmts.len() >= max_stmts {
        return false;
    }
    for s in &stmts {
        match &program.stmt(*s).kind {
            StmtKind::Print { .. } | StmtKind::Return => return false,
            // Nested calls are fine (they'll be considered next round),
            // but direct recursion is not.
            StmtKind::Call { proc } if *proc == callee => return false,
            // Labeled loops identify code the evaluation tracks by name
            // (`INTGRL/do140`); inlining would lose the attribution. In
            // the original programs these routines are far larger than
            // the inlining threshold anyway.
            StmtKind::Do { label: Some(_), .. } => return false,
            _ => {}
        }
    }
    true
}

/// Replaces each eligible call in `body` by a copy of its callee's body
/// (not itself revisited this round) and recurses into nested bodies.
fn inline_in_body(
    program: &mut Program,
    caller: ProcId,
    body: &mut Vec<StmtId>,
    max_stmts: usize,
    changed: &mut usize,
) {
    let mut k = 0;
    while k < body.len() {
        let s = body[k];
        match program.stmt(s).kind {
            StmtKind::Call { proc } if eligible(program, caller, proc, max_stmts) => {
                let callee_body = program.procedures[proc.index()].body.clone();
                let copies: Vec<StmtId> = callee_body
                    .into_iter()
                    .map(|t| clone_stmt(program, t))
                    .collect();
                let n = copies.len();
                body.splice(k..=k, copies);
                k += n;
                *changed += 1;
            }
            _ => {
                edit_bodies(program, s, |p, inner| {
                    inline_in_body(p, caller, inner, max_stmts, changed)
                });
                k += 1;
            }
        }
    }
}

/// Deep-clones a statement (and its nested bodies) into fresh arena
/// slots.
fn clone_stmt(program: &mut Program, s: StmtId) -> StmtId {
    let Stmt { mut kind, loc, .. } = program.stmt(s).clone();
    for k in 0..2 {
        for t in body_list(&mut kind, k).into_iter().flatten() {
            *t = clone_stmt(program, *t);
        }
    }
    let id = StmtId(program.stmts.len() as u32);
    program.stmts.push(Stmt { id, kind, loc });
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_frontend::parse_program;

    #[test]
    fn small_callee_is_inlined() {
        let mut p = parse_program(
            "program t
             integer k
             call bump
             call bump
             end
             subroutine bump
             k = k + 1
             end",
        )
        .unwrap();
        let n = inline_small_procedures(&mut p, 50);
        assert_eq!(n, 2);
        let printed = irr_frontend::print_program(&p);
        assert!(!printed.contains("call bump"), "printed:\n{printed}");
        assert_eq!(printed.matches("k = (k + 1)").count(), 3); // 2 inlined + original
    }

    #[test]
    fn chains_flatten() {
        let mut p = parse_program(
            "program t
             integer k
             call a
             end
             subroutine a
             call b
             end
             subroutine b
             k = 1
             end",
        )
        .unwrap();
        inline_small_procedures(&mut p, 50);
        let printed = irr_frontend::print_program(&p);
        assert!(!printed.contains("call"), "printed:\n{printed}");
    }

    #[test]
    fn big_callee_is_not_inlined() {
        let mut body = String::new();
        for i in 0..60 {
            body.push_str(&format!("k = {i}\n"));
        }
        let src = format!("program t\ninteger k\ncall big\nend\nsubroutine big\n{body}end\n");
        let mut p = parse_program(&src).unwrap();
        assert_eq!(inline_small_procedures(&mut p, 50), 0);
    }

    #[test]
    fn recursive_callee_is_not_inlined() {
        let mut p = parse_program(
            "program t
             integer k
             call a
             end
             subroutine a
             k = k + 1
             call a
             end",
        )
        .unwrap();
        assert_eq!(inline_small_procedures(&mut p, 50), 0);
    }

    #[test]
    fn inlined_loops_get_fresh_statement_ids() {
        let mut p = parse_program(
            "program t
             integer k, i
             real x(10)
             call fill
             call fill
             end
             subroutine fill
             do i = 1, 10
               x(i) = 1
             enddo
             end",
        )
        .unwrap();
        inline_small_procedures(&mut p, 50);
        let main_body = p.procedure(p.main()).body.clone();
        let loops: Vec<StmtId> = p
            .stmts_in(&main_body)
            .into_iter()
            .filter(|s| p.stmt(*s).kind.is_loop())
            .collect();
        assert_eq!(loops.len(), 2);
        assert_ne!(loops[0], loops[1]);
    }
}
