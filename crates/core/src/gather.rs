//! Index-gathering loop recognition (§4, Fig. 14).
//!
//! An *index-gathering loop* collects the indices of interesting elements
//! into an index array:
//!
//! ```text
//! q = 0
//! do i = 1, p
//!   if (x(i) > 0) then
//!     q = q + 1
//!     ind(q) = i
//!   endif
//! enddo
//! ```
//!
//! After such a loop, the values stored in `ind(c+1 : q)` are
//! **injective**, **monotonically increasing**, and **bounded** by the
//! loop bounds — exactly the facts the privatization and dependence
//! clients need for subsequent `z(ind(j))` accesses. The five conditions
//! of §4 are checked here; conditions 2–3 reuse the consecutively-written
//! analysis, condition 5 is a bounded DFS.

use crate::ctx::AnalysisCtx;
use crate::single_indexed::{consecutively_written, single_indexed_arrays};
use irr_frontend::{Expr, LValue, StmtId, StmtKind, VarId};
use irr_graph::bdfs::{bounded_dfs, BdfsOutcome};
use irr_graph::{CfgNodeId, CfgNodeKind};
use irr_symbolic::SymExpr;

/// A recognized index-gathering loop.
#[derive(Clone, Debug)]
pub struct IndexGatherInfo {
    /// The gathering `do` loop.
    pub loop_stmt: StmtId,
    /// The index array being filled (`ind`).
    pub array: VarId,
    /// The counter variable (`q`).
    pub counter: VarId,
    /// The loop induction variable whose values are gathered.
    pub loop_var: VarId,
    /// Symbolic lower bound of the gathered *values* (the loop lower
    /// bound).
    pub value_lo: SymExpr,
    /// Symbolic upper bound of the gathered *values* (the loop upper
    /// bound).
    pub value_hi: SymExpr,
}

/// Checks whether `loop_stmt` is an index-gathering loop for some array,
/// returning every `(array, counter)` pair that qualifies.
///
/// Conditions (§4): the loop is a unit-step `do`; the index array is
/// single-indexed by the counter and consecutively written; every
/// assignment stores the loop index; and no assignment reaches another
/// without passing the loop header (so values are strictly increasing
/// and injective).
pub fn index_gathering_info(ctx: &AnalysisCtx<'_>, loop_stmt: StmtId) -> Vec<IndexGatherInfo> {
    let program = ctx.program;
    let StmtKind::Do { var, .. } = &program.stmt(loop_stmt).kind else {
        return Vec::new();
    };
    if !ctx.unit_step(loop_stmt) {
        return Vec::new();
    }
    let Some((loop_var, lo_sym, hi_sym)) = ctx.do_bounds_sym(loop_stmt) else {
        return Vec::new();
    };
    debug_assert_eq!(loop_var, *var);
    let mut out = Vec::new();
    for si in single_indexed_arrays(ctx, loop_stmt) {
        // Condition 3: consecutively written (also validates that the
        // counter only increments).
        if consecutively_written(ctx, loop_stmt, si.array, si.index).is_none() {
            continue;
        }
        // Condition 4: every assignment of the index array stores the
        // loop index.
        let mut assigns: Vec<StmtId> = Vec::new();
        let mut all_store_index = true;
        for &s in &ctx.loop_table(loop_stmt).stmts {
            if let StmtKind::Assign {
                lhs: LValue::Element(a, _),
                rhs,
            } = &program.stmt(s).kind
            {
                if *a == si.array {
                    assigns.push(s);
                    if !matches!(rhs, Expr::Var(v) if *v == loop_var) {
                        all_store_index = false;
                    }
                }
            }
        }
        if assigns.is_empty() || !all_store_index {
            continue;
        }
        // Condition 5: one assignment cannot reach another without first
        // reaching the do header — each iteration stores at most once.
        let cfg = ctx.loop_cfg(loop_stmt);
        let is_header =
            |n: CfgNodeId| matches!(cfg.kind(n), CfgNodeKind::LoopHead(s) if s == loop_stmt);
        let is_assign =
            |n: CfgNodeId| matches!(cfg.kind(n), CfgNodeKind::Stmt(s) if assigns.contains(&s));
        let starts: Vec<CfgNodeId> = cfg.nodes().filter(|n| is_assign(*n)).collect();
        let mut ok = true;
        for s in starts {
            if bounded_dfs(&cfg, s, is_header, is_assign) == BdfsOutcome::Failed {
                ok = false;
                break;
            }
        }
        if !ok {
            continue;
        }
        out.push(IndexGatherInfo {
            loop_stmt,
            array: si.array,
            counter: si.index,
            loop_var,
            value_lo: lo_sym.clone(),
            value_hi: hi_sym.clone(),
        });
    }
    out
}

/// Scans a whole procedure body (transitively) for index-gathering loops.
pub fn find_index_gathering_loops(ctx: &AnalysisCtx<'_>, body: &[StmtId]) -> Vec<IndexGatherInfo> {
    let mut out = Vec::new();
    for s in ctx.program.stmts_in(body) {
        if matches!(ctx.program.stmt(s).kind, StmtKind::Do { .. }) {
            out.extend(index_gathering_info(ctx, s));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_frontend::parse_program;
    use irr_frontend::Program;

    fn loops_of(p: &Program) -> Vec<StmtId> {
        p.stmts_in(&p.procedure(p.main()).body)
            .into_iter()
            .filter(|s| p.stmt(*s).kind.is_loop())
            .collect()
    }

    #[test]
    fn fig14_gathering_loop_is_recognized() {
        let p = parse_program(
            "program t
             integer i, q, p, ind(100)
             real x(100)
             q = 0
             do i = 1, p
               if (x(i) > 0) then
                 q = q + 1
                 ind(q) = i
               endif
             enddo
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let l = loops_of(&p)[0];
        let infos = index_gathering_info(&ctx, l);
        assert_eq!(infos.len(), 1);
        let info = &infos[0];
        assert_eq!(p.symbols.name(info.array), "ind");
        assert_eq!(p.symbols.name(info.counter), "q");
        assert_eq!(info.value_lo, SymExpr::int(1));
        let pv = p.symbols.lookup("p").unwrap();
        assert_eq!(info.value_hi, SymExpr::var(pv));
    }

    #[test]
    fn non_index_rhs_is_rejected() {
        let p = parse_program(
            "program t
             integer i, q, n, ind(100)
             do i = 1, n
               q = q + 1
               ind(q) = i + 1
             enddo
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        assert!(index_gathering_info(&ctx, loops_of(&p)[0]).is_empty());
    }

    #[test]
    fn two_stores_per_iteration_are_rejected() {
        // Storing twice per iteration breaks injectivity (same i twice).
        let p = parse_program(
            "program t
             integer i, q, n, ind(100)
             real x(100)
             do i = 1, n
               if (x(i) > 0) then
                 q = q + 1
                 ind(q) = i
                 q = q + 1
                 ind(q) = i
               endif
             enddo
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        assert!(index_gathering_info(&ctx, loops_of(&p)[0]).is_empty());
    }

    #[test]
    fn non_consecutive_counter_is_rejected() {
        let p = parse_program(
            "program t
             integer i, q, n, ind(100)
             do i = 1, n
               q = q + 2
               ind(q) = i
             enddo
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        assert!(index_gathering_info(&ctx, loops_of(&p)[0]).is_empty());
    }

    #[test]
    fn find_scans_nested_loops() {
        let p = parse_program(
            "program t
             integer i, k, q, n, m, ind(100)
             real x(100)
             do k = 1, m
               q = 0
               do i = 1, n
                 if (x(i) > 0) then
                   q = q + 1
                   ind(q) = i
                 endif
               enddo
             enddo
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let body = p.procedure(p.main()).body.clone();
        let found = find_index_gathering_loops(&ctx, &body);
        assert_eq!(found.len(), 1);
        assert_eq!(p.symbols.name(found[0].array), "ind");
    }
}
