//! Irregular single-indexed array access analysis (§2).
//!
//! An array is *single-indexed* in a loop when it is always subscripted
//! by the same scalar variable throughout the loop (like `x(p)` in the
//! `while` loop of Fig. 1(a)). The analyses here trace how the index
//! variable evolves between consecutive accesses using the bounded DFS
//! of Fig. 2.

use crate::ctx::AnalysisCtx;
use irr_frontend::{Expr, LValue, StmtId, StmtKind, VarId};
use irr_graph::bdfs::{bounded_dfs, BdfsOutcome};
use irr_graph::{Cfg, CfgNodeId, CfgNodeKind};
use irr_symbolic::{expr_to_sym, SymExpr};

/// A single-indexed array in a region: `array` is only ever subscripted
/// by `index`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SingleIndexed {
    /// The host array.
    pub array: VarId,
    /// The single index variable.
    pub index: VarId,
}

/// Classification of one definition of an index variable inside a region
/// (§2.3 allows exactly increments, decrements, and resets to a constant
/// bottom).
#[derive(Clone, PartialEq, Debug)]
pub enum IndexDefKind {
    /// `p = p + 1`.
    Increment,
    /// `p = p - 1`.
    Decrement,
    /// `p = c` for a region-invariant expression `c`.
    SetConst(SymExpr),
    /// Anything else.
    Other,
}

/// Classifies an assignment to `var`; `None` if `stmt` does not assign
/// `var`.
pub fn classify_index_def(ctx: &AnalysisCtx<'_>, stmt: StmtId, var: VarId) -> Option<IndexDefKind> {
    match &ctx.program.stmt(stmt).kind {
        StmtKind::Assign {
            lhs: LValue::Scalar(v),
            rhs,
        } if *v == var => {
            let Some(rhs_sym) = expr_to_sym(rhs) else {
                return Some(IndexDefKind::Other);
            };
            let p = SymExpr::var(var);
            if rhs_sym == p.add(&SymExpr::int(1)) {
                return Some(IndexDefKind::Increment);
            }
            if rhs_sym == p.sub(&SymExpr::int(1)) {
                return Some(IndexDefKind::Decrement);
            }
            if !rhs_sym.mentions_var(var) {
                return Some(IndexDefKind::SetConst(rhs_sym));
            }
            Some(IndexDefKind::Other)
        }
        StmtKind::Do { var: v, .. } if *v == var => Some(IndexDefKind::Other),
        _ => None,
    }
}

/// All definitions of `var` among `stmts` (a region's flattened
/// statements), with their classification.
pub fn index_defs(
    ctx: &AnalysisCtx<'_>,
    stmts: &[StmtId],
    var: VarId,
) -> Vec<(StmtId, IndexDefKind)> {
    stmts
        .iter()
        .filter_map(|&s| Some((s, classify_index_def(ctx, s, var)?)))
        .collect()
}

/// Finds the arrays that are single-indexed inside the body of
/// `loop_stmt` (§2): 1-D arrays whose every access uses the same bare
/// scalar subscript. The loop's own induction variable does not count —
/// accesses through it are regular.
pub fn single_indexed_arrays(ctx: &AnalysisCtx<'_>, loop_stmt: StmtId) -> Vec<SingleIndexed> {
    let loop_var = match &ctx.program.stmt(loop_stmt).kind {
        StmtKind::Do { var, .. } => Some(*var),
        _ => None,
    };
    ctx.loop_table(loop_stmt)
        .single_indexed
        .iter()
        .filter(|si| Some(si.index) != loop_var) // regular access, not irregular
        .copied()
        .collect()
}

/// Result of the consecutively-written analysis (§2.2): inside the loop,
/// all writes to `array` go through `index`, the index only moves up by
/// one, and every increment is followed by a write before the next
/// increment (and before loop exit) — so the region
/// `[index_at_entry + 1 : index_at_exit]` is densely written.
#[derive(Clone, Debug)]
pub struct ConsecutivelyWritten {
    /// The host array.
    pub array: VarId,
    /// The index variable.
    pub index: VarId,
    /// The `p = p + 1` statements.
    pub increments: Vec<StmtId>,
}

/// Checks whether single-indexed `array` (indexed by `index`) is
/// consecutively written in `loop_stmt` (§2.2).
///
/// The algorithm is the one in the paper: first check that `index` is
/// never defined other than by `p = p + 1` inside the loop; then run a
/// bounded DFS from every increment, bounding at writes of `array(index)`
/// and failing at increments — if some path reaches a second increment
/// (or the loop exit) without writing the array, there may be holes.
pub fn consecutively_written(
    ctx: &AnalysisCtx<'_>,
    loop_stmt: StmtId,
    array: VarId,
    index: VarId,
) -> Option<ConsecutivelyWritten> {
    let table = ctx.loop_table(loop_stmt);
    // Calls inside the loop must not touch the index or the array.
    if ctx.calls_touch_var(&table.callees, index) || ctx.calls_touch_var(&table.callees, array) {
        return None;
    }
    let defs = index_defs(ctx, &table.stmts, index);
    if defs.is_empty() || !defs.iter().all(|(_, k)| *k == IndexDefKind::Increment) {
        return None;
    }
    let increments: Vec<StmtId> = defs.into_iter().map(|(s, _)| s).collect();
    // Writes of the array must all be through `index` (single-indexed
    // callers guarantee this, but re-check writes specifically).
    for acc in table.accesses_of(array).filter(|acc| acc.is_write) {
        if !matches!(acc.subscripts, [Expr::Var(v)] if *v == index) {
            return None;
        }
    }
    let cfg = ctx.loop_cfg(loop_stmt);
    let inc_nodes: Vec<CfgNodeId> =
        cfg.nodes_where(|k| matches!(k, CfgNodeKind::Stmt(s) if increments.contains(&s)));
    let is_write = |n: CfgNodeId| ctx.node_writes_elem(&cfg, n, array, index);
    let is_inc_or_exit = |n: CfgNodeId| {
        n == Cfg::EXIT || matches!(cfg.kind(n), CfgNodeKind::Stmt(s) if increments.contains(&s))
    };
    for &inc in &inc_nodes {
        // From each increment, every path must hit a write of
        // array(index) before reaching another increment or the region
        // exit (the exit case closes the "hole at the end" that a purely
        // increment-to-increment check would miss).
        if bounded_dfs(&cfg, inc, is_write, is_inc_or_exit) == BdfsOutcome::Failed {
            return None;
        }
    }
    Some(ConsecutivelyWritten {
        array,
        index,
        increments,
    })
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
            .expect("program has a loop")
    }

    fn nth_loop(p: &Program, k: usize) -> StmtId {
        p.stmts_in(&p.procedure(p.main()).body)
            .into_iter()
            .filter(|s| p.stmt(*s).kind.is_loop())
            .nth(k)
            .expect("program has enough loops")
    }

    #[test]
    fn detects_single_indexed_array() {
        let p = parse_program(
            "program t
             integer i, n, p
             real x(100), y(100)
             do i = 1, n
               p = p + 1
               x(p) = y(i)
             enddo
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let l = first_loop(&p);
        let si = single_indexed_arrays(&ctx, l);
        let x = p.symbols.lookup("x").unwrap();
        let pv = p.symbols.lookup("p").unwrap();
        assert!(si.contains(&SingleIndexed {
            array: x,
            index: pv
        }));
        // y(i) is regular (loop index), so it must not be reported.
        let y = p.symbols.lookup("y").unwrap();
        assert!(!si.iter().any(|s| s.array == y));
    }

    #[test]
    fn mixed_subscripts_disqualify() {
        let p = parse_program(
            "program t
             integer i, n, p, q
             real x(100)
             do i = 1, n
               x(p) = 1
               x(q) = 2
             enddo
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let si = single_indexed_arrays(&ctx, first_loop(&p));
        assert!(si.is_empty());
    }

    #[test]
    fn classify_defs() {
        let p = parse_program(
            "program t
             integer p
             p = p + 1
             p = p - 1
             p = 0
             p = p * 2
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let pv = p.symbols.lookup("p").unwrap();
        let body = p.procedure(p.main()).body.clone();
        let kinds: Vec<IndexDefKind> = index_defs(&ctx, &body, pv)
            .into_iter()
            .map(|(_, k)| k)
            .collect();
        assert_eq!(
            kinds,
            vec![
                IndexDefKind::Increment,
                IndexDefKind::Decrement,
                IndexDefKind::SetConst(SymExpr::int(0)),
                IndexDefKind::Other
            ]
        );
    }

    #[test]
    fn fig1a_while_loop_is_consecutively_written() {
        // The motivating example of Fig. 1(a): inside the while loop the
        // array x is written at x(p) immediately after each p = p + 1.
        let p = parse_program(
            "program t
             integer i, k, n, p, link(100, 10), cond(10, 100)
             real x(100), y(100), z(10, 100)
             do k = 1, n
               p = 0
               i = link(1, k)
               while (i /= 0)
                 p = p + 1
                 x(p) = y(i)
                 i = link(i, k)
                 if (cond(k, i) > 0) then
                   p = p + 1
                   x(p) = y(i)
                 endif
               endwhile
               do j = 1, p
                 z(k, j) = x(j)
               enddo
             enddo
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let x = p.symbols.lookup("x").unwrap();
        let pv = p.symbols.lookup("p").unwrap();
        // The while loop is the second loop in pre-order.
        let wl = nth_loop(&p, 1);
        assert!(matches!(p.stmt(wl).kind, StmtKind::While { .. }));
        let cw = consecutively_written(&ctx, wl, x, pv).expect("x is consecutively written");
        assert_eq!(cw.increments.len(), 2);
    }

    #[test]
    fn conditional_write_breaks_consecutiveness() {
        // p=p+1 followed by a *conditional* write leaves holes.
        let p = parse_program(
            "program t
             integer i, n, p, c
             real x(100)
             do i = 1, n
               p = p + 1
               if (c > 0) then
                 x(p) = 1
               endif
             enddo
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let x = p.symbols.lookup("x").unwrap();
        let pv = p.symbols.lookup("p").unwrap();
        assert!(consecutively_written(&ctx, first_loop(&p), x, pv).is_none());
    }

    #[test]
    fn decrement_breaks_consecutiveness() {
        let p = parse_program(
            "program t
             integer i, n, p
             real x(100)
             do i = 1, n
               p = p + 1
               x(p) = 1
               p = p - 1
             enddo
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let x = p.symbols.lookup("x").unwrap();
        let pv = p.symbols.lookup("p").unwrap();
        assert!(consecutively_written(&ctx, first_loop(&p), x, pv).is_none());
    }

    #[test]
    fn two_increments_in_a_row_break_consecutiveness() {
        let p = parse_program(
            "program t
             integer i, n, p
             real x(100)
             do i = 1, n
               p = p + 1
               p = p + 1
               x(p) = 1
             enddo
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let x = p.symbols.lookup("x").unwrap();
        let pv = p.symbols.lookup("p").unwrap();
        assert!(consecutively_written(&ctx, first_loop(&p), x, pv).is_none());
    }

    #[test]
    fn call_touching_index_disqualifies() {
        let p = parse_program(
            "program t
             integer i, n, p
             real x(100)
             do i = 1, n
               p = p + 1
               x(p) = 1
               call bump
             enddo
             end
             subroutine bump
             p = p + 1
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let x = p.symbols.lookup("x").unwrap();
        let pv = p.symbols.lookup("p").unwrap();
        // The loop is nth_loop 0 in main.
        assert!(consecutively_written(&ctx, first_loop(&p), x, pv).is_none());
    }

    #[test]
    fn write_then_increment_order_is_rejected() {
        // x(p) written before the increment: holes at the bottom.
        // After p=p+1 the path wraps to the next iteration's write, so
        // the simple wrap check passes, but the exit check fails: the
        // last increment is never followed by a write.
        let p = parse_program(
            "program t
             integer i, n, p
             real x(100)
             do i = 1, n
               x(p) = 1
               p = p + 1
             enddo
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let x = p.symbols.lookup("x").unwrap();
        let pv = p.symbols.lookup("p").unwrap();
        assert!(consecutively_written(&ctx, first_loop(&p), x, pv).is_none());
    }
}
