//! Array-stack access analysis (§2.3, Table 1).
//!
//! Many programs implement stacks in arrays (`t(p)` with `p` the
//! top-of-stack index). The analysis checks, with bounded DFS runs per
//! Table 1, that accesses follow the last-written-first-read discipline:
//!
//! | from            | bound set `S_bound`              | failed set `S_failed`            |
//! |-----------------|----------------------------------|----------------------------------|
//! | `p = p + 1`     | `{x(p) = .., p = C_bottom}`      | `{p = p+1, p = p-1, .. = x(p)}`  |
//! | `p = p - 1`     | `{p = p+1, .. = x(p), p = C_bottom}` | `{p = p-1, x(p) = ..}`       |
//! | `x(p) = ..`     | `{p = p+1, .. = x(p), p = C_bottom}` | `{p = p-1, x(p) = ..}`       |
//! | `.. = x(p)`     | `{p = p-1, p = C_bottom}`        | `{p = p+1, x(p) = .., .. = x(p)}`|
//!
//! (The decrement row allows a following *read* — after a pop, peeking
//! the new top reads an element that was pushed earlier in the same
//! iteration, which preserves written-before-read; Barnes–Hut-style tree
//! walks rely on this.)
//!
//! Intuitively this ensures `p` is set to `C_bottom` before use, a push
//! increments then writes, a pop reads then decrements, and the value of
//! `p` never escapes the stack discipline.

use crate::ctx::AnalysisCtx;
use crate::single_indexed::{classify_index_def, index_defs, IndexDefKind};
use irr_frontend::{StmtId, VarId};
use irr_graph::bdfs::{bounded_dfs, BdfsOutcome};
use irr_graph::{CfgNodeId, CfgNodeKind};
use irr_symbolic::SymExpr;

/// A verified array stack in a loop body.
#[derive(Clone, Debug)]
pub struct StackAccess {
    /// The stack array.
    pub array: VarId,
    /// The top-of-stack index variable.
    pub index: VarId,
    /// The constant the index is reset to (`C_bottom`).
    pub bottom: SymExpr,
    /// Whether the index is reset to `C_bottom` at the beginning of every
    /// iteration of the loop before any other use — the §2.3 condition
    /// for privatizing the stack array.
    pub resets_each_iteration: bool,
}

/// Per-node classification within the stack discipline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct NodeClass {
    inc: bool,
    dec: bool,
    set_bottom: bool,
    write: bool,
    read: bool,
}

/// Checks whether `array` (single-indexed by `index`) is used as a stack
/// inside `loop_stmt`.
pub fn stack_access(
    ctx: &AnalysisCtx<'_>,
    loop_stmt: StmtId,
    array: VarId,
    index: VarId,
) -> Option<StackAccess> {
    let table = ctx.loop_table(loop_stmt);
    if ctx.calls_touch_var(&table.callees, index) || ctx.calls_touch_var(&table.callees, array) {
        return None;
    }
    // 1. Index defined only as p+1, p-1, or p = C_bottom, with a single
    //    C_bottom value.
    let defs = index_defs(ctx, &table.stmts, index);
    if defs.is_empty() {
        return None;
    }
    let mut bottom: Option<SymExpr> = None;
    for (_, kind) in &defs {
        match kind {
            IndexDefKind::Increment | IndexDefKind::Decrement => {}
            IndexDefKind::SetConst(c) => match &bottom {
                None => bottom = Some(c.clone()),
                Some(b) if b == c => {}
                _ => return None,
            },
            IndexDefKind::Other => return None,
        }
    }
    // Writes of the array must all be x(p).
    for acc in table.accesses_of(array) {
        if !matches!(acc.subscripts, [irr_frontend::Expr::Var(v)] if *v == index) {
            return None;
        }
    }
    let cfg = ctx.loop_cfg(loop_stmt);
    let classify = |n: CfgNodeId| -> NodeClass {
        let mut c = NodeClass {
            inc: false,
            dec: false,
            set_bottom: false,
            write: false,
            read: false,
        };
        if let CfgNodeKind::Stmt(s) = cfg.kind(n) {
            match classify_index_def(ctx, s, index) {
                Some(IndexDefKind::Increment) => c.inc = true,
                Some(IndexDefKind::Decrement) => c.dec = true,
                Some(IndexDefKind::SetConst(_)) => c.set_bottom = true,
                _ => {}
            }
            if ctx.node_writes_elem(&cfg, n, array, index) {
                c.write = true;
            }
        }
        if ctx.node_reads_elem(&cfg, n, array, index) {
            c.read = true;
        }
        c
    };
    let classes: Vec<NodeClass> = cfg.nodes().map(classify).collect();
    let cls = |n: CfgNodeId| classes[n.index()];

    // 2. Table 1 checks from every occurrence of each statement kind.
    type ClassPred = fn(NodeClass) -> bool;
    let checks: [(ClassPred, ClassPred, ClassPred); 4] = [
        // from p = p + 1
        (
            |c| c.inc,
            |c| c.write || c.set_bottom,
            |c| c.inc || c.dec || c.read,
        ),
        // from p = p - 1 (a following read peeks the new top: allowed)
        (
            |c| c.dec,
            |c| c.inc || c.read || c.set_bottom,
            |c| c.dec || c.write,
        ),
        // from x(p) = ..
        (
            |c| c.write,
            |c| c.inc || c.read || c.set_bottom,
            |c| c.dec || c.write,
        ),
        // from .. = x(p)
        (
            |c| c.read,
            |c| c.dec || c.set_bottom,
            |c| c.inc || c.write || c.read,
        ),
    ];
    for (is_start, in_bound, in_failed) in checks {
        let starts: Vec<CfgNodeId> = cfg.nodes().filter(|n| is_start(cls(*n))).collect();
        for s in starts {
            if bounded_dfs(&cfg, s, |n| in_bound(cls(n)), |n| in_failed(cls(n)))
                == BdfsOutcome::Failed
            {
                return None;
            }
        }
    }
    let bottom = bottom?; // a stack must have a reset somewhere

    // 3. Reset discipline: from the loop header, the index must be set to
    //    C_bottom before any other index operation or array access.
    let head = cfg
        .nodes_where(|k| matches!(k, CfgNodeKind::LoopHead(s) if s == loop_stmt))
        .into_iter()
        .next()?;
    let resets = bounded_dfs(
        &cfg,
        head,
        |n| cls(n).set_bottom,
        |n| {
            let c = cls(n);
            c.inc || c.dec || c.write || c.read
        },
    ) == BdfsOutcome::Succeeded;

    Some(StackAccess {
        array,
        index,
        bottom,
        resets_each_iteration: resets,
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

    /// The Fig. 1(b)-style array stack: reset, push loop, conditional
    /// pops.
    fn fig1b_src() -> &'static str {
        "program t
         integer i, j, n, m, p, cond(100)
         real t2(100), work(100)
         do i = 1, n
           p = 0
           do j = 1, m
             p = p + 1
             t2(p) = work(j)
             if (cond(j) > 0) then
               if (p >= 1) then
                 work(j) = t2(p)
                 p = p - 1
               endif
             endif
           enddo
         enddo
         end"
    }

    #[test]
    fn fig1b_stack_is_recognized() {
        let p = parse_program(fig1b_src()).unwrap();
        let ctx = AnalysisCtx::new(&p);
        let t2 = p.symbols.lookup("t2").unwrap();
        let pv = p.symbols.lookup("p").unwrap();
        let outer = first_loop(&p);
        let st = stack_access(&ctx, outer, t2, pv).expect("t2 is a stack");
        assert_eq!(st.bottom, SymExpr::int(0));
        assert!(st.resets_each_iteration);
    }

    #[test]
    fn pop_before_push_fails() {
        // Reading x(p) right after the reset (before any push) violates
        // the read row of Table 1 only through the decrement path; the
        // failure here is the read following the reset path without a
        // push... the discipline check that catches it: from `.. = x(p)`,
        // a path reaches another read or the loop wrap without a
        // decrement bound. Build a case where a read follows a read.
        let src = "program t
             integer i, n, p
             real x(100), y(100)
             do i = 1, n
               p = 0
               p = p + 1
               x(p) = 1
               y(i) = x(p)
               y(i) = x(p) + 1
             enddo
             end";
        let p = parse_program(src).unwrap();
        let ctx = AnalysisCtx::new(&p);
        let x = p.symbols.lookup("x").unwrap();
        let pv = p.symbols.lookup("p").unwrap();
        // Two consecutive reads: from the first read, the adjacent second
        // read is in S_failed.
        assert!(stack_access(&ctx, first_loop(&p), x, pv).is_none());
    }

    #[test]
    fn push_without_write_fails() {
        let src = "program t
             integer i, n, p
             real x(100), y(100)
             do i = 1, n
               p = 0
               p = p + 1
               p = p + 1
               x(p) = 1
             enddo
             end";
        let p = parse_program(src).unwrap();
        let ctx = AnalysisCtx::new(&p);
        let x = p.symbols.lookup("x").unwrap();
        let pv = p.symbols.lookup("p").unwrap();
        assert!(stack_access(&ctx, first_loop(&p), x, pv).is_none());
    }

    #[test]
    fn two_different_bottoms_fail() {
        let src = "program t
             integer i, n, p, c
             real x(100)
             do i = 1, n
               if (c > 0) then
                 p = 0
               else
                 p = 5
               endif
               p = p + 1
               x(p) = 1
             enddo
             end";
        let p = parse_program(src).unwrap();
        let ctx = AnalysisCtx::new(&p);
        let x = p.symbols.lookup("x").unwrap();
        let pv = p.symbols.lookup("p").unwrap();
        assert!(stack_access(&ctx, first_loop(&p), x, pv).is_none());
    }

    #[test]
    fn missing_reset_is_not_privatizable() {
        // A well-formed stack that never resets: the Table 1 discipline
        // holds but resets_each_iteration must be false... without any
        // SetConst def there is no C_bottom at all, so it is not
        // recognized as a stack.
        let src = "program t
             integer i, n, p
             real x(100), y(100)
             do i = 1, n
               p = p + 1
               x(p) = 1
               y(i) = x(p)
               p = p - 1
             enddo
             end";
        let p = parse_program(src).unwrap();
        let ctx = AnalysisCtx::new(&p);
        let x = p.symbols.lookup("x").unwrap();
        let pv = p.symbols.lookup("p").unwrap();
        assert!(stack_access(&ctx, first_loop(&p), x, pv).is_none());
    }

    #[test]
    fn barnes_hut_style_traversal_stack() {
        // TREE/ACCEL-style tree walk with an explicit stack: push root,
        // loop while stack nonempty popping and pushing children.
        let src = "program t
             integer i, n, sptr, child(100), nchild(100), node
             real stack(100), acc(100)
             do i = 1, n
               sptr = 0
               sptr = sptr + 1
               stack(sptr) = 1
               while (sptr >= 1)
                 node = int(stack(sptr))
                 sptr = sptr - 1
                 acc(i) = acc(i) + node
                 if (nchild(node) > 0) then
                   sptr = sptr + 1
                   stack(sptr) = child(node)
                 endif
               endwhile
             enddo
             end";
        let p = parse_program(src).unwrap();
        let ctx = AnalysisCtx::new(&p);
        let st = p.symbols.lookup("stack").unwrap();
        let sptr = p.symbols.lookup("sptr").unwrap();
        let outer = first_loop(&p);
        let info = stack_access(&ctx, outer, st, sptr).expect("stack recognized");
        assert!(info.resets_each_iteration);
        assert_eq!(info.bottom, SymExpr::int(0));
    }
}
