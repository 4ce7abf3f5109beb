//! Shared analysis context: the program, its graphs, and common helpers.

use crate::single_indexed::SingleIndexed;
use irr_frontend::visit::{stmt_array_accesses, ArrayAccess};
use irr_frontend::{Expr, LValue, ProcId, Program, StmtId, StmtKind, VarId};
use irr_graph::{Cfg, CfgNodeId, CfgNodeKind, Hcg};
use irr_symbolic::{expr_to_sym, RangeEnv, SymExpr};
use std::cell::{Cell, OnceCell};
use std::rc::Rc;

thread_local! {
    static HCG_BUILDS: Cell<u64> = const { Cell::new(0) };
}

/// How many HCGs [`AnalysisCtx::hcg`] has built on the calling thread:
/// a compile whose analyses never asked for the graph adds 0, any other
/// exactly 1.
pub fn hcg_builds() -> u64 {
    HCG_BUILDS.with(Cell::get)
}

/// What the statements (transitively) inside one statement list touch,
/// from a single walk. Every list is in program pre-order, which the
/// verdicts' array and blocker order (hence `emit_annotated` and the lint
/// output) inherits.
pub struct BodyTable<'p> {
    /// The statements themselves ([`Program::stmts_in`]).
    pub stmts: Vec<StmtId>,
    /// Every array access, subscripts borrowed from the program
    /// ([`irr_frontend::visit::collect_array_accesses`]).
    pub accesses: Vec<ArrayAccess<'p>>,
    /// Arrays written, by first write
    /// ([`irr_frontend::visit::arrays_written_in`]).
    pub written_arrays: Vec<VarId>,
    /// Scalars assigned, `do` variables included, by first assignment
    /// ([`irr_frontend::visit::scalars_assigned_in`]).
    pub assigned_scalars: Vec<VarId>,
    /// Callees of the `call` statements, by first call.
    pub callees: Vec<ProcId>,
    /// Whether some statement is a `print`.
    pub has_io: bool,
    /// Arrays whose every access is 1-D through the same bare scalar, by
    /// first access (§2's single-indexed arrays, before a loop's own
    /// induction variable is excluded).
    pub single_indexed: Vec<SingleIndexed>,
}

impl<'p> BodyTable<'p> {
    /// Walks `body` once.
    pub fn of(program: &'p Program, body: &[StmtId]) -> BodyTable<'p> {
        let stmts = program.stmts_in(body);
        let mut t = BodyTable {
            accesses: Vec::new(),
            written_arrays: Vec::new(),
            assigned_scalars: Vec::new(),
            callees: Vec::new(),
            has_io: false,
            single_indexed: Vec::new(),
            stmts,
        };
        fn note<T: PartialEq>(seen: &mut Vec<T>, x: T) {
            if !seen.contains(&x) {
                seen.push(x);
            }
        }
        for &s in &t.stmts {
            match &program.stmt(s).kind {
                StmtKind::Assign { lhs, .. } => match lhs {
                    LValue::Scalar(v) => note(&mut t.assigned_scalars, *v),
                    LValue::Element(a, _) => note(&mut t.written_arrays, *a),
                },
                StmtKind::Do { var, .. } => note(&mut t.assigned_scalars, *var),
                StmtKind::Call { proc } => note(&mut t.callees, *proc),
                StmtKind::Print { .. } => t.has_io = true,
                _ => {}
            }
            stmt_array_accesses(program, s, &mut t.accesses);
        }
        // `None`: some access is not `a(scalar)` or uses another scalar.
        let mut index_of: Vec<(VarId, Option<VarId>)> = Vec::new();
        for acc in &t.accesses {
            let idx = match acc.subscripts {
                [Expr::Var(v)] => Some(*v),
                _ => None,
            };
            match index_of.iter_mut().find(|(a, _)| *a == acc.array) {
                None => index_of.push((acc.array, idx)),
                Some((_, slot)) if *slot != idx => *slot = None,
                Some(_) => {}
            }
        }
        t.single_indexed = index_of
            .into_iter()
            .filter_map(|(array, idx)| Some(SingleIndexed { array, index: idx? }))
            .collect();
        t
    }

    /// The accesses to `array`, in order.
    pub fn accesses_of(&self, array: VarId) -> impl Iterator<Item = &ArrayAccess<'p>> {
        self.accesses.iter().filter(move |a| a.array == array)
    }

    /// Whether some statement reads an element of `array`.
    pub fn reads(&self, array: VarId) -> bool {
        self.accesses_of(array).any(|a| !a.is_write)
    }
}

/// Analysis context over one program: builds the hierarchical control
/// graph on first demand, memoizes per-loop CFGs and body tables, and
/// provides the common "what does this statement read/write" and "what
/// ranges hold here" helpers all the analyses share.
pub struct AnalysisCtx<'p> {
    /// The program under analysis.
    pub program: &'p Program,
    /// The hierarchical control graph (§3.2.1), see [`Self::hcg`].
    hcg: OnceCell<Hcg>,
    /// Per statement, the index in `chains` of its enclosing-loop chain;
    /// the statements directly under one loop share one.
    chain_of: Vec<u32>,
    /// Enclosing-loop chains, innermost first; `chains[0]` is empty.
    chains: Vec<Vec<StmtId>>,
    /// Procedure containing each statement.
    proc_of: Vec<Option<ProcId>>,
    cfgs: Vec<OnceCell<Rc<Cfg>>>,
    loop_tables: Vec<OnceCell<Box<BodyTable<'p>>>>,
    range_envs: Vec<OnceCell<Box<RangeEnv>>>,
    /// The environment outside every loop: no facts.
    no_ranges: RangeEnv,
    /// Per array, the statements that read an element of it.
    readers: OnceCell<Vec<Vec<StmtId>>>,
}

impl<'p> AnalysisCtx<'p> {
    /// Builds the context for `program`; the HCG waits for its first
    /// use.
    pub fn new(program: &'p Program) -> AnalysisCtx<'p> {
        let n = program.stmts.len();
        let mut chain_of = vec![0u32; n];
        let mut chains: Vec<Vec<StmtId>> = vec![Vec::new()];
        let mut proc_of = vec![None; n];
        let mut stack: Vec<(StmtId, u32)> = Vec::new();
        for (i, proc) in program.procedures.iter().enumerate() {
            let pid = ProcId(i as u32);
            stack.extend(proc.body.iter().map(|s| (*s, 0)));
            while let Some((s, chain)) = stack.pop() {
                chain_of[s.index()] = chain;
                proc_of[s.index()] = Some(pid);
                let mut push = |body: &[StmtId], chain| {
                    stack.extend(body.iter().map(|b| (*b, chain)));
                };
                match &program.stmt(s).kind {
                    StmtKind::Do { body, .. } | StmtKind::While { body, .. } => {
                        let mut inner = Vec::with_capacity(chains[chain as usize].len() + 1);
                        inner.push(s);
                        inner.extend_from_slice(&chains[chain as usize]);
                        chains.push(inner);
                        push(body, chains.len() as u32 - 1);
                    }
                    StmtKind::If {
                        then_body,
                        else_body,
                        ..
                    } => {
                        push(then_body, chain);
                        push(else_body, chain);
                    }
                    _ => {}
                }
            }
        }
        AnalysisCtx {
            program,
            hcg: OnceCell::new(),
            chain_of,
            chains,
            proc_of,
            cfgs: std::iter::repeat_with(OnceCell::new).take(n).collect(),
            loop_tables: std::iter::repeat_with(OnceCell::new).take(n).collect(),
            range_envs: std::iter::repeat_with(OnceCell::new).take(n).collect(),
            no_ranges: RangeEnv::new(),
            readers: OnceCell::new(),
        }
    }

    /// The hierarchical control graph, built on the first call. Only the
    /// property solver and the routine summaries walk it, so a compile
    /// that asks no property query of a one-routine program never builds
    /// it.
    pub fn hcg(&self) -> &Hcg {
        self.hcg.get_or_init(|| {
            HCG_BUILDS.with(|n| n.set(n.get() + 1));
            Hcg::build(self.program)
        })
    }

    /// Enclosing loop statements of `stmt`, innermost first.
    pub fn enclosing_loops(&self, stmt: StmtId) -> &[StmtId] {
        &self.chains[self.chain_of[stmt.index()] as usize]
    }

    /// The procedure containing `stmt`.
    pub fn proc_of(&self, stmt: StmtId) -> Option<ProcId> {
        self.proc_of[stmt.index()]
    }

    /// The (memoized) flat CFG of a loop statement — the region the bounded
    /// DFS searches, including the back edge.
    pub fn loop_cfg(&self, loop_stmt: StmtId) -> Rc<Cfg> {
        self.cfgs[loop_stmt.index()]
            .get_or_init(|| Rc::new(Cfg::build(self.program, std::slice::from_ref(&loop_stmt))))
            .clone()
    }

    /// The body of a `do` or `while` statement (empty for anything else).
    pub fn loop_body(&self, loop_stmt: StmtId) -> &'p [StmtId] {
        match &self.program.stmt(loop_stmt).kind {
            StmtKind::Do { body, .. } | StmtKind::While { body, .. } => body,
            _ => &[],
        }
    }

    /// The (memoized) [`BodyTable`] of a loop statement's body.
    pub fn loop_table(&self, loop_stmt: StmtId) -> &BodyTable<'p> {
        self.loop_tables[loop_stmt.index()]
            .get_or_init(|| Box::new(BodyTable::of(self.program, self.loop_body(loop_stmt))))
    }

    /// Whether every read of an element of `array` in the whole program
    /// is by a statement inside the body of `loop_stmt`.
    pub fn reads_confined_to(&self, array: VarId, loop_stmt: StmtId) -> bool {
        let readers = self.readers.get_or_init(|| {
            let mut readers = vec![Vec::new(); self.program.symbols.len()];
            let mut accesses = Vec::new();
            for proc in &self.program.procedures {
                for s in self.program.stmts_in(&proc.body) {
                    accesses.clear();
                    stmt_array_accesses(self.program, s, &mut accesses);
                    for acc in accesses.iter().filter(|a| !a.is_write) {
                        let of: &mut Vec<StmtId> = &mut readers[acc.array.index()];
                        if of.last() != Some(&s) {
                            of.push(s);
                        }
                    }
                }
            }
            readers
        });
        readers[array.index()]
            .iter()
            .all(|s| self.enclosing_loops(*s).contains(&loop_stmt))
    }

    /// The (memoized) [`RangeEnv`] with the ranges of every `do`
    /// variable enclosing `stmt` (including `stmt` itself when it is a
    /// `do`). It is built once per `do` statement and borrowed: a
    /// statement that is not a `do` sees its innermost enclosing loop's
    /// environment, and one outside every loop sees [`Self::no_ranges`].
    /// A caller that adds facts clones it first.
    pub fn range_env_at(&self, stmt: StmtId) -> &RangeEnv {
        if !matches!(self.program.stmt(stmt).kind, StmtKind::Do { .. }) {
            return match self.enclosing_loops(stmt).first() {
                Some(&l) => self.range_env_at(l),
                None => &self.no_ranges,
            };
        }
        self.range_envs[stmt.index()].get_or_init(|| {
            let mut env = RangeEnv::new();
            for &s in std::iter::once(&stmt).chain(self.enclosing_loops(stmt)) {
                if let Some((var, lo, hi)) = self.do_bounds_sym(s) {
                    env.set_var_range(var, lo, hi);
                }
            }
            Box::new(env)
        })
    }

    /// The environment with no facts (a procedure body's, outside every
    /// loop).
    pub fn no_ranges(&self) -> &RangeEnv {
        &self.no_ranges
    }

    /// The `(lhs, rhs)` of an assignment statement.
    pub fn assign_parts(&self, stmt: StmtId) -> Option<(&LValue, &Expr)> {
        match &self.program.stmt(stmt).kind {
            StmtKind::Assign { lhs, rhs } => Some((lhs, rhs)),
            _ => None,
        }
    }

    /// Whether the do-loop `stmt` has unit step.
    pub fn unit_step(&self, stmt: StmtId) -> bool {
        match &self.program.stmt(stmt).kind {
            StmtKind::Do { step, .. } => {
                step.as_ref().and_then(|e| e.as_int_lit()).unwrap_or(1) == 1
            }
            _ => false,
        }
    }

    /// Symbolic loop bounds `(var, lo, hi)` of a unit-step do-loop.
    pub fn do_bounds_sym(&self, stmt: StmtId) -> Option<(VarId, SymExpr, SymExpr)> {
        match &self.program.stmt(stmt).kind {
            StmtKind::Do {
                var, lo, hi, step, ..
            } if step.as_ref().and_then(|e| e.as_int_lit()).unwrap_or(1) == 1 => {
                Some((*var, expr_to_sym(lo)?, expr_to_sym(hi)?))
            }
            _ => None,
        }
    }

    /// The expressions *evaluated* at a CFG node (assignment rhs and
    /// subscripts, loop bounds, conditions, print arguments) — used to
    /// classify reads.
    pub fn node_exprs(&self, cfg: &Cfg, n: CfgNodeId) -> Vec<&Expr> {
        let mut out = Vec::new();
        match cfg.kind(n) {
            CfgNodeKind::Stmt(s) => match &self.program.stmt(s).kind {
                StmtKind::Assign { lhs, rhs } => {
                    for e in lhs.subscripts() {
                        out.push(e);
                    }
                    out.push(rhs);
                }
                StmtKind::Print { args } => out.extend(args.iter()),
                _ => {}
            },
            CfgNodeKind::LoopHead(s) => match &self.program.stmt(s).kind {
                StmtKind::Do { lo, hi, step, .. } => {
                    out.push(lo);
                    out.push(hi);
                    if let Some(st) = step {
                        out.push(st);
                    }
                }
                StmtKind::While { cond, .. } => out.push(cond),
                _ => {}
            },
            CfgNodeKind::Branch(s) => {
                if let StmtKind::If { cond, .. } = &self.program.stmt(s).kind {
                    out.push(cond);
                }
            }
            _ => {}
        }
        out
    }

    /// Whether the expressions evaluated at `n` read array element
    /// `arr(idx_var)` (exactly single-indexed form).
    pub fn node_reads_elem(&self, cfg: &Cfg, n: CfgNodeId, arr: VarId, idx_var: VarId) -> bool {
        for e in self.node_exprs(cfg, n) {
            let mut found = false;
            irr_frontend::visit::for_each_subexpr(e, &mut |sub| {
                if let Expr::Element(a, subs) = sub {
                    if *a == arr && subs.len() == 1 && subs[0].is_var(idx_var) {
                        found = true;
                    }
                }
            });
            if found {
                return true;
            }
        }
        false
    }

    /// Whether node `n` is an assignment whose target is `arr(idx_var)`.
    pub fn node_writes_elem(&self, cfg: &Cfg, n: CfgNodeId, arr: VarId, idx_var: VarId) -> bool {
        if let CfgNodeKind::Stmt(s) = cfg.kind(n) {
            if let Some((LValue::Element(a, subs), _)) = self.assign_parts(s) {
                return *a == arr && subs.len() == 1 && subs[0].is_var(idx_var);
            }
        }
        false
    }

    /// Whether any procedure transitively reachable from `callees`
    /// references `var` (read or write) — used to bail out of the
    /// single-indexed analyses when calls could disturb the index.
    pub fn calls_touch_var(&self, callees: &[ProcId], var: VarId) -> bool {
        let mut procs = callees.to_vec();
        let mut i = 0;
        while i < procs.len() {
            let p = procs[i];
            i += 1;
            let pbody = &self.program.procedure(p).body;
            for s in self.program.stmts_in(pbody) {
                if let StmtKind::Call { proc } = &self.program.stmt(s).kind {
                    if !procs.contains(proc) {
                        procs.push(*proc);
                    }
                }
                let mut touched = false;
                if let StmtKind::Assign { lhs, .. } = &self.program.stmt(s).kind {
                    if lhs.var() == var {
                        touched = true;
                    }
                }
                irr_frontend::visit::for_each_expr_in_stmt(self.program, s, |e| {
                    if e.mentions(var) {
                        touched = true;
                    }
                });
                if touched {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_frontend::parse_program;

    #[test]
    fn enclosing_loops_innermost_first() {
        let p = parse_program(
            "program t
             integer i, j
             do i = 1, 3
               do j = 1, 2
                 x = 1
               enddo
             enddo
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let all = p.stmts_in(&p.procedure(p.main()).body);
        let inner_assign = all
            .iter()
            .copied()
            .find(|s| matches!(p.stmt(*s).kind, StmtKind::Assign { .. }))
            .unwrap();
        let loops = ctx.enclosing_loops(inner_assign);
        assert_eq!(loops.len(), 2);
        // Innermost (j-loop) first.
        if let StmtKind::Do { var, .. } = &p.stmt(loops[0]).kind {
            assert_eq!(p.symbols.name(*var), "j");
        } else {
            panic!("expected do");
        }
    }

    #[test]
    fn loop_table_equals_the_walks_it_replaces() {
        use irr_frontend::visit::{arrays_written_in, collect_array_accesses, scalars_assigned_in};
        let p = parse_program(
            "program t
             integer i, j, k, n, q, idx(10), cnt(10)
             real x(10), y(10, 10), s
             do i = 1, n
               q = idx(i)
               if (x(q) > 0) then
                 cnt(q) = cnt(q) + 1
               else
                 s = s + x(i)
               endif
               do j = 1, cnt(i)
                 y(i, j) = x(idx(j)) * s
               enddo
               k = 0
               while (k < q)
                 k = k + 1
                 x(k) = y(k, i)
               endwhile
               print s
             enddo
             call side
             end
             subroutine side
             integer q
             q = 0
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let loops: Vec<StmtId> = p
            .stmts_in(&p.procedure(p.main()).body)
            .into_iter()
            .filter(|s| p.stmt(*s).kind.is_loop())
            .collect();
        assert_eq!(loops.len(), 3, "the nest, its inner do, its while");
        for l in loops {
            let body = ctx.loop_body(l);
            let t = ctx.loop_table(l);
            assert_eq!(t.stmts, p.stmts_in(body));
            assert_eq!(t.accesses, collect_array_accesses(&p, body));
            assert_eq!(t.written_arrays, arrays_written_in(&p, body));
            assert_eq!(t.assigned_scalars, scalars_assigned_in(&p, body));
            assert!(std::ptr::eq(t, ctx.loop_table(l)), "memoized");
        }
        // Nest body: q = .., if, do j, k = 0, while, print.
        let nest = p.procedure(p.main()).body[0];
        let inner_while = ctx.loop_body(nest)[4];
        let outer = ctx.loop_table(nest);
        assert!(outer.has_io && outer.callees.is_empty());
        // `cnt(q)` is single-indexed until `cnt(i)` in the inner bound.
        assert!(outer.single_indexed.is_empty());
        let si: Vec<_> = ctx
            .loop_table(inner_while)
            .single_indexed
            .iter()
            .map(|s| (p.symbols.name(s.array), p.symbols.name(s.index)))
            .collect();
        assert_eq!(si, [("x", "k")]);
        // Whole-program reader index: every read of `cnt` is inside the
        // nest, but not inside its `while`.
        let cnt = p.symbols.lookup("cnt").unwrap();
        assert!(ctx.reads_confined_to(cnt, nest));
        assert!(!ctx.reads_confined_to(cnt, inner_while));
    }

    #[test]
    fn range_env_includes_loop_bounds() {
        let p = parse_program(
            "program t
             integer i, n
             real x(10)
             do i = 2, n
               x(i) = 1
             enddo
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let all = p.stmts_in(&p.procedure(p.main()).body);
        let assign = all
            .iter()
            .copied()
            .find(|s| matches!(p.stmt(*s).kind, StmtKind::Assign { .. }))
            .unwrap();
        let env = ctx.range_env_at(assign);
        let i = p.symbols.lookup("i").unwrap();
        // i - 2 >= 0 provable.
        let e = SymExpr::var(i).sub(&SymExpr::int(2));
        assert!(irr_symbolic::prove_ge0(&e, env));
        // Built once, for the loop, and lent to the statements in it.
        let do_i = p.procedure(p.main()).body[0];
        assert!(std::ptr::eq(env, ctx.range_env_at(do_i)), "memoized");
        assert!(std::ptr::eq(env, ctx.range_env_at(assign)), "memoized");
    }

    #[test]
    fn calls_touch_var_detects_transitive_use() {
        let p = parse_program(
            "program t
             integer p, q
             call a
             end
             subroutine a
             call b
             end
             subroutine b
             p = p + 1
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let callees = BodyTable::of(&p, &p.procedure(p.main()).body).callees;
        let pv = p.symbols.lookup("p").unwrap();
        let qv = p.symbols.lookup("q").unwrap();
        assert!(ctx.calls_touch_var(&callees, pv));
        assert!(!ctx.calls_touch_var(&callees, qv));
    }
}
