//! The hierarchical control graph (HCG) of §3.2.1.
//!
//! Each statement, loop, and procedure is represented by a node; each
//! loop body and procedure body gets a *section* with a single entry and
//! a single exit node. Back edges are deliberately deleted (a loop is a
//! single node in its parent section, and its body section is acyclic),
//! so every section graph is a DAG — the property that makes the
//! reverse-topological priority worklist of `QuerySolver` (Fig. 5) and
//! the backward summarization of Fig. 9 well-defined.

use irr_frontend::{FxHashMap, ProcId, Program, StmtId, StmtKind};
use std::fmt;

/// Identifier of an HCG node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct HcgNodeId(pub u32);

impl HcgNodeId {
    /// Index into the node arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for HcgNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// Identifier of a section (a loop body or procedure body).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SectionId(pub u32);

impl SectionId {
    /// Index into the section arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What an HCG node represents (the five node classes of Fig. 7).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HcgNodeKind {
    /// Section entry.
    Entry(SectionId),
    /// Section exit.
    Exit(SectionId),
    /// A simple statement — "otherwise" (case 5).
    Simple(StmtId),
    /// An `if` condition with the two arms re-joining at `Join`.
    Branch(StmtId),
    /// The join after an `if`.
    Join(StmtId),
    /// A whole loop (cases 1 and 2); the body is `body`.
    Loop { stmt: StmtId, body: SectionId },
    /// A `call` statement (case 3).
    Call { stmt: StmtId, callee: ProcId },
}

impl HcgNodeKind {
    /// The statement this node was derived from, if any.
    pub fn stmt(&self) -> Option<StmtId> {
        match self {
            HcgNodeKind::Entry(_) | HcgNodeKind::Exit(_) => None,
            HcgNodeKind::Simple(s)
            | HcgNodeKind::Branch(s)
            | HcgNodeKind::Join(s)
            | HcgNodeKind::Loop { stmt: s, .. }
            | HcgNodeKind::Call { stmt: s, .. } => Some(*s),
        }
    }
}

/// Why a section exists.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SectionKind {
    /// The body of a procedure.
    ProcBody(ProcId),
    /// The body of a loop statement.
    LoopBody(StmtId),
}

/// One section: an acyclic single-entry/single-exit graph.
#[derive(Clone, Debug)]
pub struct SectionInfo {
    /// What the section represents.
    pub kind: SectionKind,
    /// The entry node.
    pub entry: HcgNodeId,
    /// The exit node.
    pub exit: HcgNodeId,
    /// All nodes of the section in topological order (entry first).
    pub topo_order: Vec<HcgNodeId>,
}

/// The hierarchical control graph of a whole program.
#[derive(Clone, Debug)]
pub struct Hcg {
    kinds: Vec<HcgNodeKind>,
    section_of: Vec<SectionId>,
    succs: Vec<Vec<HcgNodeId>>,
    preds: Vec<Vec<HcgNodeId>>,
    sections: Vec<SectionInfo>,
    proc_sections: Vec<SectionId>,
    loop_sections: FxHashMap<StmtId, SectionId>,
    stmt_nodes: FxHashMap<StmtId, HcgNodeId>,
    call_sites: FxHashMap<ProcId, Vec<HcgNodeId>>,
    /// Deduplicated direct callees of each procedure, in call order —
    /// the call-graph edges the bottom-up summary fixpoint walks.
    calls_from: Vec<Vec<ProcId>>,
    /// Topological index of each node within its section.
    topo_index: Vec<u32>,
}

impl Hcg {
    /// Builds the HCG for every procedure of `program`.
    pub fn build(program: &Program) -> Hcg {
        let mut hcg = Hcg {
            kinds: Vec::new(),
            section_of: Vec::new(),
            succs: Vec::new(),
            preds: Vec::new(),
            sections: Vec::new(),
            proc_sections: Vec::new(),
            loop_sections: FxHashMap::default(),
            stmt_nodes: FxHashMap::default(),
            call_sites: FxHashMap::default(),
            calls_from: vec![Vec::new(); program.procedures.len()],
            topo_index: Vec::new(),
        };
        for (i, proc) in program.procedures.iter().enumerate() {
            let pid = ProcId(i as u32);
            let sec = hcg.build_section(program, pid, SectionKind::ProcBody(pid), &proc.body);
            hcg.proc_sections.push(sec);
        }
        hcg.compute_topo();
        hcg
    }

    fn add_node(&mut self, kind: HcgNodeKind, sec: SectionId) -> HcgNodeId {
        let id = HcgNodeId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.section_of.push(sec);
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        self.topo_index.push(0);
        id
    }

    fn add_edge(&mut self, from: HcgNodeId, to: HcgNodeId) {
        if !self.succs[from.index()].contains(&to) {
            self.succs[from.index()].push(to);
            self.preds[to.index()].push(from);
        }
    }

    fn build_section(
        &mut self,
        program: &Program,
        pid: ProcId,
        kind: SectionKind,
        body: &[StmtId],
    ) -> SectionId {
        let sec = SectionId(self.sections.len() as u32);
        // Reserve the slot so nested sections get later ids.
        self.sections.push(SectionInfo {
            kind,
            entry: HcgNodeId(0),
            exit: HcgNodeId(0),
            topo_order: Vec::new(),
        });
        let entry = self.add_node(HcgNodeKind::Entry(sec), sec);
        let exit = self.add_node(HcgNodeKind::Exit(sec), sec);
        let mut cur = entry;
        for &s in body {
            cur = self.build_stmt(program, pid, sec, cur, s);
        }
        self.add_edge(cur, exit);
        self.sections[sec.index()].entry = entry;
        self.sections[sec.index()].exit = exit;
        if let SectionKind::LoopBody(stmt) = kind {
            self.loop_sections.insert(stmt, sec);
        }
        sec
    }

    /// Adds nodes for `s` after `prev`; returns the node control flows
    /// out of.
    fn build_stmt(
        &mut self,
        program: &Program,
        pid: ProcId,
        sec: SectionId,
        prev: HcgNodeId,
        s: StmtId,
    ) -> HcgNodeId {
        match &program.stmt(s).kind {
            StmtKind::Assign { .. } | StmtKind::Print { .. } | StmtKind::Return => {
                let n = self.add_node(HcgNodeKind::Simple(s), sec);
                self.stmt_nodes.insert(s, n);
                self.add_edge(prev, n);
                n
            }
            StmtKind::Call { proc } => {
                let n = self.add_node(
                    HcgNodeKind::Call {
                        stmt: s,
                        callee: *proc,
                    },
                    sec,
                );
                self.stmt_nodes.insert(s, n);
                self.call_sites.entry(*proc).or_default().push(n);
                if !self.calls_from[pid.index()].contains(proc) {
                    self.calls_from[pid.index()].push(*proc);
                }
                self.add_edge(prev, n);
                n
            }
            StmtKind::Do { body, .. } | StmtKind::While { body, .. } => {
                let body = body.clone();
                let body_sec = self.build_section(program, pid, SectionKind::LoopBody(s), &body);
                let n = self.add_node(
                    HcgNodeKind::Loop {
                        stmt: s,
                        body: body_sec,
                    },
                    sec,
                );
                self.stmt_nodes.insert(s, n);
                self.add_edge(prev, n);
                n
            }
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                let branch = self.add_node(HcgNodeKind::Branch(s), sec);
                self.stmt_nodes.insert(s, branch);
                self.add_edge(prev, branch);
                let join = self.add_node(HcgNodeKind::Join(s), sec);
                let (then_body, else_body) = (then_body.clone(), else_body.clone());
                let mut cur = branch;
                for &t in &then_body {
                    cur = self.build_stmt(program, pid, sec, cur, t);
                }
                self.add_edge(cur, join);
                let mut cur = branch;
                for &t in &else_body {
                    cur = self.build_stmt(program, pid, sec, cur, t);
                }
                self.add_edge(cur, join);
                join
            }
        }
    }

    fn compute_topo(&mut self) {
        // Every edge stays inside its section, so one in-degree count
        // serves all of them.
        let mut indeg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut sizes = vec![0usize; self.sections.len()];
        for sec in &self.section_of {
            sizes[sec.index()] += 1;
        }
        for (si, size) in sizes.into_iter().enumerate() {
            // Kahn's algorithm from the section's entry.
            let mut order = Vec::with_capacity(size);
            let mut ready = vec![self.sections[si].entry];
            while let Some(n) = ready.pop() {
                order.push(n);
                for &s in &self.succs[n.index()] {
                    debug_assert_eq!(self.section_of[s.index()], self.section_of[n.index()]);
                    indeg[s.index()] -= 1;
                    if indeg[s.index()] == 0 {
                        ready.push(s);
                    }
                }
            }
            debug_assert_eq!(order.len(), size, "section graph must be a DAG");
            for (i, n) in order.iter().enumerate() {
                self.topo_index[n.index()] = i as u32;
            }
            self.sections[si].topo_order = order;
        }
    }

    // ----- accessors -------------------------------------------------------

    /// Node kind.
    pub fn kind(&self, n: HcgNodeId) -> HcgNodeKind {
        self.kinds[n.index()]
    }

    /// The section a node belongs to.
    pub fn section_of(&self, n: HcgNodeId) -> SectionId {
        self.section_of[n.index()]
    }

    /// Section info.
    pub fn section(&self, s: SectionId) -> &SectionInfo {
        &self.sections[s.index()]
    }

    /// The section for a procedure body.
    pub fn proc_section(&self, p: ProcId) -> SectionId {
        self.proc_sections[p.index()]
    }

    /// The section for a loop body, if `stmt` is a loop.
    pub fn loop_section(&self, stmt: StmtId) -> Option<SectionId> {
        self.loop_sections.get(&stmt).copied()
    }

    /// The HCG node representing a statement (for loops, the `Loop` node;
    /// for ifs, the `Branch` node).
    pub fn node_of_stmt(&self, stmt: StmtId) -> Option<HcgNodeId> {
        self.stmt_nodes.get(&stmt).copied()
    }

    /// Successors within the section.
    pub fn succs(&self, n: HcgNodeId) -> &[HcgNodeId] {
        &self.succs[n.index()]
    }

    /// Predecessors within the section.
    pub fn preds(&self, n: HcgNodeId) -> &[HcgNodeId] {
        &self.preds[n.index()]
    }

    /// Every `call` node that targets `p`.
    pub fn call_sites(&self, p: ProcId) -> &[HcgNodeId] {
        self.call_sites.get(&p).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The deduplicated direct callees of `p`, in first-call order.
    pub fn callees(&self, p: ProcId) -> &[ProcId] {
        self.calls_from
            .get(p.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Procedures that participate in a call-graph cycle (including
    /// direct self-recursion): any procedure reachable from one of its
    /// own callees. Interprocedural summaries for these must be
    /// conservative — there is no bottom-up order to compose them in.
    pub fn recursive_procs(&self) -> Vec<ProcId> {
        let n = self.calls_from.len();
        let mut out = Vec::new();
        for p in 0..n {
            let start = ProcId(p as u32);
            let mut seen: Vec<ProcId> = Vec::new();
            let mut work: Vec<ProcId> = self.callees(start).to_vec();
            let mut cyclic = false;
            while let Some(q) = work.pop() {
                if q == start {
                    cyclic = true;
                    break;
                }
                if seen.contains(&q) {
                    continue;
                }
                seen.push(q);
                work.extend_from_slice(self.callees(q));
            }
            if cyclic {
                out.push(start);
            }
        }
        out
    }

    /// A callees-first (bottom-up) traversal order of the call graph:
    /// every procedure appears after all procedures it calls, except
    /// across cycle back edges (cycle members are conservative anyway —
    /// see [`Hcg::recursive_procs`]). Every procedure appears exactly
    /// once, reachable from a call site or not.
    pub fn bottom_up_procs(&self) -> Vec<ProcId> {
        let n = self.calls_from.len();
        let mut order = Vec::with_capacity(n);
        let mut state = vec![0u8; n]; // 0 = unvisited, 1 = on stack, 2 = done
        for root in 0..n {
            if state[root] != 0 {
                continue;
            }
            // Iterative post-order DFS.
            let mut stack: Vec<(ProcId, usize)> = vec![(ProcId(root as u32), 0)];
            state[root] = 1;
            while let Some((p, child)) = stack.pop() {
                let callees = self.callees(p);
                if child < callees.len() {
                    stack.push((p, child + 1));
                    let q = callees[child];
                    if state[q.index()] == 0 {
                        state[q.index()] = 1;
                        stack.push((q, 0));
                    }
                } else {
                    state[p.index()] = 2;
                    order.push(p);
                }
            }
        }
        order
    }

    /// Topological index of `n` within its section (entry is 0). The
    /// *reverse* topological priority of `QuerySolver`'s worklist is
    /// "larger index first".
    pub fn topo_index(&self, n: HcgNodeId) -> u32 {
        self.topo_index[n.index()]
    }

    /// Number of nodes in the whole HCG.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the HCG is empty.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Whether `a` dominates `b` within their (shared) section: every
    /// path from the section entry to `b` passes through `a`.
    pub fn dominates(&self, a: HcgNodeId, b: HcgNodeId) -> bool {
        let sec = self.section_of(a);
        if sec != self.section_of(b) {
            return false;
        }
        if a == b {
            return true;
        }
        let entry = self.sections[sec.index()].entry;
        if b == entry {
            return false;
        }
        // b reachable from entry avoiding a?
        let mut visited = vec![false; self.kinds.len()];
        let mut stack = vec![entry];
        if entry == a {
            return true;
        }
        visited[entry.index()] = true;
        while let Some(n) = stack.pop() {
            for &s in &self.succs[n.index()] {
                if s == a || visited[s.index()] {
                    continue;
                }
                if s == b {
                    return false;
                }
                visited[s.index()] = true;
                stack.push(s);
            }
        }
        true
    }

    /// Whether `n` dominates its section's exit (Fig. 9 line 20).
    pub fn dominates_exit(&self, n: HcgNodeId) -> bool {
        let sec = self.section_of(n);
        self.dominates(n, self.sections[sec.index()].exit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_frontend::parse_program;

    fn build(src: &str) -> (Program, Hcg) {
        let p = parse_program(src).unwrap();
        let h = Hcg::build(&p);
        (p, h)
    }
    use irr_frontend::Program;

    #[test]
    fn sections_per_procedure_and_loop() {
        let (p, h) = build(
            "program t
             integer i
             do i = 1, 3
               x = 1
             enddo
             call s
             end
             subroutine s
             y = 2
             end",
        );
        // main body + loop body + subroutine body.
        assert_eq!(h.sections.len(), 3);
        let main_sec = h.proc_section(p.main());
        assert!(matches!(h.section(main_sec).kind, SectionKind::ProcBody(_)));
        let sub = p.find_procedure("s").unwrap();
        assert_eq!(h.call_sites(sub).len(), 1);
    }

    #[test]
    fn loop_is_single_node_in_parent() {
        let (p, h) = build(
            "program t
             integer i
             a = 1
             do i = 1, 3
               x = 1
               y = 2
             enddo
             b = 2
             end",
        );
        let main_sec = h.proc_section(p.main());
        let order = &h.section(main_sec).topo_order;
        // entry, a=1, loop, b=2, exit.
        assert_eq!(order.len(), 5);
        let loop_nodes: Vec<_> = order
            .iter()
            .filter(|n| matches!(h.kind(**n), HcgNodeKind::Loop { .. }))
            .collect();
        assert_eq!(loop_nodes.len(), 1);
    }

    #[test]
    fn topo_order_respects_edges() {
        let (p, h) = build(
            "program t
             integer q
             a = 1
             if (q > 0) then
               b = 2
             else
               c = 3
             endif
             d = 4
             end",
        );
        let main_sec = h.proc_section(p.main());
        for n in &h.section(main_sec).topo_order {
            for s in h.succs(*n) {
                assert!(
                    h.topo_index(*n) < h.topo_index(*s),
                    "edge {n} -> {s} violates topo order"
                );
            }
        }
    }

    #[test]
    fn branch_and_join_wrap_arms() {
        let (p, h) = build(
            "program t
             integer q
             if (q > 0) then
               b = 2
             endif
             end",
        );
        let main_sec = h.proc_section(p.main());
        let branch = h
            .section(main_sec)
            .topo_order
            .iter()
            .copied()
            .find(|n| matches!(h.kind(*n), HcgNodeKind::Branch(_)))
            .unwrap();
        // Branch has two successors (then-arm and the join directly).
        assert_eq!(h.succs(branch).len(), 2);
    }

    #[test]
    fn dominators() {
        let (p, h) = build(
            "program t
             integer q
             a = 1
             if (q > 0) then
               b = 2
             endif
             c = 3
             end",
        );
        let main_sec = h.proc_section(p.main());
        let order = &h.section(main_sec).topo_order;
        let simple: Vec<_> = order
            .iter()
            .copied()
            .filter(|n| matches!(h.kind(*n), HcgNodeKind::Simple(_)))
            .collect();
        let (a, b, c) = (simple[0], simple[1], simple[2]);
        assert!(h.dominates(a, c));
        assert!(h.dominates(a, b));
        assert!(!h.dominates(b, c), "b is conditional");
        assert!(h.dominates_exit(a));
        assert!(!h.dominates_exit(b));
        assert!(h.dominates_exit(c));
        // Entry dominates everything.
        let entry = h.section(main_sec).entry;
        assert!(h.dominates(entry, c));
    }

    #[test]
    fn nested_loops_nest_sections() {
        let (p, h) = build(
            "program t
             integer i, j
             do i = 1, 3
               do j = 1, 2
                 x = 1
               enddo
             enddo
             end",
        );
        let main_sec = h.proc_section(p.main());
        let outer = h
            .section(main_sec)
            .topo_order
            .iter()
            .copied()
            .find_map(|n| match h.kind(n) {
                HcgNodeKind::Loop { body, .. } => Some(body),
                _ => None,
            })
            .unwrap();
        let inner = h
            .section(outer)
            .topo_order
            .iter()
            .copied()
            .find_map(|n| match h.kind(n) {
                HcgNodeKind::Loop { body, .. } => Some(body),
                _ => None,
            });
        assert!(inner.is_some());
        let _ = p;
    }

    #[test]
    fn node_of_stmt_maps_back() {
        let (p, h) = build("program t\na = 1\nend\n");
        let body = &p.procedure(p.main()).body;
        let n = h.node_of_stmt(body[0]).unwrap();
        assert_eq!(h.kind(n).stmt(), Some(body[0]));
    }

    #[test]
    fn call_graph_edges_and_bottom_up_order() {
        let (p, h) = build(
            "program t
             call a
             call b
             end
             subroutine a
             call c
             end
             subroutine b
             call c
             end
             subroutine c
             x = 1
             end",
        );
        let (a, b, c) = (
            p.find_procedure("a").unwrap(),
            p.find_procedure("b").unwrap(),
            p.find_procedure("c").unwrap(),
        );
        assert_eq!(h.callees(p.main()), &[a, b]);
        assert_eq!(h.callees(a), &[c]);
        assert!(h.recursive_procs().is_empty());
        let order = h.bottom_up_procs();
        assert_eq!(order.len(), p.procedures.len());
        let pos = |q: ProcId| order.iter().position(|x| *x == q).unwrap();
        assert!(pos(c) < pos(a));
        assert!(pos(c) < pos(b));
        assert!(pos(a) < pos(p.main()));
    }

    #[test]
    fn mutual_recursion_is_detected() {
        let (p, h) = build(
            "program t
             call a
             end
             subroutine a
             call b
             end
             subroutine b
             call a
             end
             subroutine leaf
             y = 1
             end",
        );
        let rec = h.recursive_procs();
        assert!(rec.contains(&p.find_procedure("a").unwrap()));
        assert!(rec.contains(&p.find_procedure("b").unwrap()));
        assert!(!rec.contains(&p.main()), "main calls a cycle, is not in it");
        assert!(!rec.contains(&p.find_procedure("leaf").unwrap()));
        // Unreachable procedures still appear in the bottom-up order.
        assert_eq!(h.bottom_up_procs().len(), p.procedures.len());
    }
}
