//! Flat (cyclic) control-flow graph of a statement region.

use irr_frontend::{FxHashSet, Program, StmtId, StmtKind};
use std::fmt;

/// Identifier of a node in a [`Cfg`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CfgNodeId(pub u32);

impl CfgNodeId {
    /// Index into the node arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CfgNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a CFG node represents.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CfgNodeKind {
    /// Unique region entry.
    Entry,
    /// Unique region exit.
    Exit,
    /// A simple statement (assignment, call, print, return).
    Stmt(StmtId),
    /// The header of a `do` or `while`: evaluates bounds/condition; one
    /// successor enters the body, the other leaves the loop.
    LoopHead(StmtId),
    /// The latch of a loop: jumps back to the header (the back edge).
    Latch(StmtId),
    /// The condition of an `if`.
    Branch(StmtId),
    /// The join point after an `if`.
    Join(StmtId),
}

impl CfgNodeKind {
    /// The statement this node was derived from, if any.
    pub fn stmt(&self) -> Option<StmtId> {
        match self {
            CfgNodeKind::Entry | CfgNodeKind::Exit => None,
            CfgNodeKind::Stmt(s)
            | CfgNodeKind::LoopHead(s)
            | CfgNodeKind::Latch(s)
            | CfgNodeKind::Branch(s)
            | CfgNodeKind::Join(s) => Some(*s),
        }
    }
}

/// A flat control-flow graph over a region of statements. Back edges are
/// present (and identifiable via [`Cfg::is_back_edge`]).
#[derive(Clone, Debug)]
pub struct Cfg {
    kinds: Vec<CfgNodeKind>,
    succs: Vec<Vec<CfgNodeId>>,
    preds: Vec<Vec<CfgNodeId>>,
    back_edges: FxHashSet<(CfgNodeId, CfgNodeId)>,
}

impl Cfg {
    /// Builds the CFG of a statement region (e.g. a procedure body or a
    /// single loop statement). Node 0 is the entry, node 1 the exit.
    pub fn build(program: &Program, body: &[StmtId]) -> Cfg {
        let mut b = Builder {
            program,
            cfg: Cfg {
                kinds: vec![CfgNodeKind::Entry, CfgNodeKind::Exit],
                succs: vec![Vec::new(), Vec::new()],
                preds: vec![Vec::new(), Vec::new()],
                back_edges: FxHashSet::default(),
            },
        };
        let first = b.build_seq(body, Cfg::EXIT);
        b.cfg.add_edge(Cfg::ENTRY, first);
        b.cfg
    }

    /// The entry node.
    pub const ENTRY: CfgNodeId = CfgNodeId(0);
    /// The exit node.
    pub const EXIT: CfgNodeId = CfgNodeId(1);

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the graph has only entry and exit.
    pub fn is_empty(&self) -> bool {
        self.kinds.len() <= 2
    }

    /// The kind of node `n`.
    pub fn kind(&self, n: CfgNodeId) -> CfgNodeKind {
        self.kinds[n.index()]
    }

    /// Successors of `n` (including back edges).
    pub fn succs(&self, n: CfgNodeId) -> &[CfgNodeId] {
        &self.succs[n.index()]
    }

    /// Predecessors of `n` (including back edges).
    pub fn preds(&self, n: CfgNodeId) -> &[CfgNodeId] {
        &self.preds[n.index()]
    }

    /// Whether `(from, to)` is a loop back edge.
    pub fn is_back_edge(&self, from: CfgNodeId, to: CfgNodeId) -> bool {
        self.back_edges.contains(&(from, to))
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = CfgNodeId> {
        (0..self.kinds.len() as u32).map(CfgNodeId)
    }

    /// Nodes whose kind satisfies `pred`.
    pub fn nodes_where(&self, mut pred: impl FnMut(CfgNodeKind) -> bool) -> Vec<CfgNodeId> {
        self.nodes().filter(|n| pred(self.kind(*n))).collect()
    }

    fn add_node(&mut self, kind: CfgNodeKind) -> CfgNodeId {
        let id = CfgNodeId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        id
    }

    fn add_edge(&mut self, from: CfgNodeId, to: CfgNodeId) {
        if !self.succs[from.index()].contains(&to) {
            self.succs[from.index()].push(to);
            self.preds[to.index()].push(from);
        }
    }

    fn add_back_edge(&mut self, from: CfgNodeId, to: CfgNodeId) {
        self.add_edge(from, to);
        self.back_edges.insert((from, to));
    }
}

struct Builder<'a> {
    program: &'a Program,
    cfg: Cfg,
}

impl Builder<'_> {
    /// Builds nodes for `body`, wiring the last statement to `after`.
    /// Returns the first node of the sequence (or `after` if empty).
    fn build_seq(&mut self, body: &[StmtId], after: CfgNodeId) -> CfgNodeId {
        let mut next = after;
        for &s in body.iter().rev() {
            next = self.build_stmt(s, next);
        }
        next
    }

    /// Builds nodes for one statement; control continues at `after`.
    /// Returns the statement's first node.
    fn build_stmt(&mut self, s: StmtId, after: CfgNodeId) -> CfgNodeId {
        match &self.program.stmt(s).kind {
            StmtKind::Assign { .. }
            | StmtKind::Call { .. }
            | StmtKind::Print { .. }
            | StmtKind::Return => {
                let n = self.cfg.add_node(CfgNodeKind::Stmt(s));
                self.cfg.add_edge(n, after);
                n
            }
            StmtKind::Do { body, .. } | StmtKind::While { body, .. } => {
                let head = self.cfg.add_node(CfgNodeKind::LoopHead(s));
                let latch = self.cfg.add_node(CfgNodeKind::Latch(s));
                let body = body.clone();
                let first = self.build_seq(&body, latch);
                self.cfg.add_edge(head, first);
                self.cfg.add_edge(head, after);
                self.cfg.add_back_edge(latch, head);
                head
            }
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                let branch = self.cfg.add_node(CfgNodeKind::Branch(s));
                let join = self.cfg.add_node(CfgNodeKind::Join(s));
                self.cfg.add_edge(join, after);
                let (then_body, else_body) = (then_body.clone(), else_body.clone());
                let t = self.build_seq(&then_body, join);
                self.cfg.add_edge(branch, t);
                let e = self.build_seq(&else_body, join);
                self.cfg.add_edge(branch, e);
                branch
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_frontend::parse_program;

    fn cfg_of(src: &str) -> (Program, Cfg) {
        let p = parse_program(src).unwrap();
        let body = p.procedure(p.main()).body.clone();
        let cfg = Cfg::build(&p, &body);
        (p, cfg)
    }

    #[test]
    fn straight_line() {
        let (_, cfg) = cfg_of("program t\nx = 1\ny = 2\nend\n");
        // entry, exit, two stmts.
        assert_eq!(cfg.len(), 4);
        let first = cfg.succs(Cfg::ENTRY)[0];
        let second = cfg.succs(first)[0];
        assert_eq!(cfg.succs(second), &[Cfg::EXIT]);
        assert!(cfg.back_edges.is_empty());
    }

    #[test]
    fn loop_has_back_edge() {
        let (_, cfg) = cfg_of("program t\ninteger i\ndo i = 1, 3\nx = 1\nenddo\nend\n");
        let heads = cfg.nodes_where(|k| matches!(k, CfgNodeKind::LoopHead(_)));
        let latches = cfg.nodes_where(|k| matches!(k, CfgNodeKind::Latch(_)));
        assert_eq!(heads.len(), 1);
        assert_eq!(latches.len(), 1);
        assert!(cfg.is_back_edge(latches[0], heads[0]));
        // Loop head exits to EXIT and enters the body.
        assert_eq!(cfg.succs(heads[0]).len(), 2);
    }

    #[test]
    fn if_has_diamond() {
        let (_, cfg) =
            cfg_of("program t\ninteger a\nif (a > 0) then\nx = 1\nelse\nx = 2\nendif\nend\n");
        let branches = cfg.nodes_where(|k| matches!(k, CfgNodeKind::Branch(_)));
        let joins = cfg.nodes_where(|k| matches!(k, CfgNodeKind::Join(_)));
        assert_eq!(branches.len(), 1);
        assert_eq!(joins.len(), 1);
        assert_eq!(cfg.succs(branches[0]).len(), 2);
        assert_eq!(cfg.preds(joins[0]).len(), 2);
    }

    #[test]
    fn empty_else_branch_goes_to_join() {
        let (_, cfg) = cfg_of("program t\ninteger a\nif (a > 0) then\nx = 1\nendif\nend\n");
        let branches = cfg.nodes_where(|k| matches!(k, CfgNodeKind::Branch(_)));
        let joins = cfg.nodes_where(|k| matches!(k, CfgNodeKind::Join(_)));
        assert!(cfg.succs(branches[0]).contains(&joins[0]));
    }

    #[test]
    fn while_loop_wraps_around() {
        let (p, cfg) = cfg_of("program t\ninteger p\nwhile (p < 5)\np = p + 1\nendwhile\nend\n");
        let heads = cfg.nodes_where(|k| matches!(k, CfgNodeKind::LoopHead(_)));
        // The increment should be reachable from itself via the back edge.
        let stmts = cfg.nodes_where(|k| matches!(k, CfgNodeKind::Stmt(_)));
        assert_eq!(stmts.len(), 1);
        let inc = stmts[0];
        // inc -> latch -> head -> inc.
        let mut reach = vec![false; cfg.len()];
        let mut stack = vec![inc];
        let mut looped = false;
        while let Some(n) = stack.pop() {
            for &s in cfg.succs(n) {
                if s == inc {
                    looped = true;
                }
                if !reach[s.index()] {
                    reach[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        assert!(looped, "increment must reach itself through the back edge");
        assert_eq!(heads.len(), 1);
        let _ = p;
    }

    #[test]
    fn single_loop_region() {
        // Cfg::build over just the loop statement gives a region whose
        // entry goes straight to the loop head.
        let p = parse_program("program t\ninteger i\ndo i = 1, 3\nx = 2\nenddo\nend\n").unwrap();
        let body = p.procedure(p.main()).body.clone();
        let cfg = Cfg::build(&p, &body[..1]);
        let first = cfg.succs(Cfg::ENTRY)[0];
        assert!(matches!(cfg.kind(first), CfgNodeKind::LoopHead(_)));
    }

    #[test]
    fn nested_loops() {
        let (_, cfg) = cfg_of(
            "program t
             integer i, j
             do i = 1, 3
               do j = 1, 3
                 x = 1
               enddo
             enddo
             end",
        );
        let heads = cfg.nodes_where(|k| matches!(k, CfgNodeKind::LoopHead(_)));
        assert_eq!(heads.len(), 2);
        assert_eq!(cfg.back_edges.len(), 2);
    }
}
