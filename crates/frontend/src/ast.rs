//! Abstract syntax tree for the mini-Fortran language.
//!
//! Statements live in a per-program arena ([`Program::stmts`]) and are
//! referenced by [`StmtId`]; this gives the analyses stable handles for
//! CFG nodes, query points, and reporting.

use crate::diag::SourceLoc;
use crate::symbols::{ProcId, SymbolTable, VarId};
use std::fmt;

/// Identifier of a statement in [`Program::stmts`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StmtId(pub u32);

impl StmtId {
    /// Index into the statement arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Binary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    /// Fortran `mod(a, b)` exposed as an operator internally.
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    /// Whether this operator yields a logical value.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Whether this operator takes logical operands.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    Neg,
    Not,
}

/// Intrinsic functions available in expressions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Intrinsic {
    Min,
    Max,
    Abs,
    Mod,
    Sqrt,
    Sin,
    Cos,
    Exp,
    Log,
    /// Truncation to integer.
    Int,
    /// Conversion to real.
    Real,
}

impl Intrinsic {
    /// Parses an intrinsic by (lower-case) name.
    pub fn from_name(name: &str) -> Option<Intrinsic> {
        Some(match name {
            "min" | "min0" | "amin1" => Intrinsic::Min,
            "max" | "max0" | "amax1" => Intrinsic::Max,
            "abs" | "iabs" => Intrinsic::Abs,
            "mod" => Intrinsic::Mod,
            "sqrt" => Intrinsic::Sqrt,
            "sin" => Intrinsic::Sin,
            "cos" => Intrinsic::Cos,
            "exp" => Intrinsic::Exp,
            "log" => Intrinsic::Log,
            "int" => Intrinsic::Int,
            "real" | "float" => Intrinsic::Real,
            _ => return None,
        })
    }

    /// Canonical source name.
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Min => "min",
            Intrinsic::Max => "max",
            Intrinsic::Abs => "abs",
            Intrinsic::Mod => "mod",
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::Sin => "sin",
            Intrinsic::Cos => "cos",
            Intrinsic::Exp => "exp",
            Intrinsic::Log => "log",
            Intrinsic::Int => "int",
            Intrinsic::Real => "real",
        }
    }
}

/// Expressions.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// Integer literal.
    IntLit(i64),
    /// Real literal.
    RealLit(f64),
    /// Scalar variable reference.
    Var(VarId),
    /// Array element reference `a(e1, e2, ...)`.
    Element(VarId, Vec<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Intrinsic call.
    Call(Intrinsic, Vec<Expr>),
}

impl Expr {
    /// Integer literal helper.
    pub fn int(v: i64) -> Expr {
        Expr::IntLit(v)
    }

    /// Binary helper.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(op, Box::new(lhs), Box::new(rhs))
    }

    /// `lhs + rhs`.
    #[allow(clippy::should_implement_trait)] // constructor, not an operator on &Expr
    pub fn add(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Add, lhs, rhs)
    }

    /// `lhs - rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Sub, lhs, rhs)
    }

    /// `lhs * rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Mul, lhs, rhs)
    }

    /// Whether the expression is a bare reference to scalar `v`.
    pub fn is_var(&self, v: VarId) -> bool {
        matches!(self, Expr::Var(w) if *w == v)
    }

    /// If the expression is an integer literal, its value.
    pub fn as_int_lit(&self) -> Option<i64> {
        match self {
            Expr::IntLit(v) => Some(*v),
            _ => None,
        }
    }

    /// Collects every variable mentioned (scalar uses and array bases and
    /// subscripts) into `out`.
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            Expr::IntLit(_) | Expr::RealLit(_) => {}
            Expr::Var(v) => out.push(*v),
            Expr::Element(v, subs) => {
                out.push(*v);
                for s in subs {
                    s.collect_vars(out);
                }
            }
            Expr::Bin(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Un(_, a) => a.collect_vars(out),
            Expr::Call(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
        }
    }

    /// Whether variable `v` occurs anywhere in the expression (as a
    /// scalar use, an array base or inside a subscript).
    pub fn mentions(&self, v: VarId) -> bool {
        match self {
            Expr::IntLit(_) | Expr::RealLit(_) => false,
            Expr::Var(w) => *w == v,
            Expr::Element(w, subs) => *w == v || subs.iter().any(|s| s.mentions(v)),
            Expr::Bin(_, a, b) => a.mentions(v) || b.mentions(v),
            Expr::Un(_, a) => a.mentions(v),
            Expr::Call(_, args) => args.iter().any(|a| a.mentions(v)),
        }
    }
}

/// Left-hand side of an assignment.
#[derive(Clone, PartialEq, Debug)]
pub enum LValue {
    /// Scalar assignment target.
    Scalar(VarId),
    /// Array element assignment target.
    Element(VarId, Vec<Expr>),
}

impl LValue {
    /// The variable being (partially) assigned.
    pub fn var(&self) -> VarId {
        match self {
            LValue::Scalar(v) | LValue::Element(v, _) => *v,
        }
    }

    /// Subscript expressions, empty for scalars.
    pub fn subscripts(&self) -> &[Expr] {
        match self {
            LValue::Scalar(_) => &[],
            LValue::Element(_, subs) => subs,
        }
    }
}

/// A statement: a kind plus stable identity and source location.
#[derive(Clone, Debug)]
pub struct Stmt {
    /// The statement's arena id (equal to its index in [`Program::stmts`]).
    pub id: StmtId,
    /// What the statement does.
    pub kind: StmtKind,
    /// Where it came from.
    pub loc: SourceLoc,
}

/// Statement kinds.
#[derive(Clone, Debug)]
pub enum StmtKind {
    /// `lhs = rhs`.
    Assign { lhs: LValue, rhs: Expr },
    /// `do var = lo, hi[, step] ... enddo`, optionally labeled
    /// (`do 140 i = ...`).
    Do {
        var: VarId,
        lo: Expr,
        hi: Expr,
        step: Option<Expr>,
        body: Vec<StmtId>,
        label: Option<u32>,
    },
    /// `while (cond) ... endwhile` (also printed as Fortran `do while`).
    While { cond: Expr, body: Vec<StmtId> },
    /// `if (cond) then ... [else ...] endif`.
    If {
        cond: Expr,
        then_body: Vec<StmtId>,
        else_body: Vec<StmtId>,
    },
    /// `call name`.
    Call { proc: ProcId },
    /// `print e1, e2, ...`.
    Print { args: Vec<Expr> },
    /// `return` — only allowed as the final statement of a procedure body.
    Return,
}

impl StmtKind {
    /// Immediate child statement lists (loop/branch bodies).
    pub fn bodies(&self) -> Vec<&[StmtId]> {
        match self {
            StmtKind::Do { body, .. } | StmtKind::While { body, .. } => vec![body],
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => vec![then_body, else_body],
            _ => Vec::new(),
        }
    }

    /// Whether this is a loop statement.
    pub fn is_loop(&self) -> bool {
        matches!(self, StmtKind::Do { .. } | StmtKind::While { .. })
    }
}

/// One procedure (the `program` unit or a `subroutine`).
#[derive(Clone, Debug)]
pub struct Procedure {
    /// Lower-cased name.
    pub name: String,
    /// Whether this is the `program` unit.
    pub is_main: bool,
    /// Top-level statements.
    pub body: Vec<StmtId>,
}

/// A whole program: a global symbol table, a statement arena, and a list
/// of procedures.
#[derive(Clone, Debug)]
pub struct Program {
    /// Global variables.
    pub symbols: SymbolTable,
    /// Statement arena; `stmts[i].id == StmtId(i)`.
    pub stmts: Vec<Stmt>,
    /// Procedures; exactly one has `is_main == true`.
    pub procedures: Vec<Procedure>,
}

impl Program {
    /// The statement for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this program.
    pub fn stmt(&self, id: StmtId) -> &Stmt {
        &self.stmts[id.index()]
    }

    /// Mutable access to the statement for `id`.
    pub fn stmt_mut(&mut self, id: StmtId) -> &mut Stmt {
        &mut self.stmts[id.index()]
    }

    /// The procedure for `id`.
    pub fn procedure(&self, id: ProcId) -> &Procedure {
        &self.procedures[id.index()]
    }

    /// Finds a procedure by (case-insensitive) name.
    pub fn find_procedure(&self, name: &str) -> Option<ProcId> {
        let lower = name.to_ascii_lowercase();
        self.procedures
            .iter()
            .position(|p| p.name == lower)
            .map(|i| ProcId(i as u32))
    }

    /// The `program` unit.
    ///
    /// # Panics
    ///
    /// Panics if the program has no main unit (cannot happen for a parsed
    /// program).
    pub fn main(&self) -> ProcId {
        ProcId(
            self.procedures
                .iter()
                .position(|p| p.is_main)
                .expect("program has a main unit") as u32,
        )
    }

    /// Human-readable label for a loop statement: `PROC/do140` or
    /// `PROC/do@line`.
    pub fn loop_label(&self, proc: ProcId, loop_stmt: StmtId) -> String {
        let pname = self.procedures[proc.index()].name.to_ascii_uppercase();
        match &self.stmt(loop_stmt).kind {
            StmtKind::Do { label: Some(l), .. } => format!("{pname}/do{l}"),
            StmtKind::Do { .. } => format!("{pname}/do@{}", self.stmt(loop_stmt).loc.line),
            StmtKind::While { .. } => format!("{pname}/while@{}", self.stmt(loop_stmt).loc.line),
            _ => format!("{pname}/{loop_stmt}"),
        }
    }

    /// All statements (transitively) inside `body`, in pre-order.
    pub fn stmts_in(&self, body: &[StmtId]) -> Vec<StmtId> {
        let mut out = Vec::new();
        let mut stack = vec![body.iter()];
        while let Some(top) = stack.last_mut() {
            let Some(&id) = top.next() else {
                stack.pop();
                continue;
            };
            out.push(id);
            match &self.stmt(id).kind {
                StmtKind::Do { body, .. } | StmtKind::While { body, .. } => stack.push(body.iter()),
                StmtKind::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    stack.push(else_body.iter());
                    stack.push(then_body.iter());
                }
                _ => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    #[test]
    fn expr_helpers_build_expected_shapes() {
        let e = Expr::add(Expr::int(1), Expr::int(2));
        assert_eq!(
            e,
            Expr::Bin(
                BinOp::Add,
                Box::new(Expr::IntLit(1)),
                Box::new(Expr::IntLit(2))
            )
        );
        assert_eq!(Expr::int(7).as_int_lit(), Some(7));
        assert_eq!(e.as_int_lit(), None);
    }

    #[test]
    fn collect_vars_sees_subscripts() {
        let p = parse_program(
            "program t
             integer i
             real a(10), x
             x = a(i)
             end",
        )
        .unwrap();
        let (a, i) = (
            p.symbols.lookup("a").unwrap(),
            p.symbols.lookup("i").unwrap(),
        );
        let main = p.main();
        let StmtKind::Assign { rhs: e, .. } = &p.stmt(p.procedure(main).body[0]).kind else {
            panic!("the program is one assignment");
        };
        assert_eq!(*e, Expr::Element(a, vec![Expr::Var(i)]));
        let mut vars = Vec::new();
        e.collect_vars(&mut vars);
        assert!(vars.contains(&a) && vars.contains(&i));
        assert!(e.mentions(i));
    }

    #[test]
    fn stmts_in_is_preorder() {
        let p = parse_program(
            "program t
             integer i, x
             do i = 1, 10
               x = 1
               x = 2
             enddo
             end",
        )
        .unwrap();
        let main = p.main();
        let all = p.stmts_in(&p.procedure(main).body);
        assert_eq!(all.len(), 3); // do + two assigns
                                  // The loop comes first (pre-order).
        assert!(matches!(p.stmt(all[0]).kind, StmtKind::Do { .. }));
    }
}
