//! Mini-Fortran frontend for the irregular-memory-access analysis suite.
//!
//! This crate implements the language substrate that the analyses from
//! Lin & Padua, *Compiler Analysis of Irregular Memory Accesses*
//! (PLDI 2000) operate on: a small Fortran-like language with `do` loops,
//! `while` loops, `if` statements, procedure calls, and multi-dimensional
//! arrays.
//!
//! Following the paper's stated interprocedural model (§3.2.1), there is
//! **no parameter passing**: all variables live in a single global scope and
//! procedures communicate through globals. Undeclared scalars follow
//! Fortran implicit typing (`i`–`n` are integers, the rest are reals).
//!
//! # Example
//!
//! ```
//! use irr_frontend::parse_program;
//!
//! let src = "
//! program demo
//!   integer i, n
//!   real x(100)
//!   n = 100
//!   do i = 1, n
//!     x(i) = i * 2
//!   enddo
//! end
//! ";
//! let program = parse_program(src).expect("parse");
//! assert_eq!(program.procedures.len(), 1);
//! ```

pub mod ast;
pub mod corpus;
pub mod diag;
pub mod hash;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod symbols;
pub mod visit;

pub use ast::{BinOp, Expr, Intrinsic, LValue, Procedure, Program, Stmt, StmtId, StmtKind, UnOp};
pub use corpus::{malformed_corpus, CorpusCase};
pub use diag::{ParseError, SourceLoc};
pub use hash::{FxHashMap, FxHashSet};
pub use parser::parse_program;
pub use printer::print_program;
pub use symbols::{ProcId, ScalarType, SymbolTable, VarId, VarInfo};
