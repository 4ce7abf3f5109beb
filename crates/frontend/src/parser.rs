//! Recursive-descent parser for the mini-Fortran language.

use crate::ast::{
    BinOp, Expr, Intrinsic, LValue, Procedure, Program, Stmt, StmtId, StmtKind, UnOp,
};
use crate::diag::{ParseError, SourceLoc};
use crate::lexer::{lex, Kw, Spanned, Token, Word};
use crate::symbols::{ProcId, ScalarType, SymbolTable, VarId};
use std::borrow::Cow;

/// Parses a complete program (one `program` unit plus any number of
/// `subroutine` units, in any order).
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax or semantic
/// problem encountered (undeclared arrays, unknown call targets,
/// duplicate units, missing `program` unit, ...); an array extent that
/// is not a positive integer literal, or an array too large to
/// allocate, only when there is no other.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let lexed = lex(src)?;
    let parser = Parser {
        tokens: &lexed.tokens,
        pos: 0,
        depth: 0,
        symbols: SymbolTable::with_capacity(lexed.words),
        vars: vec![None; lexed.atoms],
        exprs: Vec::new(),
        ids: Vec::new(),
        stmts: Vec::with_capacity(lexed.newlines),
        procedures: Vec::new(),
        pending_calls: Vec::new(),
        bad_extent: None,
    };
    parser.parse()
}

/// Maximum combined statement/expression nesting depth. Real programs
/// nest a handful of levels; the limit exists because the parser is
/// recursive descent and a hostile `((((…` or thousand-deep loop nest
/// would otherwise overflow the stack — which aborts the process and
/// cannot be caught by a service's `catch_unwind`.
pub const MAX_NESTING_DEPTH: usize = 200;

struct Parser<'t> {
    /// Borrowed, so a token (and an identifier's text) can be held across
    /// `&mut self` calls without cloning it.
    tokens: &'t [Spanned<'t>],
    pos: usize,
    /// Current recursion depth (statements + expressions combined).
    depth: usize,
    symbols: SymbolTable,
    /// Per atom, the variable of that name once `symbols` has one: a
    /// name is looked up by its atom, never by its text.
    vars: Vec<Option<VarId>>,
    /// The expression lists and statement lists being parsed, innermost
    /// last: each is moved into a vector of exactly its length when it
    /// ends, instead of growing one of its own.
    exprs: Vec<Expr>,
    ids: Vec<StmtId>,
    stmts: Vec<Stmt>,
    procedures: Vec<Procedure>,
    /// `(stmt, callee-name, loc)` — resolved after all units are parsed so
    /// that forward calls work.
    pending_calls: Vec<(StmtId, Cow<'t, str>, SourceLoc)>,
    /// The first declaration whose extents are not an array's
    /// (`Parser::extents`), reported after every other error.
    bad_extent: Option<ParseError>,
}

impl<'t> Parser<'t> {
    fn peek(&self) -> &'t Token<'t> {
        &self.tokens[self.pos].token
    }

    fn peek2(&self) -> &'t Token<'t> {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].token
    }

    fn loc(&self) -> SourceLoc {
        self.tokens[self.pos].loc
    }

    /// Consumes and returns the current token; the final `Eof` is never
    /// stepped past.
    fn bump(&mut self) -> &'t Token<'t> {
        let t = self.peek();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg, self.loc())
    }

    fn expect(&mut self, t: &Token<'_>, what: &str) -> Result<(), ParseError> {
        if self.peek() == t {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn expect_newline(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            Token::Newline => {
                self.bump();
                Ok(())
            }
            Token::Eof => Ok(()),
            other => Err(self.err(format!("expected end of statement, found {other:?}"))),
        }
    }

    fn skip_newlines(&mut self) {
        while matches!(self.peek(), Token::Newline) {
            self.bump();
        }
    }

    fn eat_kw(&mut self, kw: Kw) -> bool {
        if self.peek().is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<&'t Word<'t>, ParseError> {
        match self.bump() {
            Token::Ident(w) => Ok(w),
            other => Err(ParseError::new(
                format!("expected {what}, found {other:?}"),
                self.tokens[self.pos.saturating_sub(1)].loc,
            )),
        }
    }

    /// Runs `f` one recursion level deeper, failing with a typed error
    /// (instead of a stack overflow) past [`MAX_NESTING_DEPTH`].
    fn with_depth<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth >= MAX_NESTING_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING_DEPTH} levels")));
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    /// The variable named `w`, if declared.
    fn lookup(&self, w: &Word<'_>) -> Option<VarId> {
        self.vars[w.atom.index()]
    }

    fn set_var(&mut self, w: &Word<'_>, v: VarId) {
        self.vars[w.atom.index()] = Some(v);
    }

    /// [`SymbolTable::intern_scalar`] by atom.
    fn intern_scalar(&mut self, w: &Word<'_>) -> VarId {
        if let Some(v) = self.lookup(w) {
            return v;
        }
        let v = self
            .symbols
            .push(w.text, ScalarType::implicit_for(w.text), Vec::new());
        self.set_var(w, v);
        v
    }

    /// [`SymbolTable::declare`] by atom.
    fn declare(&mut self, w: &Word<'_>, ty: ScalarType, dims: Vec<usize>) -> Result<VarId, String> {
        let v = self
            .symbols
            .declare_found(self.lookup(w), w.text, ty, dims)?;
        self.set_var(w, v);
        Ok(v)
    }

    fn new_stmt(&mut self, kind: StmtKind, loc: SourceLoc) -> StmtId {
        let id = StmtId(self.stmts.len() as u32);
        self.stmts.push(Stmt { id, kind, loc });
        id
    }

    fn parse(mut self) -> Result<Program, ParseError> {
        self.skip_newlines();
        while !matches!(self.peek(), Token::Eof) {
            self.parse_unit()?;
            self.skip_newlines();
        }
        if !self.procedures.iter().any(|p| p.is_main) {
            return Err(ParseError::new(
                "missing `program` unit",
                SourceLoc::synthetic(),
            ));
        }
        // Resolve calls now that every unit is known.
        for (stmt, name, loc) in std::mem::take(&mut self.pending_calls) {
            let target = self
                .procedures
                .iter()
                .position(|p| p.name == name)
                .ok_or_else(|| {
                    ParseError::new(format!("call to unknown procedure `{name}`"), loc)
                })?;
            self.stmts[stmt.index()].kind = StmtKind::Call {
                proc: ProcId(target as u32),
            };
        }
        if let Some(e) = self.bad_extent {
            return Err(e);
        }
        Ok(Program {
            symbols: self.symbols,
            stmts: self.stmts,
            procedures: self.procedures,
        })
    }

    fn parse_unit(&mut self) -> Result<(), ParseError> {
        let is_main = if self.eat_kw(Kw::Program) {
            true
        } else if self.eat_kw(Kw::Subroutine) {
            false
        } else {
            return Err(self.err("expected `program` or `subroutine`"));
        };
        let name = self.expect_ident("unit name")?.name();
        if self.procedures.iter().any(|p| p.name == name) {
            return Err(self.err(format!("duplicate unit `{name}`")));
        }
        self.expect_newline()?;
        let body = self.parse_stmts(&mut None)?;
        if !self.eat_kw(Kw::End) {
            return Err(self.err("expected `end`"));
        }
        self.expect_newline()?;
        self.procedures.push(Procedure {
            name: name.into_owned(),
            is_main,
            body,
        });
        Ok(())
    }

    /// Parses statements until a block terminator. When `close_label` is
    /// `Some(label)`, the sequence may be terminated by `label continue`.
    fn parse_stmts(&mut self, close_label: &mut Option<u32>) -> Result<Vec<StmtId>, ParseError> {
        let base = self.ids.len();
        loop {
            self.skip_newlines();
            match self.peek() {
                Token::Eof => break,
                Token::Ident(w) if Kw::closes_block(w.atom) => break,
                Token::Int(v) => {
                    // `NNN continue` closes a labeled do loop.
                    let v = *v;
                    if close_label.is_some_and(|l| l as i64 == v)
                        && self.peek2().is_kw(Kw::Continue)
                    {
                        self.bump();
                        self.bump();
                        *close_label = None; // consumed
                        break;
                    }
                    return Err(self.err("unexpected integer label"));
                }
                _ => {
                    if let Some(s) = self.parse_stmt()? {
                        self.ids.push(s);
                    }
                }
            }
        }
        Ok(self.ids.drain(base..).collect())
    }

    /// Parses one statement (or a declaration, which produces no
    /// statement).
    fn parse_stmt(&mut self) -> Result<Option<StmtId>, ParseError> {
        self.with_depth(|p| p.parse_stmt_inner())
    }

    fn parse_stmt_inner(&mut self) -> Result<Option<StmtId>, ParseError> {
        let loc = self.loc();
        let head = match self.peek() {
            Token::Ident(w) => Kw::from_atom(w.atom),
            other => return Err(self.err(format!("expected statement, found {other:?}"))),
        };
        match head {
            Some(Kw::Integer | Kw::Real) => {
                self.parse_decl()?;
                Ok(None)
            }
            Some(Kw::Do) => {
                // `do while (...)` or counted do.
                if self.peek2().is_kw(Kw::While) {
                    self.bump();
                    self.parse_while(loc).map(Some)
                } else {
                    self.parse_do(loc).map(Some)
                }
            }
            Some(Kw::While) => self.parse_while(loc).map(Some),
            Some(Kw::If) => self.parse_if(loc).map(Some),
            Some(Kw::Call) => {
                self.bump();
                let name = self.expect_ident("procedure name")?.name();
                self.expect_newline()?;
                // Placeholder target resolved at end of parse.
                let id = self.new_stmt(
                    StmtKind::Call {
                        proc: ProcId(u32::MAX),
                    },
                    loc,
                );
                self.pending_calls.push((id, name, loc));
                Ok(Some(id))
            }
            Some(Kw::Print) => {
                self.bump();
                // Optional Fortran `print *,` prefix.
                if matches!(self.peek(), Token::Star) {
                    self.bump();
                    self.expect(&Token::Comma, "`,` after `print *`")?;
                }
                let args = self.parse_exprs()?;
                self.expect_newline()?;
                Ok(Some(self.new_stmt(StmtKind::Print { args }, loc)))
            }
            Some(Kw::Return) => {
                self.bump();
                self.expect_newline()?;
                Ok(Some(self.new_stmt(StmtKind::Return, loc)))
            }
            _ => self.parse_assign(loc).map(Some),
        }
    }

    fn parse_decl(&mut self) -> Result<(), ParseError> {
        let ty = if self.eat_kw(Kw::Integer) {
            ScalarType::Int
        } else {
            self.bump(); // `real`
            ScalarType::Real
        };
        loop {
            let loc = self.loc();
            let name = self.expect_ident("variable name")?;
            let base = self.exprs.len();
            if matches!(self.peek(), Token::LParen) {
                self.bump();
                self.push_exprs()?;
                self.expect(&Token::RParen, "`)`")?;
            }
            let dims = self.extents(&name.name(), base, loc);
            self.declare(name, ty, dims)
                .map_err(|m| ParseError::new(m, loc))?;
            if matches!(self.peek(), Token::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        self.expect_newline()
    }

    /// The extents of `name`'s declaration, fixed here so every array has
    /// its size before the program starts: each a positive integer
    /// literal, and the array's bytes (8 an element, `i64` or `f64`) one
    /// allocation. A declaration that breaks the rule is recorded in
    /// `bad_extent`, reported once the program parsed (a syntax error
    /// anywhere comes first), and declares its array with extent 1.
    /// The extent expressions are `self.exprs[base..]`, which this
    /// takes off the stack.
    fn extents(&mut self, name: &str, base: usize, loc: SourceLoc) -> Vec<usize> {
        let literal = |e: &Expr| match e {
            Expr::IntLit(v) if *v > 0 => usize::try_from(*v).ok(),
            _ => None,
        };
        let rank = self.exprs.len() - base;
        let dims: Option<Vec<usize>> = self.exprs[base..].iter().map(literal).collect();
        self.exprs.truncate(base);
        let msg = match dims {
            None => format!("array `{name}`: an extent must be a positive integer literal"),
            Some(dims) => {
                let bytes = dims.iter().try_fold(8usize, |b, &d| b.checked_mul(d));
                if bytes.is_some_and(|b| b <= isize::MAX as usize) {
                    return dims;
                }
                format!("array `{name}` is too large to allocate")
            }
        };
        self.bad_extent.get_or_insert(ParseError::new(msg, loc));
        vec![1; rank]
    }

    fn parse_do(&mut self, loc: SourceLoc) -> Result<StmtId, ParseError> {
        self.bump(); // `do`
        let label = match self.peek() {
            Token::Int(v) if *v >= 0 => {
                let v = *v;
                // `v as u32` would silently truncate a hostile label
                // (e.g. 4294967296 → 0) and corrupt loop matching.
                let v = u32::try_from(v)
                    .map_err(|_| self.err(format!("statement label `{v}` out of range")))?;
                self.bump();
                Some(v)
            }
            _ => None,
        };
        let var_name = self.expect_ident("loop variable")?;
        let var = self.intern_scalar(var_name);
        self.expect(&Token::Assign, "`=`")?;
        let lo = self.parse_expr()?;
        self.expect(&Token::Comma, "`,`")?;
        let hi = self.parse_expr()?;
        let step = if matches!(self.peek(), Token::Comma) {
            self.bump();
            Some(self.parse_expr()?)
        } else {
            None
        };
        self.expect_newline()?;
        let mut close = label;
        let body = self.parse_stmts(&mut close)?;
        if close.is_some() {
            // Not closed by `label continue`; expect enddo / end do.
            self.expect_enddo()?;
        } else if label.is_none() {
            self.expect_enddo()?;
        }
        self.expect_newline()?;
        Ok(self.new_stmt(
            StmtKind::Do {
                var,
                lo,
                hi,
                step,
                body,
                label,
            },
            loc,
        ))
    }

    fn expect_enddo(&mut self) -> Result<(), ParseError> {
        if self.eat_kw(Kw::Enddo) {
            return Ok(());
        }
        if self.peek().is_kw(Kw::End) && self.peek2().is_kw(Kw::Do) {
            self.bump();
            self.bump();
            return Ok(());
        }
        Err(self.err("expected `enddo`"))
    }

    fn parse_while(&mut self, loc: SourceLoc) -> Result<StmtId, ParseError> {
        self.bump(); // `while`
        self.expect(&Token::LParen, "`(`")?;
        let cond = self.parse_expr()?;
        self.expect(&Token::RParen, "`)`")?;
        self.expect_newline()?;
        let body = self.parse_stmts(&mut None)?;
        if self.eat_kw(Kw::Endwhile) || self.eat_kw(Kw::Enddo) {
            // ok
        } else if self.peek().is_kw(Kw::End)
            && (self.peek2().is_kw(Kw::While) || self.peek2().is_kw(Kw::Do))
        {
            self.bump();
            self.bump();
        } else {
            return Err(self.err("expected `endwhile` or `enddo`"));
        }
        self.expect_newline()?;
        Ok(self.new_stmt(StmtKind::While { cond, body }, loc))
    }

    fn parse_if(&mut self, loc: SourceLoc) -> Result<StmtId, ParseError> {
        self.bump(); // `if`
        self.expect(&Token::LParen, "`(`")?;
        let cond = self.parse_expr()?;
        self.expect(&Token::RParen, "`)`")?;
        if self.eat_kw(Kw::Then) {
            self.expect_newline()?;
            let then_body = self.parse_stmts(&mut None)?;
            let else_body = if self.peek().is_kw(Kw::Elseif)
                || (self.peek().is_kw(Kw::Else) && self.peek2().is_kw(Kw::If))
            {
                // `elseif (...) then` — parse the rest as a nested if.
                if self.eat_kw(Kw::Elseif) {
                    // rewind trick: re-insert an `if` by parsing directly
                    let nested_loc = self.loc();
                    let nested = self.with_depth(|p| p.parse_if_after_keyword(nested_loc))?;
                    return Ok(self.finish_if(cond, then_body, vec![nested], loc));
                } else {
                    self.bump(); // else
                    let nested_loc = self.loc();
                    self.bump(); // if
                    let nested = self.with_depth(|p| p.parse_if_after_keyword(nested_loc))?;
                    return Ok(self.finish_if(cond, then_body, vec![nested], loc));
                }
            } else if self.eat_kw(Kw::Else) {
                self.expect_newline()?;
                self.parse_stmts(&mut None)?
            } else {
                Vec::new()
            };
            self.expect_endif()?;
            self.expect_newline()?;
            Ok(self.finish_if(cond, then_body, else_body, loc))
        } else {
            // One-line if: `if (cond) stmt`.
            let inner = self
                .parse_stmt()?
                .ok_or_else(|| self.err("expected a statement after one-line `if`"))?;
            Ok(self.new_stmt(
                StmtKind::If {
                    cond,
                    then_body: vec![inner],
                    else_body: Vec::new(),
                },
                loc,
            ))
        }
    }

    /// Parses the `(cond) then ... endif` part of an `elseif` chain. The
    /// closing `endif` of the chain is shared, so this does not consume it.
    fn parse_if_after_keyword(&mut self, loc: SourceLoc) -> Result<StmtId, ParseError> {
        self.expect(&Token::LParen, "`(`")?;
        let cond = self.parse_expr()?;
        self.expect(&Token::RParen, "`)`")?;
        if !self.eat_kw(Kw::Then) {
            return Err(self.err("expected `then` after `elseif (...)`"));
        }
        self.expect_newline()?;
        let then_body = self.parse_stmts(&mut None)?;
        let else_body = if self.peek().is_kw(Kw::Elseif)
            || (self.peek().is_kw(Kw::Else) && self.peek2().is_kw(Kw::If))
        {
            if self.eat_kw(Kw::Elseif) {
                let nested_loc = self.loc();
                let nested = self.with_depth(|p| p.parse_if_after_keyword(nested_loc))?;
                vec![nested]
            } else {
                self.bump();
                let nested_loc = self.loc();
                self.bump();
                let nested = self.with_depth(|p| p.parse_if_after_keyword(nested_loc))?;
                vec![nested]
            }
        } else if self.eat_kw(Kw::Else) {
            self.expect_newline()?;
            self.parse_stmts(&mut None)?
        } else {
            Vec::new()
        };
        // Note: endif is consumed by the outermost caller for elseif
        // chains; since we recursed, consume it here and signal up by
        // producing the statement. The outer caller uses finish_if without
        // re-consuming.
        self.expect_endif()?;
        self.expect_newline()?;
        Ok(self.finish_if(cond, then_body, else_body, loc))
    }

    fn finish_if(
        &mut self,
        cond: Expr,
        then_body: Vec<StmtId>,
        else_body: Vec<StmtId>,
        loc: SourceLoc,
    ) -> StmtId {
        self.new_stmt(
            StmtKind::If {
                cond,
                then_body,
                else_body,
            },
            loc,
        )
    }

    fn expect_endif(&mut self) -> Result<(), ParseError> {
        if self.eat_kw(Kw::Endif) {
            return Ok(());
        }
        if self.peek().is_kw(Kw::End) && self.peek2().is_kw(Kw::If) {
            self.bump();
            self.bump();
            return Ok(());
        }
        Err(self.err("expected `endif`"))
    }

    fn parse_assign(&mut self, loc: SourceLoc) -> Result<StmtId, ParseError> {
        let name = self.expect_ident("assignment target")?;
        let lhs = if matches!(self.peek(), Token::LParen) {
            let var = self
                .lookup(name)
                .filter(|v| self.symbols.var(*v).is_array())
                .ok_or_else(|| {
                    self.err(format!("assignment to undeclared array `{}`", name.name()))
                })?;
            self.bump();
            let subs = self.parse_exprs()?;
            self.expect(&Token::RParen, "`)`")?;
            let rank = self.symbols.var(var).rank();
            if subs.len() != rank {
                return Err(self.err(format!(
                    "array `{}` has rank {rank} but {} subscripts given",
                    name.name(),
                    subs.len()
                )));
            }
            LValue::Element(var, subs)
        } else {
            LValue::Scalar(self.intern_scalar(name))
        };
        self.expect(&Token::Assign, "`=`")?;
        let rhs = self.parse_expr()?;
        self.expect_newline()?;
        Ok(self.new_stmt(StmtKind::Assign { lhs, rhs }, loc))
    }

    // ----- expressions ---------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.with_depth(|p| p.parse_binary(OR))
    }

    /// `expr (, expr)*`, pushed on `self.exprs`.
    fn push_exprs(&mut self) -> Result<(), ParseError> {
        loop {
            let e = self.parse_expr()?;
            self.exprs.push(e);
            if !matches!(self.peek(), Token::Comma) {
                return Ok(());
            }
            self.bump();
        }
    }

    /// `expr (, expr)*`, in a vector of exactly its length.
    fn parse_exprs(&mut self) -> Result<Vec<Expr>, ParseError> {
        let base = self.exprs.len();
        self.push_exprs()?;
        Ok(self.exprs.drain(base..).collect())
    }

    /// Precedence climbing over the binary operators whose precedence is
    /// at least `min` (see [`binary_op`]). Every operator associates to
    /// the left but the comparisons, which do not chain: once an operand
    /// holds one, only `&&` and `||` may follow it. A `!` where an
    /// operand of `&&` may start takes a whole comparison, so after it
    /// too only `&&` and `||` follow.
    fn parse_binary(&mut self, min: u8) -> Result<Expr, ParseError> {
        let (mut lhs, mut max) = if min <= NOT && matches!(self.peek(), Token::Not) {
            self.bump();
            let inner = self.with_depth(|p| p.parse_binary(NOT))?;
            (Expr::Un(UnOp::Not, Box::new(inner)), AND)
        } else {
            (self.parse_unary()?, MUL)
        };
        while let Some((op, prec)) = binary_op(self.peek()) {
            if prec < min || prec > max {
                break;
            }
            self.bump();
            let rhs = self.parse_binary(prec + 1)?;
            lhs = Expr::bin(op, lhs, rhs);
            max = if prec == CMP { AND } else { prec };
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Token::Minus => {
                self.bump();
                let inner = self.with_depth(|p| p.parse_unary())?;
                Ok(Expr::Un(UnOp::Neg, Box::new(inner)))
            }
            Token::Plus => {
                self.bump();
                self.with_depth(|p| p.parse_unary())
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        let loc = self.loc();
        match self.bump() {
            Token::Int(v) => Ok(Expr::IntLit(*v)),
            Token::Real(v) => Ok(Expr::RealLit(*v)),
            Token::LParen => {
                let inner = self.parse_expr()?;
                self.expect(&Token::RParen, "`)`")?;
                Ok(inner)
            }
            Token::Ident(name) => {
                if matches!(self.peek(), Token::LParen) {
                    // Array reference or intrinsic call.
                    let declared_array = self
                        .lookup(name)
                        .filter(|v| self.symbols.var(*v).is_array());
                    self.bump();
                    let args = self.parse_exprs()?;
                    self.expect(&Token::RParen, "`)`")?;
                    if let Some(var) = declared_array {
                        let rank = self.symbols.var(var).rank();
                        if args.len() != rank {
                            return Err(ParseError::new(
                                format!(
                                    "array `{}` has rank {rank} but {} subscripts given",
                                    name.name(),
                                    args.len()
                                ),
                                loc,
                            ));
                        }
                        return Ok(Expr::Element(var, args));
                    }
                    if let Some(intr) = Intrinsic::from_name(&name.name()) {
                        return Ok(Expr::Call(intr, args));
                    }
                    Err(ParseError::new(
                        format!("`{}` is not a declared array or intrinsic", name.name()),
                        loc,
                    ))
                } else {
                    Ok(Expr::Var(self.intern_scalar(name)))
                }
            }
            other => Err(ParseError::new(
                format!("expected expression, found {other:?}"),
                loc,
            )),
        }
    }
}

/// The binary precedence levels, loosest first; `!` sits between `&&`
/// and the comparisons.
const OR: u8 = 1;
const AND: u8 = 2;
const NOT: u8 = 3;
const CMP: u8 = 4;
const ADD: u8 = 5;
const MUL: u8 = 6;

/// The binary operator `t` spells, with its precedence.
fn binary_op(t: &Token<'_>) -> Option<(BinOp, u8)> {
    Some(match t {
        Token::Or => (BinOp::Or, OR),
        Token::And => (BinOp::And, AND),
        Token::EqEq => (BinOp::Eq, CMP),
        Token::NotEq => (BinOp::Ne, CMP),
        Token::Lt => (BinOp::Lt, CMP),
        Token::Le => (BinOp::Le, CMP),
        Token::Gt => (BinOp::Gt, CMP),
        Token::Ge => (BinOp::Ge, CMP),
        Token::Plus => (BinOp::Add, ADD),
        Token::Minus => (BinOp::Sub, ADD),
        Token::Star => (BinOp::Mul, MUL),
        Token::Slash => (BinOp::Div, MUL),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Program {
        parse_program(src).unwrap_or_else(|e| panic!("{e}\nsource:\n{src}"))
    }

    #[test]
    fn minimal_program() {
        let p = parse("program t\nx = 1\nend\n");
        assert_eq!(p.procedures.len(), 1);
        assert!(p.procedures[0].is_main);
        assert_eq!(p.procedures[0].body.len(), 1);
    }

    #[test]
    fn missing_program_unit_is_error() {
        assert!(parse_program("subroutine s\nx = 1\nend\n").is_err());
    }

    #[test]
    fn do_loop_with_label_and_continue() {
        let p = parse(
            "program t
             integer i, n
             real x(10)
             do 140 i = 1, n
               x(i) = i
 140         continue
             end",
        );
        let main = p.main();
        let body = &p.procedure(main).body;
        match &p.stmt(body[0]).kind {
            StmtKind::Do { label, body, .. } => {
                assert_eq!(*label, Some(140));
                assert_eq!(body.len(), 1);
            }
            other => panic!("expected do, got {other:?}"),
        }
        assert_eq!(p.loop_label(main, body[0]), "T/do140");
    }

    #[test]
    fn nested_do_while_if() {
        let p = parse(
            "program t
             integer i, p, n
             real x(100), y(100)
             p = 0
             do i = 1, n
               while (p < 10)
                 p = p + 1
                 x(p) = y(i)
               endwhile
               if (p >= 1) then
                 y(i) = x(p)
                 p = p - 1
               else
                 y(i) = 0
               endif
             enddo
             end",
        );
        let main = p.main();
        let all = p.stmts_in(&p.procedure(main).body);
        assert!(all.len() >= 8);
    }

    #[test]
    fn one_line_if() {
        let p = parse("program t\ninteger q, i\nif (i > 0) q = q + 1\nend\n");
        let body = &p.procedure(p.main()).body;
        match &p.stmt(body[0]).kind {
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                assert_eq!(then_body.len(), 1);
                assert!(else_body.is_empty());
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn elseif_chain() {
        let p = parse(
            "program t
             integer a, b
             if (a > 0) then
               b = 1
             elseif (a < 0) then
               b = 2
             else
               b = 3
             endif
             end",
        );
        let body = &p.procedure(p.main()).body;
        match &p.stmt(body[0]).kind {
            StmtKind::If { else_body, .. } => {
                assert_eq!(else_body.len(), 1);
                assert!(matches!(p.stmt(else_body[0]).kind, StmtKind::If { .. }));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn call_resolution_is_order_independent() {
        let p = parse(
            "program t
             call s
             end
             subroutine s
             x = 1
             end",
        );
        let body = &p.procedure(p.main()).body;
        match &p.stmt(body[0]).kind {
            StmtKind::Call { proc } => {
                assert_eq!(p.procedure(*proc).name, "s");
            }
            other => panic!("expected call, got {other:?}"),
        }
        // Forward reference also works: subroutine defined before program.
        let p2 = parse(
            "subroutine s
             x = 1
             end
             program t
             call s
             end",
        );
        assert!(p2.find_procedure("s").is_some());
    }

    #[test]
    fn unknown_call_is_error() {
        assert!(parse_program("program t\ncall nope\nend\n").is_err());
    }

    #[test]
    fn undeclared_array_is_error() {
        assert!(parse_program("program t\nq(1) = 2\nend\n").is_err());
    }

    #[test]
    fn rank_mismatch_is_error() {
        assert!(parse_program("program t\nreal a(5,5)\na(1) = 2\nend\n").is_err());
        assert!(parse_program("program t\nreal a(5)\nx = a(1,2)\nend\n").is_err());
    }

    #[test]
    fn intrinsics_parse() {
        let p = parse("program t\nx = min(1, 2) + sqrt(4.0) + mod(7, 3)\nend\n");
        let body = &p.procedure(p.main()).body;
        match &p.stmt(body[0]).kind {
            StmtKind::Assign { rhs, .. } => {
                let mut vars = Vec::new();
                rhs.collect_vars(&mut vars);
                assert!(vars.is_empty());
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn nested_indirect_subscripts() {
        let p = parse(
            "program t
             integer pos(10), k
             real x(10), y(10)
             y(k) = x(pos(k))
             end",
        );
        let body = &p.procedure(p.main()).body;
        match &p.stmt(body[0]).kind {
            StmtKind::Assign { rhs, .. } => match rhs {
                Expr::Element(_, subs) => {
                    assert!(matches!(subs[0], Expr::Element(..)));
                }
                other => panic!("expected element, got {other:?}"),
            },
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn do_while_form() {
        let p = parse(
            "program t
             integer i
             do while (i < 10)
               i = i + 1
             enddo
             end",
        );
        let body = &p.procedure(p.main()).body;
        assert!(matches!(p.stmt(body[0]).kind, StmtKind::While { .. }));
    }

    #[test]
    fn print_statement() {
        let p = parse("program t\nprint *, 1, 2\nprint 3\nend\n");
        let body = &p.procedure(p.main()).body;
        match &p.stmt(body[0]).kind {
            StmtKind::Print { args } => assert_eq!(args.len(), 2),
            other => panic!("expected print, got {other:?}"),
        }
    }

    #[test]
    fn do_with_step() {
        let p = parse("program t\ninteger i\ndo i = 1, 10, 2\ni = i\nenddo\nend\n");
        let body = &p.procedure(p.main()).body;
        match &p.stmt(body[0]).kind {
            StmtKind::Do { step, .. } => assert!(step.is_some()),
            other => panic!("expected do, got {other:?}"),
        }
    }

    #[test]
    fn one_precedence_loop_keeps_the_seven_levels() {
        // Each expression as the recursive descent of one function per
        // level parsed it: left-associative arithmetic and logic, a
        // `.not.` over a whole comparison, and comparisons that do not
        // chain (a second one ends the expression where it stands).
        let cases = [
            (
                "a - b - c * d / e + f",
                "if ((((a - b) - ((c * d) / e)) + f)) then",
            ),
            ("-a * -b", "if (((-a) * (-b))) then"),
            (
                "a + b < c * d .and. e >= f .or. g /= h",
                "if (((((a + b) < (c * d)) .and. (e >= f)) .or. (g /= h))) then",
            ),
            (
                ".not. a < b .and. .not. .not. c",
                "if (((.not. (a < b)) .and. (.not. (.not. c)))) then",
            ),
            (
                "a .and. .not. b .or. c",
                "if (((a .and. (.not. b)) .or. c)) then",
            ),
            (
                "a || b && c || d",
                "if (((a .or. (b .and. c)) .or. d)) then",
            ),
            ("(a < b) < c", "if (((a < b) < c)) then"),
            ("a < b < c", "parse error at 2:11: expected `)`, found Lt"),
            (
                ".not. a < b < c",
                "parse error at 2:17: expected `)`, found Lt",
            ),
            (
                "a && b < c < d",
                "parse error at 2:16: expected `)`, found Lt",
            ),
            (
                "a < .not. b",
                "parse error at 2:9: expected expression, found Not",
            ),
            (
                "a + .not. b",
                "parse error at 2:9: expected expression, found Not",
            ),
        ];
        for (e, want) in cases {
            let src = format!("program t\nif ({e}) x = 1\nend\n");
            let got = match parse_program(&src) {
                Ok(p) => crate::print_program(&p)
                    .lines()
                    .nth(1)
                    .unwrap()
                    .trim()
                    .to_string(),
                Err(err) => err.to_string(),
            };
            assert_eq!(got, want, "{e}");
        }
    }

    #[test]
    fn operator_precedence() {
        let p = parse("program t\nx = 1 + 2 * 3\nend\n");
        let body = &p.procedure(p.main()).body;
        match &p.stmt(body[0]).kind {
            StmtKind::Assign { rhs, .. } => match rhs {
                Expr::Bin(BinOp::Add, _, r) => {
                    assert!(matches!(**r, Expr::Bin(BinOp::Mul, _, _)));
                }
                other => panic!("expected add at top, got {other:?}"),
            },
            other => panic!("expected assign, got {other:?}"),
        }
    }
}
