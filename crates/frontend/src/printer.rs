//! Pretty-printer that regenerates parsable source from an AST.
//!
//! `parse(print(p))` is structurally identical to `p` (used by the
//! round-trip property tests).

use crate::ast::{BinOp, Expr, LValue, Program, StmtId, StmtKind, UnOp};
use crate::symbols::{ScalarType, SymbolTable};
use std::fmt::Write as _;

/// Renders a whole program as mini-Fortran source.
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    // Declarations first (all variables are global; declare them in the
    // main unit so a reparse reconstructs the same table).
    for (i, proc) in p.procedures.iter().enumerate() {
        if proc.is_main {
            let _ = writeln!(out, "program {}", proc.name);
            print_decls(&p.symbols, &mut out);
        } else {
            let _ = writeln!(out, "subroutine {}", proc.name);
        }
        print_body(p, &proc.body, 1, &mut out);
        let _ = writeln!(out, "end");
        if i + 1 < p.procedures.len() {
            out.push('\n');
        }
    }
    out
}

fn print_decls(symbols: &SymbolTable, out: &mut String) {
    for (_, v) in symbols.iter() {
        let kw = match v.ty {
            ScalarType::Int => "integer",
            ScalarType::Real => "real",
        };
        if v.dims.is_empty() {
            // Scalars with implicit-compatible types need no declaration,
            // but printing them keeps explicitly-typed scalars correct.
            if ScalarType::implicit_for(&v.name) != v.ty {
                let _ = writeln!(out, "  {kw} {}", v.name);
            }
        } else {
            let dims: Vec<String> = v.dims.iter().map(usize::to_string).collect();
            let _ = writeln!(out, "  {kw} {}({})", v.name, dims.join(", "));
        }
    }
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn print_body(p: &Program, body: &[StmtId], depth: usize, out: &mut String) {
    for &s in body {
        print_stmt(p, s, depth, out);
    }
}

fn print_stmt(p: &Program, id: StmtId, depth: usize, out: &mut String) {
    let stmt = p.stmt(id);
    indent(depth, out);
    match &stmt.kind {
        StmtKind::Assign { lhs, rhs } => {
            let target = match lhs {
                LValue::Scalar(v) => p.symbols.name(*v).to_string(),
                LValue::Element(v, subs) => {
                    let subs: Vec<String> = subs.iter().map(print_expr_in(p)).collect();
                    format!("{}({})", p.symbols.name(*v), subs.join(", "))
                }
            };
            let _ = writeln!(out, "{target} = {}", print_expr_full(p, rhs));
        }
        StmtKind::Do {
            var,
            lo,
            hi,
            step,
            body,
            label,
        } => {
            let lbl = label.map(|l| format!("{l} ")).unwrap_or_default();
            let step_str = step
                .as_ref()
                .map(|s| format!(", {}", print_expr_full(p, s)))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "do {lbl}{} = {}, {}{step_str}",
                p.symbols.name(*var),
                print_expr_full(p, lo),
                print_expr_full(p, hi)
            );
            print_body(p, body, depth + 1, out);
            indent(depth, out);
            if let Some(l) = label {
                let _ = writeln!(out, "{l} continue");
            } else {
                let _ = writeln!(out, "enddo");
            }
        }
        StmtKind::While { cond, body } => {
            let _ = writeln!(out, "while ({})", print_expr_full(p, cond));
            print_body(p, body, depth + 1, out);
            indent(depth, out);
            let _ = writeln!(out, "endwhile");
        }
        StmtKind::If {
            cond,
            then_body,
            else_body,
        } => {
            let _ = writeln!(out, "if ({}) then", print_expr_full(p, cond));
            print_body(p, then_body, depth + 1, out);
            if !else_body.is_empty() {
                indent(depth, out);
                let _ = writeln!(out, "else");
                print_body(p, else_body, depth + 1, out);
            }
            indent(depth, out);
            let _ = writeln!(out, "endif");
        }
        StmtKind::Call { proc } => {
            let _ = writeln!(out, "call {}", p.procedure(*proc).name);
        }
        StmtKind::Print { args } => {
            let args: Vec<String> = args.iter().map(print_expr_in(p)).collect();
            let _ = writeln!(out, "print {}", args.join(", "));
        }
        StmtKind::Return => {
            let _ = writeln!(out, "return");
        }
    }
}

fn print_expr_in(p: &Program) -> impl Fn(&Expr) -> String + '_ {
    move |e| print_expr_full(p, e)
}

/// Renders an expression with variable names.
pub fn print_expr_full(p: &Program, e: &Expr) -> String {
    render(e, &p.symbols)
}

fn render(e: &Expr, symbols: &SymbolTable) -> String {
    match e {
        Expr::IntLit(v) => {
            if *v < 0 {
                format!("({v})")
            } else {
                v.to_string()
            }
        }
        Expr::RealLit(v) => {
            let s = format!("{v:?}");
            if *v < 0.0 {
                format!("({s})")
            } else {
                s
            }
        }
        Expr::Var(v) => symbols.name(*v).to_string(),
        Expr::Element(v, subs) => {
            let subs: Vec<String> = subs.iter().map(|s| render(s, symbols)).collect();
            format!("{}({})", symbols.name(*v), subs.join(", "))
        }
        Expr::Bin(op, a, b) => {
            let op_str = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Mod => {
                    return format!("mod({}, {})", render(a, symbols), render(b, symbols))
                }
                BinOp::Eq => "==",
                BinOp::Ne => "/=",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
                BinOp::And => ".and.",
                BinOp::Or => ".or.",
            };
            format!("({} {op_str} {})", render(a, symbols), render(b, symbols))
        }
        Expr::Un(UnOp::Neg, a) => format!("(-{})", render(a, symbols)),
        Expr::Un(UnOp::Not, a) => format!("(.not. {})", render(a, symbols)),
        Expr::Call(intr, args) => {
            let args: Vec<String> = args.iter().map(|s| render(s, symbols)).collect();
            format!("{}({})", intr.name(), args.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn roundtrip(src: &str) {
        let p1 = parse_program(src).expect("first parse");
        let printed = print_program(&p1);
        let p2 = parse_program(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\nprinted:\n{printed}"));
        let printed2 = print_program(&p2);
        assert_eq!(printed, printed2, "printer not idempotent");
    }

    #[test]
    fn roundtrip_simple() {
        roundtrip("program t\ninteger i, n\nreal x(10)\ndo i = 1, n\nx(i) = i * 2\nenddo\nend\n");
    }

    #[test]
    fn roundtrip_control_flow() {
        roundtrip(
            "program t
             integer i, p, n
             real x(100), t2(50)
             p = 0
             do 20 i = 1, n
               while (p < 5)
                 p = p + 1
                 t2(p) = x(i)
               endwhile
               if (p >= 1) then
                 x(i) = t2(p)
                 p = p - 1
               else
                 x(i) = 0.5
               endif
 20          continue
             end",
        );
    }

    #[test]
    fn roundtrip_subroutines() {
        roundtrip(
            "program t
             integer k
             call init
             k = k + 1
             end
             subroutine init
             k = 0
             end",
        );
    }

    #[test]
    fn roundtrip_explicit_scalar_types() {
        // `count` would implicitly be real; explicit integer must survive.
        roundtrip("program t\ninteger count\ncount = 1\nend\n");
        let p = parse_program("program t\ninteger count\ncount = 1\nend\n").unwrap();
        let printed = print_program(&p);
        assert!(printed.contains("integer count"));
    }

    #[test]
    fn negative_literals_are_parenthesized() {
        let p = parse_program("program t\nx = 0 - 1\nend\n").unwrap();
        let printed = print_program(&p);
        assert!(parse_program(&printed).is_ok());
    }
}
