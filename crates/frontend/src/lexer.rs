//! Lexer for the mini-Fortran language.
//!
//! Free-form source: statements are terminated by newlines (or `;`),
//! comments start with `!` and run to end of line, keywords are
//! case-insensitive. Logical operators may be written either in Fortran
//! style (`.and.`, `.le.`, ...) or in symbolic style (`<=`, `==`, ...).

use crate::diag::{ParseError, SourceLoc};
use std::borrow::Cow;

/// A lexical token.
#[derive(Clone, PartialEq, Debug)]
pub enum Token<'s> {
    /// Identifier or keyword, lower-cased: borrowed from the source
    /// unless it had an upper-case letter to fold.
    Ident(Cow<'s, str>),
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// End of statement (newline or `;`).
    Newline,
    LParen,
    RParen,
    Comma,
    Assign,
    Plus,
    Minus,
    Star,
    Slash,
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Not,
    /// End of input.
    Eof,
}

impl Token<'_> {
    /// Whether this token is the identifier/keyword `kw` (already
    /// lower-case).
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s == kw)
    }
}

/// A token plus its source location.
#[derive(Clone, Debug)]
pub struct Spanned<'s> {
    pub token: Token<'s>,
    pub loc: SourceLoc,
}

/// Tokenizes `src` into a vector of [`Spanned`] tokens ending with
/// [`Token::Eof`].
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed numeric literals or unknown
/// characters.
pub fn tokenize(src: &str) -> Result<Vec<Spanned<'_>>, ParseError> {
    let mut out: Vec<Spanned<'_>> = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut line_start = 0usize;
    let loc = |i: usize, line: u32, line_start: usize| SourceLoc {
        line,
        col: (i - line_start + 1) as u32,
    };
    macro_rules! push {
        ($tok:expr, $at:expr) => {
            out.push(Spanned {
                token: $tok,
                loc: loc($at, line, line_start),
            })
        };
    }
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' => i += 1,
            '!' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '\n' => {
                // Collapse repeated newlines.
                if !matches!(out.last().map(|s| &s.token), Some(Token::Newline) | None) {
                    push!(Token::Newline, i);
                }
                i += 1;
                line += 1;
                line_start = i;
            }
            ';' => {
                if !matches!(out.last().map(|s| &s.token), Some(Token::Newline) | None) {
                    push!(Token::Newline, i);
                }
                i += 1;
            }
            '(' => {
                push!(Token::LParen, i);
                i += 1;
            }
            ')' => {
                push!(Token::RParen, i);
                i += 1;
            }
            ',' => {
                push!(Token::Comma, i);
                i += 1;
            }
            '+' => {
                push!(Token::Plus, i);
                i += 1;
            }
            '-' => {
                push!(Token::Minus, i);
                i += 1;
            }
            '*' => {
                push!(Token::Star, i);
                i += 1;
            }
            '/' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push!(Token::NotEq, i);
                    i += 2;
                } else {
                    push!(Token::Slash, i);
                    i += 1;
                }
            }
            '=' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push!(Token::EqEq, i);
                    i += 2;
                } else {
                    push!(Token::Assign, i);
                    i += 1;
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push!(Token::Le, i);
                    i += 2;
                } else {
                    push!(Token::Lt, i);
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push!(Token::Ge, i);
                    i += 2;
                } else {
                    push!(Token::Gt, i);
                    i += 1;
                }
            }
            '&' if i + 1 < bytes.len() && bytes[i + 1] == b'&' => {
                push!(Token::And, i);
                i += 2;
            }
            '|' if i + 1 < bytes.len() && bytes[i + 1] == b'|' => {
                push!(Token::Or, i);
                i += 2;
            }
            '.' => {
                // Either a Fortran dotted operator (.and., .le., ...) or a
                // real literal starting with '.'.
                if i + 1 < bytes.len() && bytes[i + 1].is_ascii_alphabetic() {
                    let start = i + 1;
                    let mut j = start;
                    while j < bytes.len() && bytes[j].is_ascii_alphabetic() {
                        j += 1;
                    }
                    if j < bytes.len() && bytes[j] == b'.' {
                        let word = src[start..j].to_ascii_lowercase();
                        let tok = match word.as_str() {
                            "and" => Token::And,
                            "or" => Token::Or,
                            "not" => Token::Not,
                            "eq" => Token::EqEq,
                            "ne" => Token::NotEq,
                            "lt" => Token::Lt,
                            "le" => Token::Le,
                            "gt" => Token::Gt,
                            "ge" => Token::Ge,
                            "true" | "false" => {
                                return Err(ParseError::new(
                                    "logical literals are not supported; use comparisons",
                                    loc(i, line, line_start),
                                ))
                            }
                            other => {
                                return Err(ParseError::new(
                                    format!("unknown dotted operator `.{other}.`"),
                                    loc(i, line, line_start),
                                ))
                            }
                        };
                        push!(tok, i);
                        i = j + 1;
                        continue;
                    }
                }
                // Real literal like `.5`.
                let (tok, len) = lex_number(&src[i..], loc(i, line, line_start))?;
                push!(tok, i);
                i += len;
            }
            '0'..='9' => {
                let (tok, len) = lex_number(&src[i..], loc(i, line, line_start))?;
                push!(tok, i);
                i += len;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &src[start..i];
                let ident = if word.bytes().any(|b| b.is_ascii_uppercase()) {
                    Cow::Owned(word.to_ascii_lowercase())
                } else {
                    Cow::Borrowed(word)
                };
                push!(Token::Ident(ident), start);
            }
            other => {
                return Err(ParseError::new(
                    format!("unexpected character `{other}`"),
                    loc(i, line, line_start),
                ))
            }
        }
    }
    if !matches!(out.last().map(|s| &s.token), Some(Token::Newline) | None) {
        out.push(Spanned {
            token: Token::Newline,
            loc: loc(i, line, line_start),
        });
    }
    out.push(Spanned {
        token: Token::Eof,
        loc: loc(i.min(bytes.len()), line, line_start),
    });
    Ok(out)
}

/// Lexes a number at the start of `s`; returns the token and byte length.
fn lex_number(s: &str, at: SourceLoc) -> Result<(Token<'static>, usize), ParseError> {
    let bytes = s.as_bytes();
    let mut i = 0;
    let mut is_real = false;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    if i < bytes.len() && bytes[i] == b'.' {
        // Don't treat `1.and.` as a real: only consume the dot when what
        // follows is a digit, an exponent, or a non-letter.
        let next_alpha = bytes.get(i + 1).is_some_and(|b| b.is_ascii_alphabetic());
        let next_digit = bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit());
        if !next_alpha || next_digit {
            is_real = true;
            i += 1;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    if i < bytes.len()
        && (bytes[i] == b'e' || bytes[i] == b'E' || bytes[i] == b'd' || bytes[i] == b'D')
    {
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < bytes.len() && bytes[j].is_ascii_digit() {
            is_real = true;
            i = j;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    let text = &s[..i];
    if is_real {
        let normalized = text.replace(['d', 'D'], "e");
        normalized
            .parse::<f64>()
            .map(|v| (Token::Real(v), i))
            .map_err(|_| ParseError::new(format!("bad real literal `{text}`"), at))
    } else {
        text.parse::<i64>()
            .map(|v| (Token::Int(v), i))
            .map_err(|_| ParseError::new(format!("bad integer literal `{text}`"), at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token<'_>> {
        tokenize(src)
            .unwrap()
            .into_iter()
            .map(|s| s.token)
            .collect()
    }

    #[test]
    fn simple_assignment() {
        assert_eq!(
            toks("x = 1 + 2\n"),
            vec![
                Token::Ident("x".into()),
                Token::Assign,
                Token::Int(1),
                Token::Plus,
                Token::Int(2),
                Token::Newline,
                Token::Eof
            ]
        );
    }

    #[test]
    fn dotted_operators() {
        assert_eq!(
            toks("a .and. b .le. c"),
            vec![
                Token::Ident("a".into()),
                Token::And,
                Token::Ident("b".into()),
                Token::Le,
                Token::Ident("c".into()),
                Token::Newline,
                Token::Eof
            ]
        );
    }

    #[test]
    fn symbolic_operators() {
        assert_eq!(
            toks("a /= b == c <= d >= e < f > g"),
            vec![
                Token::Ident("a".into()),
                Token::NotEq,
                Token::Ident("b".into()),
                Token::EqEq,
                Token::Ident("c".into()),
                Token::Le,
                Token::Ident("d".into()),
                Token::Ge,
                Token::Ident("e".into()),
                Token::Lt,
                Token::Ident("f".into()),
                Token::Gt,
                Token::Ident("g".into()),
                Token::Newline,
                Token::Eof
            ]
        );
    }

    #[test]
    fn real_literals() {
        assert_eq!(toks("1.5")[0], Token::Real(1.5));
        assert_eq!(toks(".25")[0], Token::Real(0.25));
        assert_eq!(toks("1e3")[0], Token::Real(1000.0));
        assert_eq!(toks("2.5d-1")[0], Token::Real(0.25));
        assert_eq!(toks("42")[0], Token::Int(42));
    }

    #[test]
    fn integer_followed_by_dotted_op() {
        assert_eq!(
            toks("1 .le. n")[..3],
            [Token::Int(1), Token::Le, Token::Ident("n".into())]
        );
        // Even without the space Fortran treats `1.le.` as `1 .le.`.
        assert_eq!(
            toks("1.le.n")[..3],
            [Token::Int(1), Token::Le, Token::Ident("n".into())]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("x = 1 ! set x\ny = 2"),
            vec![
                Token::Ident("x".into()),
                Token::Assign,
                Token::Int(1),
                Token::Newline,
                Token::Ident("y".into()),
                Token::Assign,
                Token::Int(2),
                Token::Newline,
                Token::Eof
            ]
        );
    }

    #[test]
    fn newlines_collapse() {
        assert_eq!(
            toks("\n\n\nx = 1\n\n\n"),
            vec![
                Token::Ident("x".into()),
                Token::Assign,
                Token::Int(1),
                Token::Newline,
                Token::Eof
            ]
        );
    }

    #[test]
    fn locations_track_lines() {
        let spanned = tokenize("a = 1\nbb = 2").unwrap();
        let bb = spanned
            .iter()
            .find(|s| s.token.is_kw("bb"))
            .expect("bb token");
        assert_eq!(bb.loc.line, 2);
        assert_eq!(bb.loc.col, 1);
    }

    #[test]
    fn unknown_character_is_an_error() {
        assert!(tokenize("x = #").is_err());
        assert!(tokenize("a .foo. b").is_err());
    }
}
