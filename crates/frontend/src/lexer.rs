//! Lexer for the mini-Fortran language.
//!
//! Free-form source: statements are terminated by newlines (or `;`),
//! comments start with `!` and run to end of line, keywords are
//! case-insensitive. Logical operators may be written either in Fortran
//! style (`.and.`, `.le.`, ...) or in symbolic style (`<=`, `==`, ...).

use crate::diag::{ParseError, SourceLoc};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

/// An interned word: two identifiers of one tokenization have the same
/// atom exactly when their lower-cased texts are equal. The keywords
/// hold the first atoms, in [`Kw`] order; the other words follow in
/// order of first appearance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Atom(pub u32);

impl Atom {
    /// Index into a table kept per atom.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The keywords, each its own atom. The five block closers and `else`
/// come first, so [`Kw::closes_block`] is one comparison.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kw {
    End,
    Enddo,
    Endif,
    Endwhile,
    Else,
    Elseif,
    Program,
    Subroutine,
    Do,
    While,
    If,
    Then,
    Call,
    Print,
    Return,
    Integer,
    Real,
    Continue,
}

impl Kw {
    /// Every keyword, in atom order.
    const ALL: [Kw; 18] = [
        Kw::End,
        Kw::Enddo,
        Kw::Endif,
        Kw::Endwhile,
        Kw::Else,
        Kw::Elseif,
        Kw::Program,
        Kw::Subroutine,
        Kw::Do,
        Kw::While,
        Kw::If,
        Kw::Then,
        Kw::Call,
        Kw::Print,
        Kw::Return,
        Kw::Integer,
        Kw::Real,
        Kw::Continue,
    ];

    /// How many keyword atoms there are.
    const COUNT: u32 = Kw::ALL.len() as u32;

    /// The keyword whose atom is `atom`, if it is one.
    pub fn from_atom(atom: Atom) -> Option<Kw> {
        Kw::ALL.get(atom.index()).copied()
    }

    /// The keyword spelled `s` (already lower-case).
    fn of(s: &str) -> Option<Kw> {
        Some(match s {
            "end" => Kw::End,
            "enddo" => Kw::Enddo,
            "endif" => Kw::Endif,
            "endwhile" => Kw::Endwhile,
            "else" => Kw::Else,
            "elseif" => Kw::Elseif,
            "program" => Kw::Program,
            "subroutine" => Kw::Subroutine,
            "do" => Kw::Do,
            "while" => Kw::While,
            "if" => Kw::If,
            "then" => Kw::Then,
            "call" => Kw::Call,
            "print" => Kw::Print,
            "return" => Kw::Return,
            "integer" => Kw::Integer,
            "real" => Kw::Real,
            "continue" => Kw::Continue,
            _ => return None,
        })
    }

    /// The keyword's atom.
    pub fn atom(self) -> Atom {
        Atom(self as u32)
    }

    /// Whether `atom` ends a statement list: `end`, `enddo`, `endif`,
    /// `endwhile`, `else`, `elseif`.
    pub fn closes_block(atom: Atom) -> bool {
        atom.0 <= Kw::Elseif as u32
    }
}

/// An identifier or keyword: its atom and its text as written.
#[derive(Clone, Copy, PartialEq)]
pub struct Word<'s> {
    pub atom: Atom,
    pub text: &'s str,
    /// Whether `text` has an upper-case letter.
    pub upper: bool,
}

impl<'s> Word<'s> {
    /// The word lower-cased, which is how the language spells it: copied
    /// only if written with an upper-case letter.
    pub fn name(&self) -> Cow<'s, str> {
        if self.upper {
            Cow::Owned(self.text.to_ascii_lowercase())
        } else {
            Cow::Borrowed(self.text)
        }
    }
}

impl fmt::Debug for Word<'_> {
    /// The name alone, so a token reads `Ident("x")` in an error.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.name(), f)
    }
}

/// A lexical token.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Token<'s> {
    /// Identifier or keyword.
    Ident(Word<'s>),
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
    /// Whether this token is the keyword `kw`.
    pub fn is_kw(&self, kw: Kw) -> bool {
        matches!(self, Token::Ident(w) if w.atom == kw.atom())
    }
}

/// A token plus its source location.
#[derive(Clone, Copy, Debug)]
pub struct Spanned<'s> {
    pub token: Token<'s>,
    pub loc: SourceLoc,
}

/// Hands out the atoms of one tokenization.
struct Interner<'s> {
    /// The words of at most eight bytes, each packed one-to-one into a
    /// `u64` (a word has no NUL byte; `0` marks a free slot), in an
    /// open-addressed table. A word is looked for only in the
    /// [`PROBES`] slots from its packing's hash, and goes to `words` when
    /// those are all taken; slots are never freed, so a free slot among
    /// them means the word is new. However the words collide, a lookup
    /// costs at most the probes and one map lookup.
    short: [(u64, Atom); 64],
    /// The longer words, and the short ones the table had no room for.
    /// Its keys are the client's text, so the map keeps `RandomState`.
    words: HashMap<Cow<'s, str>, Atom>,
    next: u32,
}

/// How many slots of [`Interner::short`] a word may take.
const PROBES: usize = 8;

impl<'s> Interner<'s> {
    fn new() -> Interner<'s> {
        Interner {
            short: [(0, Atom(0)); 64],
            words: HashMap::new(),
            next: Kw::COUNT,
        }
    }

    /// A keyword's own atom, or a new one.
    fn first_seen(&mut self, name: &str) -> Atom {
        Kw::of(name).map_or_else(
            || {
                self.next += 1;
                Atom(self.next - 1)
            },
            Kw::atom,
        )
    }

    /// The atom of `w`, the first eight bytes of whose name,
    /// little-endian, are `packed`.
    #[inline]
    fn atom(&mut self, w: &Word<'s>, packed: u64) -> Atom {
        if w.text.len() <= 8 {
            let h = (packed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58) as usize;
            for k in 0..PROBES {
                let slot = &mut self.short[(h + k) % 64];
                if slot.0 == packed {
                    return slot.1;
                }
                if slot.0 == 0 {
                    let a = self.first_seen(&w.name());
                    self.short[(h + k) % 64] = (packed, a);
                    return a;
                }
            }
        }
        let name = w.name();
        if let Some(&a) = self.words.get(&*name) {
            return a;
        }
        let a = self.first_seen(&name);
        self.words.insert(name, a);
        a
    }
}

/// Tokenizes `src`, interning every identifier as it is read: its
/// tokens, ending with [`Token::Eof`].
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed numeric literals or unknown
/// characters.
pub fn tokenize(src: &str) -> Result<Vec<Spanned<'_>>, ParseError> {
    lex(src).map(|l| l.tokens)
}

/// [`tokenize`]'s tokens with what a parser sizes its tables by.
pub(crate) struct Lexed<'s> {
    pub tokens: Vec<Spanned<'s>>,
    /// Every atom of the tokens is below this.
    pub atoms: usize,
    /// How many of them are not keywords: at most one variable each.
    pub words: usize,
    /// How many `Newline` tokens there are: about one a statement.
    pub newlines: usize,
}

pub(crate) fn lex(src: &str) -> Result<Lexed<'_>, ParseError> {
    let mut lexer = Lexer::new(src);
    // A token takes about 2.5 bytes of source, so this rarely regrows.
    let mut tokens = Vec::with_capacity(src.len() / 2 + 2);
    let mut newlines = 0;
    loop {
        let t = lexer.next_token()?;
        tokens.push(t);
        match t.token {
            Token::Newline => newlines += 1,
            Token::Eof => break,
            _ => {}
        }
    }
    Ok(Lexed {
        tokens,
        atoms: lexer.interner.next as usize,
        words: (lexer.interner.next - Kw::COUNT) as usize,
        newlines,
    })
}

/// Where [`tokenize`] is in the source.
struct Lexer<'s> {
    src: &'s str,
    i: usize,
    line: u32,
    line_start: usize,
    /// Whether the last token was a `Newline`, or there was none:
    /// repeated newlines collapse into one.
    at_newline: bool,
    interner: Interner<'s>,
}

impl<'s> Lexer<'s> {
    fn new(src: &'s str) -> Lexer<'s> {
        Lexer {
            src,
            i: 0,
            line: 1,
            line_start: 0,
            at_newline: true,
            interner: Interner::new(),
        }
    }

    fn loc(&self, at: usize) -> SourceLoc {
        SourceLoc {
            line: self.line,
            col: (at - self.line_start + 1) as u32,
        }
    }

    fn token(&mut self, token: Token<'s>, at: usize) -> Spanned<'s> {
        self.at_newline = matches!(token, Token::Newline);
        Spanned {
            token,
            loc: self.loc(at),
        }
    }

    /// The next token. The source ends with a `Newline` (unless the last
    /// token was one) and then `Eof`. Inlined into [`lex`], its one
    /// caller: returning each token through memory made lexing twice as
    /// slow.
    #[inline(always)]
    fn next_token(&mut self) -> Result<Spanned<'s>, ParseError> {
        let (src, bytes) = (self.src, self.src.as_bytes());
        let mut i = self.i;
        // Blanks, comments, and newlines that would repeat one.
        loop {
            match bytes.get(i) {
                Some(b' ' | b'\t' | b'\r') => i += 1,
                Some(b'!') => {
                    while bytes.get(i).is_some_and(|&b| b != b'\n') {
                        i += 1;
                    }
                }
                Some(b'\n' | b';') if self.at_newline => {
                    if bytes[i] == b'\n' {
                        self.line += 1;
                        self.line_start = i + 1;
                    }
                    i += 1;
                }
                _ => break,
            }
        }
        // The token of one byte, or of that byte followed by `=`.
        let one_or_two = |one: Token<'static>, two: Token<'static>| {
            if bytes.get(i + 1) == Some(&b'=') {
                (two, 2)
            } else {
                (one, 1)
            }
        };
        let Some(&b) = bytes.get(i) else {
            self.i = i;
            let token = if self.at_newline {
                Token::Eof
            } else {
                Token::Newline
            };
            return Ok(self.token(token, i));
        };
        let (tok, len) = match b {
            b'\n' => {
                let t = self.token(Token::Newline, i);
                self.i = i + 1;
                self.line += 1;
                self.line_start = i + 1;
                return Ok(t);
            }
            b';' => (Token::Newline, 1),
            b'(' => (Token::LParen, 1),
            b')' => (Token::RParen, 1),
            b',' => (Token::Comma, 1),
            b'+' => (Token::Plus, 1),
            b'-' => (Token::Minus, 1),
            b'*' => (Token::Star, 1),
            b'/' => one_or_two(Token::Slash, Token::NotEq),
            b'=' => one_or_two(Token::Assign, Token::EqEq),
            b'<' => one_or_two(Token::Lt, Token::Le),
            b'>' => one_or_two(Token::Gt, Token::Ge),
            b'&' if bytes.get(i + 1) == Some(&b'&') => (Token::And, 2),
            b'|' if bytes.get(i + 1) == Some(&b'|') => (Token::Or, 2),
            b'.' if bytes.get(i + 1).is_some_and(u8::is_ascii_alphabetic) => {
                // A Fortran dotted operator (.and., .le., ...), or else a
                // real literal starting with '.'.
                let start = i + 1;
                let mut j = start;
                while bytes.get(j).is_some_and(u8::is_ascii_alphabetic) {
                    j += 1;
                }
                if bytes.get(j) == Some(&b'.') {
                    (dotted(&src[start..j], self.loc(i))?, j + 1 - i)
                } else {
                    lex_number(&src[i..], self.loc(i))?
                }
            }
            b'0'..=b'9' | b'.' => lex_number(&src[i..], self.loc(i))?,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let mut j = i + 1;
                let mut upper = b.is_ascii_uppercase();
                let mut packed = u64::from(b.to_ascii_lowercase());
                while let Some(&c) = bytes.get(j) {
                    if !(c.is_ascii_alphanumeric() || c == b'_') {
                        break;
                    }
                    upper |= c.is_ascii_uppercase();
                    if j - i < 8 {
                        packed |= u64::from(c.to_ascii_lowercase()) << (8 * (j - i));
                    }
                    j += 1;
                }
                let mut w = Word {
                    atom: Atom(0),
                    text: &src[i..j],
                    upper,
                };
                w.atom = self.interner.atom(&w, packed);
                (Token::Ident(w), j - i)
            }
            other => {
                return Err(ParseError::new(
                    format!("unexpected character `{}`", other as char),
                    self.loc(i),
                ))
            }
        };
        self.i = i + len;
        Ok(self.token(tok, i))
    }
}

/// The operator `.word.` spells, `at` the leading dot.
fn dotted(word: &str, at: SourceLoc) -> Result<Token<'static>, ParseError> {
    const OPS: [(&str, Token<'static>); 9] = [
        ("and", Token::And),
        ("or", Token::Or),
        ("not", Token::Not),
        ("eq", Token::EqEq),
        ("ne", Token::NotEq),
        ("lt", Token::Lt),
        ("le", Token::Le),
        ("gt", Token::Gt),
        ("ge", Token::Ge),
    ];
    if let Some((_, tok)) = OPS.iter().find(|(op, _)| word.eq_ignore_ascii_case(op)) {
        return Ok(*tok);
    }
    let word = word.to_ascii_lowercase();
    Err(ParseError::new(
        if word == "true" || word == "false" {
            "logical literals are not supported; use comparisons".to_string()
        } else {
            format!("unknown dotted operator `.{word}.`")
        },
        at,
    ))
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
        // A `d` exponent is Fortran's double precision; only such a
        // literal needs a copy to read.
        let normalized = if text.contains(['d', 'D']) {
            Cow::Owned(text.replace(['d', 'D'], "e"))
        } else {
            Cow::Borrowed(text)
        };
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

    /// The tokens of `src`, every atom zeroed (see [`ident`]).
    fn toks(src: &str) -> Vec<Token<'_>> {
        tokenize(src)
            .unwrap()
            .into_iter()
            .map(|s| match s.token {
                Token::Ident(w) => Token::Ident(Word { atom: Atom(0), ..w }),
                t => t,
            })
            .collect()
    }

    fn ident(text: &str) -> Token<'_> {
        Token::Ident(Word {
            atom: Atom(0),
            text,
            upper: false,
        })
    }

    #[test]
    fn simple_assignment() {
        assert_eq!(
            toks("x = 1 + 2\n"),
            vec![
                ident("x"),
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
                ident("a"),
                Token::And,
                ident("b"),
                Token::Le,
                ident("c"),
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
                ident("a"),
                Token::NotEq,
                ident("b"),
                Token::EqEq,
                ident("c"),
                Token::Le,
                ident("d"),
                Token::Ge,
                ident("e"),
                Token::Lt,
                ident("f"),
                Token::Gt,
                ident("g"),
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
            [Token::Int(1), Token::Le, ident("n")]
        );
        // Even without the space Fortran treats `1.le.` as `1 .le.`.
        assert_eq!(toks("1.le.n")[..3], [Token::Int(1), Token::Le, ident("n")]);
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("x = 1 ! set x\ny = 2"),
            vec![
                ident("x"),
                Token::Assign,
                Token::Int(1),
                Token::Newline,
                ident("y"),
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
                ident("x"),
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
            .find(|s| matches!(&s.token, Token::Ident(w) if w.text == "bb"))
            .expect("bb token");
        assert_eq!(bb.loc.line, 2);
        assert_eq!(bb.loc.col, 1);
    }

    #[test]
    fn words_are_interned_once_and_keywords_are_their_own_atoms() {
        let src = "do I = 1, N\n  x(i) = n + Do1 + do1\nENDDO";
        let tokens = tokenize(src).unwrap();
        let atoms: Vec<(Atom, String)> = tokens
            .iter()
            .filter_map(|s| match &s.token {
                Token::Ident(w) => Some((w.atom, w.name().into_owned())),
                _ => None,
            })
            .collect();
        let first = Kw::COUNT;
        assert_eq!(
            atoms,
            [
                (Kw::Do.atom(), "do".to_string()),
                (Atom(first), "i".to_string()),
                (Atom(first + 1), "n".to_string()),
                (Atom(first + 2), "x".to_string()),
                (Atom(first), "i".to_string()),
                (Atom(first + 1), "n".to_string()),
                (Atom(first + 3), "do1".to_string()),
                (Atom(first + 3), "do1".to_string()),
                (Kw::Enddo.atom(), "enddo".to_string()),
            ]
        );
        let mut lexer = Lexer::new(src);
        while !matches!(lexer.next_token().unwrap().token, Token::Eof) {}
        assert_eq!(lexer.interner.next, first + 4);
        assert!(tokens[0].token.is_kw(Kw::Do));
        assert!(!tokens[1].token.is_kw(Kw::Do));
        // Every keyword spells itself, its atom is its place, and only
        // the block closers close.
        for (i, k) in Kw::ALL.into_iter().enumerate() {
            let kw = format!("{k:?}").to_ascii_lowercase();
            assert_eq!(Kw::of(&kw), Some(k));
            assert_eq!(k.atom(), Atom(i as u32));
            assert_eq!(Kw::from_atom(k.atom()), Some(k));
            assert_eq!(
                Kw::closes_block(k.atom()),
                kw.starts_with("end") || kw.starts_with("else")
            );
        }
        assert_eq!(Kw::from_atom(Atom(first)), None);
        assert_eq!(Kw::of("ends"), None);
        assert_eq!(Kw::of("d"), None);
        // An identifier prints as its name, as the parser's errors show it.
        assert_eq!(format!("{:?}", tokens[1].token), r#"Ident("i")"#);
        assert_eq!(format!("{:?}", tokens[14].token), r#"Ident("do1")"#);
    }

    #[test]
    fn unknown_character_is_an_error() {
        assert!(tokenize("x = #").is_err());
        assert!(tokenize("a .foo. b").is_err());
    }
}
