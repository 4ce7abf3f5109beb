//! A deterministic corpus of malformed and hostile programs.
//!
//! Shared by three consumers with one invariant — **no panic escapes
//! `parse` + `analyze`**:
//!
//! - `tests/parser_robustness.rs` feeds every case to [`crate::parse_program`]
//!   and asserts a clean `Ok`/`Err`;
//! - the driver's no-panic test compiles whatever parses;
//! - the `irr-service` chaos sweep mixes these cases into its
//!   request streams so the pool's panic isolation is exercised by
//!   realistic garbage, not just synthetic faults.
//!
//! Every case is generated (no fixture files) and fully deterministic:
//! the mutation cases use a seeded SplitMix64-style generator, so a
//! failure reproduces from the case name alone.

use crate::parser::MAX_NESTING_DEPTH;

/// One corpus entry: a stable name (for attribution in test failures
/// and service telemetry) and the program text.
#[derive(Clone, Debug)]
pub struct CorpusCase {
    /// Stable identifier, e.g. `"truncated-do"` or `"mutated-17"`.
    pub name: &'static str,
    /// Program text; may or may not parse, must never panic the
    /// front end or the analyses.
    pub source: String,
}

/// A small deterministic generator (SplitMix64) for the mutation
/// cases — self-contained so the front end keeps zero dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A well-formed donor program the mutation cases corrupt.
const DONOR: &str = "program t
 integer i, j, n, idx(100), rowptr(9), rowlen(8)
 real x(100), y(100), front(16)
 n = 8
 do i = 1, n
   rowlen(i) = 0
 enddo
 rowptr(1) = 1
 do i = 1, n
   rowptr(i + 1) = rowptr(i) + rowlen(i)
 enddo
 do 400 i = 1, n
   do j = 1, rowlen(i)
     front(rowptr(i) + j - 1) = front(rowptr(i) + j - 1) * 0.98
   enddo
 400 continue
 if (n > 0) then
   y(1) = x(idx(1))
 endif
 print y(1)
 end";

/// Hand-written malformed shapes: each targets one front-end hazard.
fn handcrafted() -> Vec<CorpusCase> {
    let case = |name, source: String| CorpusCase { name, source };
    vec![
        case(
            "truncated-do",
            "program t\ninteger i\ndo i = 1, 10\nx = 1\n".into(),
        ),
        case(
            "truncated-mid-expr",
            "program t\ninteger i\nx = 1 + (2 *\n".into(),
        ),
        case(
            "mismatched-label",
            "program t\ninteger i\nreal x(10)\ndo 140 i = 1, 10\nx(i) = 1\n 150 continue\nend\n"
                .into(),
        ),
        case(
            "label-closes-wrong-loop",
            "program t\ninteger i, j\nreal x(10)\ndo 10 i = 1, 5\ndo 20 j = 1, 5\nx(j) = 1\n 10 continue\n 20 continue\nend\n"
                .into(),
        ),
        case(
            "giant-int-literal",
            "program t\nx = 99999999999999999999999999999\nend\n".into(),
        ),
        case(
            "giant-real-exponent",
            "program t\nx = 1.0e999999999\nend\n".into(),
        ),
        case(
            "huge-label",
            "program t\ninteger i\nreal x(10)\ndo 4294967296 i = 1, 10\nx(i) = 1\nenddo\nend\n"
                .into(),
        ),
        case("empty", String::new()),
        case("only-newlines", "\n\n\n\n".into()),
        case("missing-program-unit", "subroutine s\nx = 1\nend\n".into()),
        case(
            "duplicate-unit",
            "program t\nx = 1\nend\nsubroutine t\ny = 2\nend\n".into(),
        ),
        case("unknown-call", "program t\ncall ghost\nend\n".into()),
        case("undeclared-array", "program t\nq(1) = 2\nend\n".into()),
        case(
            "rank-mismatch",
            "program t\nreal a(5, 5)\na(1) = 2\nend\n".into(),
        ),
        case(
            "subscript-arity-flood",
            format!("program t\nreal a(5)\na({}) = 1\nend\n", vec!["1"; 64].join(", ")),
        ),
        case("stray-operator", "program t\nx = * 3\nend\n".into()),
        case("assign-to-literal", "program t\n3 = x\nend\n".into()),
        case(
            "unterminated-if",
            "program t\nif (x > 0) then\ny = 1\nend\n".into(),
        ),
        case(
            "else-without-if",
            "program t\nelse\ny = 1\nendif\nend\n".into(),
        ),
        case(
            "deep-paren-nest",
            format!(
                "program t\nx = {}1{}\nend\n",
                "(".repeat(MAX_NESTING_DEPTH + 50),
                ")".repeat(MAX_NESTING_DEPTH + 50)
            ),
        ),
        case(
            "deep-unary-nest",
            format!("program t\nx = {}1\nend\n", "-".repeat(MAX_NESTING_DEPTH + 50)),
        ),
        case("deep-loop-nest", {
            let depth = MAX_NESTING_DEPTH + 50;
            let mut s = String::from("program t\ninteger i\n");
            for _ in 0..depth {
                s.push_str("do i = 1, 2\n");
            }
            s.push_str("x = 1\n");
            for _ in 0..depth {
                s.push_str("enddo\n");
            }
            s.push_str("end\n");
            s
        }),
        case("deep-if-nest", {
            let depth = MAX_NESTING_DEPTH + 50;
            let mut s = String::from("program t\n");
            for _ in 0..depth {
                s.push_str("if (x > 0) then\n");
            }
            s.push_str("y = 1\n");
            for _ in 0..depth {
                s.push_str("endif\n");
            }
            s.push_str("end\n");
            s
        }),
        case(
            "long-ident",
            format!("program t\n{} = 1\nend\n", "a".repeat(64 * 1024)),
        ),
        case(
            "many-args-print",
            format!("program t\nprint {}\nend\n", vec!["1"; 2048].join(", ")),
        ),
        case("non-ascii-soup", "program t\nx = 1 \u{2603}\u{fe0f} + 2\nend\n".into()),
        case("nul-bytes", "program t\nx\u{0} = 1\nend\n".into()),
    ]
}

/// The full corpus: the handcrafted shapes plus `mutations` seeded
/// corruptions of a well-formed donor program (span deletions,
/// duplications, and character splices — the classic fuzz trio).
pub fn malformed_corpus(mutations: usize) -> Vec<CorpusCase> {
    let mut out = handcrafted();
    let mut rng = Rng(0x1337_c0de);
    // Leak the names: corpus construction happens O(1) times per
    // process (tests, load-gen startup), and `&'static str` keeps the
    // case struct trivially copyable into service telemetry.
    for i in 0..mutations {
        let name: &'static str = Box::leak(format!("mutated-{i}").into_boxed_str());
        out.push(CorpusCase {
            name,
            source: mutate(DONOR, &mut rng),
        });
    }
    out
}

fn mutate(src: &str, rng: &mut Rng) -> String {
    let mut text = src.to_string();
    let edits = 1 + rng.below(4);
    for _ in 0..edits {
        // Byte-oriented edits can split UTF-8; the donor is pure ASCII
        // and splices insert ASCII, so slicing stays valid.
        let len = text.len();
        if len < 8 {
            break;
        }
        let at = rng.below(len - 4);
        match rng.below(3) {
            0 => {
                // Delete a short span.
                let span = 1 + rng.below(16).min(len - at - 1);
                text.replace_range(at..at + span, "");
            }
            1 => {
                // Duplicate a short span.
                let span = 1 + rng.below(16).min(len - at - 1);
                let dup = text[at..at + span].to_string();
                text.insert_str(at, &dup);
            }
            _ => {
                // Splice a random hostile character.
                const SPLICE: &[char] = &['(', ')', ',', '=', '*', '0', '9', '\n', ' '];
                let c = SPLICE[rng.below(SPLICE.len())];
                text.insert(at, c);
            }
        }
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic() {
        let a = malformed_corpus(20);
        let b = malformed_corpus(20);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.source, y.source);
        }
    }

    #[test]
    fn corpus_has_the_issue_mandated_shapes() {
        let names: Vec<&str> = malformed_corpus(0).iter().map(|c| c.name).collect();
        for required in [
            "truncated-do",
            "mismatched-label",
            "giant-int-literal",
            "deep-loop-nest",
        ] {
            assert!(names.contains(&required), "missing {required}");
        }
    }
}
