//! SplitMix64-randomized loop programs for the differential parity
//! gates (the strategy-parity suite and `sanitizer-audit --compiled`).
//!
//! Each program is a straight-line prologue that fills the inputs
//! (including an injective gather index), followed by a labeled loop
//! whose body is assembled from templates spanning the bytecode
//! lowering's superinstructions: affine store, gather load, scatter
//! through an index array, scalar accumulate, append-through-pointer,
//! and inner `do`/`if` shapes. All subscripts are bounded by
//! construction, so every generated program runs error-free and
//! differential comparisons are exact.

use crate::Case;
use irr_exec::SplitMix64;

/// Loop-body statement templates. Kept as a named constant so the
/// tests can assert coverage (every template parses and lowers).
const TEMPLATES: [&str; 9] = [
    "y(i) = x(i) * 2.0 + y(i)\n",
    "y(i + 1) = x(i) - 0.25\n",
    "s = s + x(i)\n",
    "z(idx(i)) = x(i)\n",
    "t = x(idx(i))\nz(i) = t * 0.5\n",
    "if (x(i) > 0.5) then\nz(i) = x(i)\nelse\nz(i) = 1.0 - x(i)\nendif\n",
    "do j = 1, 3\ny(i) = y(i) + 0.125\nenddo\n",
    "s = s + min(x(i), z(i)) * max(x(i), 0.1)\n",
    "if (x(i) > 0.25) then\nq = q + 1\nw(q) = x(i)\nendif\n",
];

/// One randomized loop program drawn from `rng`. The same rng state
/// always yields the same source, so seeds name programs durably
/// across the test suite, the audit CLI, and CI.
pub fn random_loop_program(rng: &mut SplitMix64) -> String {
    let n_stmts = 2 + rng.range_i64(0, 2) as usize;
    let mut body = String::new();
    for _ in 0..n_stmts {
        body.push_str(TEMPLATES[rng.range_usize(0, TEMPLATES.len() - 1)]);
    }
    format!(
        "program f
         integer i, j, n, q, idx(64)
         real s, t, x(64), y(65), z(64), w(64)
         n = 64
         s = 0.0
         q = 0
         do i = 1, n
           x(i) = mod(i * 13, 97) * 0.01
           idx(i) = mod(i * 7, 64) + 1
         enddo
         do 20 i = 1, n
{body} 20      continue
         print s, q, y(1), z(5)
         end"
    )
}

/// `count` programs drawn by [`random_loop_program`] from one stream
/// seeded with `seed`, named `random-0`, `random-1`, ...
pub fn random_cases(seed: u64, count: usize) -> Vec<Case> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|i| Case::new(format!("random-{i}"), random_loop_program(&mut rng)))
        .collect()
}

/// One program of [`strategy_programs`].
#[derive(Clone, Debug)]
pub struct StrategyProgram {
    /// The program, named after the template its loop body came from;
    /// the loop under test is labeled `F/do20`.
    pub case: Case,
    /// Whether every entry of `F/do20` must commit in place. `false`
    /// is a near-miss: the loop is dependent, or parallel under a shape
    /// the executor must not write through a master buffer for — with
    /// more than one iteration (below that nothing can collide, and a
    /// guard may honestly pass) it has to end on the write-log, in a
    /// fallback, or sequential.
    pub in_place: bool,
    /// How many iterations `F/do20` runs: 0, 1 or 32.
    pub iterations: u32,
}

/// Loop bodies, each marked with whether it has one of the three
/// in-place write shapes (on one or two targets) or is one of their
/// near-misses: a dependent loop, or a parallel one whose writes have no
/// shape (or a shape missing what it needs at run time). Two shapes
/// among the near-misses write only under a branch, in place all the
/// same: `w`, which nothing reads, every array being live from the
/// program's first statement; and a scatter beside a target the nest
/// reads, which keeps its old payload as its undo image.
const STRATEGY_BODIES: [(&str, bool, &str); 22] = [
    ("affine-rmw", true, "y(i) = y(i) * 0.5 + x(i)\n"),
    ("affine-offset-rmw", true, "y(i + 1) = y(i + 1) + x(i)\n"),
    (
        "affine-inner-do",
        true,
        "z(i) = 0.0\ndo j = 1, 3\nz(i) = z(i) + x(i) * j\nenddo\n",
    ),
    (
        "affine-inner-while",
        true,
        "z(i) = x(i)\nk = 0\nwhile (k < 2)\nz(i) = z(i) * 0.5\nk = k + 1\nendwhile\n",
    ),
    (
        "segment-rmw",
        true,
        "do j = 1, len(i)\nc(ptr(i) + j - 1) = c(ptr(i) + j - 1) * 0.5 + x(i)\nenddo\n",
    ),
    (
        "segment-and-affine",
        true,
        "do j = 1, len(i)\nc(ptr(i) + j - 1) = c(ptr(i) + j - 1) + 1.0\nenddo\ny(i) = y(i) + 1.0\n",
    ),
    (
        "affine-under-a-branch-on-a-segment",
        true,
        "do j = 1, len(i)\nc(ptr(i) + j - 1) = c(ptr(i) + j - 1) * 0.5\n\
         if (c(ptr(i) + j - 1) > 2.0) then\nz(i) = x(i)\nendif\nenddo\n",
    ),
    ("scatter", true, "z(p(i)) = x(i) * 2.0\n"),
    (
        "scatter-and-affine",
        true,
        "z(p(i)) = x(i)\ny(i) = y(i) + x(i)\n",
    ),
    ("flow-dependence", false, "y(i + 1) = y(i) + x(i)\n"),
    (
        "read-at-second-offset",
        false,
        "z(i) = y(i) + y(i + 1)\ny(i) = x(i)\n",
    ),
    (
        "two-index-arrays",
        false,
        "z(p(i)) = x(i)\nz(p2(i)) = x(i) + 1.0\n",
    ),
    ("non-injective-index", false, "z(q(i)) = x(i)\n"),
    (
        "overlapping-ptr",
        false,
        "do j = 1, len(i)\nc(bad(i) + j - 1) = c(bad(i) + j - 1) * 0.5 + 1.0\nenddo\n",
    ),
    ("read-through-index", false, "y(i) = y(p(i)) + 1.0\n"),
    (
        "ptr-written-in-nest",
        false,
        "ptr(i + 1) = ptr(i) + len(i)\ndo j = 1, len(i)\nc(ptr(i) + j - 1) = x(i)\nenddo\n",
    ),
    ("scatter-rmw", false, "z(p(i)) = z(p(i)) + x(i)\n"),
    (
        "scatter-under-a-branch-on-a-read-target",
        true,
        "y(i) = y(i) + x(i)\nif (y(i) > 4.0) then\nz(p(i)) = x(i)\nendif\n",
    ),
    ("strided-affine", false, "y(2 * i - 1) = x(i)\n"),
    (
        "conditional-write-to-dead-array",
        true,
        "if (x(i) > 0.5) then\nw(i) = x(i)\nendif\n",
    ),
    ("scatter-offset-uncertified", false, "z(p(i + 1)) = x(i)\n"),
    (
        "second-shape-on-one-target",
        false,
        "z(p(i)) = x(i)\nz(i) = 1.0\n",
    ),
];

/// The programs of the in-place strategy's soundness gate
/// (`tests/strategy_parity.rs`): a prologue that builds a permutation
/// `p` (and a second one, `p2`), a colliding index array `q`, an
/// offset–length chain `ptr`/`len` with zero-length segments, and an
/// overlapping pointer array `bad`, then a labeled loop whose body is
/// one of the in-place shapes or one of their near-misses — each at
/// three trip counts: zero, one iteration, and 32. Everything is
/// bounded by construction, so every program runs error-free.
pub fn strategy_programs() -> impl Iterator<Item = StrategyProgram> {
    // Opaque to constant folding, so the trip count is a run-time fact.
    const TRIPS: [(&str, u32); 3] = [("mod(n, 2)", 0), ("mod(n, 2) + 1", 1), ("n / 2", 32)];
    STRATEGY_BODIES.iter().flat_map(|&(what, in_place, body)| {
        TRIPS
            .iter()
            .map(move |&(trip, iterations)| StrategyProgram {
                case: Case::new(what, strategy_source(body, trip)),
                in_place,
                iterations,
            })
    })
}

fn strategy_source(body: &str, trip: &str) -> String {
    format!(
        "program f
         integer i, j, k, n, m, p(64), p2(64), q(64), ptr(65), len(64), bad(64)
         real x(64), y(65), z(64), c(160), w(64)
         n = 64
         m = {trip}
         do i = 1, n
           x(i) = mod(i * 13, 97) * 0.01
           y(i) = i * 0.25
           z(i) = 0.0
           p(i) = mod(i * 7, 64) + 1
           p2(i) = mod(i * 5, 64) + 1
           q(i) = mod(i * 3, 16) + 1
           len(i) = mod(i, 4)
           bad(i) = mod(i * 5, 60) + 1
         enddo
         y(65) = 0.0
         ptr(1) = 1
         do i = 1, n
           ptr(i + 1) = ptr(i) + len(i)
         enddo
         do i = 1, 160
           c(i) = i * 0.125
         enddo
         do 20 i = 1, m
{body} 20      continue
         print y(1), z(5), c(7)
         end"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_parses() {
        let (mut a, mut b) = (SplitMix64::new(7), SplitMix64::new(7));
        for _ in 0..8 {
            let (pa, pb) = (random_loop_program(&mut a), random_loop_program(&mut b));
            assert_eq!(pa, pb);
            irr_frontend::parse_program(&pa).expect("generated program parses");
        }
    }

    #[test]
    fn every_strategy_program_parses() {
        let mut programs = 0;
        for StrategyProgram { case, .. } in strategy_programs() {
            irr_frontend::parse_program(&case.source)
                .unwrap_or_else(|e| panic!("{}: {e}\n{}", case.name, case.source));
            programs += 1;
        }
        assert_eq!(programs, STRATEGY_BODIES.len() * 3);
    }

    #[test]
    fn every_template_parses_in_isolation() {
        for t in TEMPLATES {
            let src = format!(
                "program f
                 integer i, j, n, q, idx(64)
                 real s, t, x(64), y(65), z(64), w(64)
                 n = 64
                 do 20 i = 1, n
{t} 20           continue
                 end"
            );
            irr_frontend::parse_program(&src).expect("template parses");
        }
    }
}
