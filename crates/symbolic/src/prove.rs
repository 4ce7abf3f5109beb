//! A conservative symbolic inequality prover.
//!
//! `prove_*` functions return `true` only when the fact is provable from
//! the environment; `false` means "unknown", never "disproved". This is
//! the directionality every client needs: dependence tests and
//! privatization only act on proven facts.
//!
//! Integer division in the mini-Fortran language is defined as **floor
//! division** (`div_euclid` for positive divisors) and `mod` as the
//! non-negative remainder (`rem_euclid`). This gives the prover two sound
//! rules for opaque `Div` atoms with constant divisor `c > 0`:
//!
//! - the *sandwich*: `(a - c + 1)/c <= a div c <= a/c` (rationally), and
//! - *difference canonicalization*: if `c` divides `a - b` exactly then
//!   `a div c == b div c + (a - b)/c`.
//!
//! Difference canonicalization is what proves the TRFD-style facts like
//! `(i²+i) div 2 - (i²-i) div 2 == i` that the range test needs for
//! closed-form-value index arrays (§3.2.7).

use crate::expr::{Atom, OpaqueOp, SymExpr};
use crate::range::{Bound, RangeEnv, SymRange};

/// Maximum recursion depth for the mutually recursive bound computation
/// and sign proving.
const DEFAULT_DEPTH: u32 = 5;

/// Proves `e == 0` (after canonicalization).
pub fn prove_eq(a: &SymExpr, b: &SymExpr, env: &RangeEnv) -> bool {
    let d = canonicalize(&a.sub(b), env);
    d.is_zero()
}

/// Proves `e >= 0`.
pub fn prove_ge0(e: &SymExpr, env: &RangeEnv) -> bool {
    prove_ge0_depth(e, env, DEFAULT_DEPTH)
}

/// Proves `e > 0`.
pub fn prove_gt0(e: &SymExpr, env: &RangeEnv) -> bool {
    prove_gt0_depth(e, env, DEFAULT_DEPTH)
}

/// Proves `a <= b`.
pub fn prove_le(a: &SymExpr, b: &SymExpr, env: &RangeEnv) -> bool {
    prove_ge0(&b.sub(a), env)
}

/// Proves `a < b`.
pub fn prove_lt(a: &SymExpr, b: &SymExpr, env: &RangeEnv) -> bool {
    prove_gt0(&b.sub(a), env)
}

fn prove_ge0_depth(e: &SymExpr, env: &RangeEnv, depth: u32) -> bool {
    let e = canonicalize(e, env);
    if let Some((num, _den)) = e.as_rational() {
        return num >= 0;
    }
    if depth == 0 {
        return false;
    }
    match lower_bound(&e, env, depth - 1) {
        Bound::Finite(lb) => {
            if let Some((num, _)) = lb.as_rational() {
                num >= 0
            } else if lb != e {
                prove_ge0_depth(&lb, env, depth - 1)
            } else {
                false
            }
        }
        _ => false,
    }
}

fn prove_gt0_depth(e: &SymExpr, env: &RangeEnv, depth: u32) -> bool {
    let e = canonicalize(e, env);
    if let Some((num, _den)) = e.as_rational() {
        return num > 0;
    }
    if depth == 0 {
        return false;
    }
    match lower_bound(&e, env, depth - 1) {
        Bound::Finite(lb) => {
            if let Some((num, _)) = lb.as_rational() {
                num > 0
            } else if lb != e {
                prove_gt0_depth(&lb, env, depth - 1)
            } else {
                false
            }
        }
        _ => false,
    }
}

fn lower_bound(e: &SymExpr, env: &RangeEnv, depth: u32) -> Bound {
    bounds_of_depth(e, env, depth).lo
}

fn bounds_of_depth(e: &SymExpr, env: &RangeEnv, depth: u32) -> SymRange {
    let mut acc = SymRange::point(SymExpr::int(0));
    for (m, c) in e.terms() {
        let mr = if m.is_unit() {
            SymRange::point(SymExpr::int(1))
        } else {
            let mut r = SymRange::point(SymExpr::int(1));
            for a in m.atoms() {
                let ar = atom_bounds(a, env, depth);
                r = range_mul(&r, &ar, env, depth);
            }
            r
        };
        acc = acc.add(&mr.scale(*c, e.den()));
    }
    acc
}

/// The interval of a single atom.
fn atom_bounds(a: &Atom, env: &RangeEnv, depth: u32) -> SymRange {
    if let Some(r) = env.lookup(a) {
        return r;
    }
    if depth == 0 {
        return SymRange::universal();
    }
    match a {
        Atom::Opaque(OpaqueOp::Div, args) if args.len() == 2 => {
            if let Some(c) = args[1].as_int() {
                if c > 0 {
                    // Floor-division sandwich.
                    let inner = bounds_of_depth(&args[0], env, depth - 1);
                    let lo = inner
                        .lo
                        .add(&Bound::Finite(SymExpr::int(-(c - 1))))
                        .scale(1, c);
                    let hi = inner.hi.scale(1, c);
                    return SymRange { lo, hi };
                }
            }
            SymRange::universal()
        }
        Atom::Opaque(OpaqueOp::Mod, args) if args.len() == 2 => {
            if let Some(c) = args[1].as_int() {
                if c > 0 {
                    // rem_euclid is always in [0, c-1].
                    return SymRange::new(SymExpr::int(0), SymExpr::int(c - 1));
                }
            }
            SymRange::universal()
        }
        Atom::Opaque(OpaqueOp::Min, args) if args.len() == 2 => {
            let r0 = bounds_of_depth(&args[0], env, depth - 1);
            let r1 = bounds_of_depth(&args[1], env, depth - 1);
            // hi(min) <= min(hi0, hi1): either upper bound is sound; pick
            // the provably smaller one when possible, else hi0 if finite.
            let hi = pick_smaller_upper(&r0.hi, &r1.hi, env, depth);
            let lo = pick_smaller_lower(&r0.lo, &r1.lo, env, depth);
            SymRange { lo, hi }
        }
        Atom::Opaque(OpaqueOp::Max, args) if args.len() == 2 => {
            let r0 = bounds_of_depth(&args[0], env, depth - 1);
            let r1 = bounds_of_depth(&args[1], env, depth - 1);
            let lo = pick_larger_lower(&r0.lo, &r1.lo, env, depth);
            let hi = pick_larger_upper(&r0.hi, &r1.hi, env, depth);
            SymRange { lo, hi }
        }
        _ => SymRange::universal(),
    }
}

/// A sound upper bound for `min(x, y)` given upper bounds of each: any of
/// the two is sound; prefer the provably smaller.
fn pick_smaller_upper(a: &Bound, b: &Bound, env: &RangeEnv, depth: u32) -> Bound {
    match (a, b) {
        (Bound::Finite(x), Bound::Finite(y)) => {
            if prove_ge0_depth(&x.sub(y), env, depth.saturating_sub(1)) {
                b.clone()
            } else {
                a.clone()
            }
        }
        (Bound::Finite(_), _) => a.clone(),
        (_, Bound::Finite(_)) => b.clone(),
        (Bound::NegInf, _) | (_, Bound::NegInf) => Bound::NegInf,
        _ => Bound::PosInf,
    }
}

/// A sound lower bound for `min(x, y)`: must be ≤ both, so only a bound
/// provably below the other is usable.
fn pick_smaller_lower(a: &Bound, b: &Bound, env: &RangeEnv, depth: u32) -> Bound {
    match (a, b) {
        (Bound::Finite(x), Bound::Finite(y)) => {
            if prove_ge0_depth(&y.sub(x), env, depth.saturating_sub(1)) {
                a.clone()
            } else if prove_ge0_depth(&x.sub(y), env, depth.saturating_sub(1)) {
                b.clone()
            } else {
                Bound::NegInf
            }
        }
        _ => Bound::NegInf,
    }
}

/// A sound lower bound for `max(x, y)`: any of the two lower bounds is
/// sound; prefer the provably larger.
fn pick_larger_lower(a: &Bound, b: &Bound, env: &RangeEnv, depth: u32) -> Bound {
    match (a, b) {
        (Bound::Finite(x), Bound::Finite(y)) => {
            if prove_ge0_depth(&x.sub(y), env, depth.saturating_sub(1)) {
                a.clone()
            } else {
                b.clone()
            }
        }
        (Bound::Finite(_), _) => a.clone(),
        (_, Bound::Finite(_)) => b.clone(),
        _ => Bound::NegInf,
    }
}

/// A sound upper bound for `max(x, y)`: must be ≥ both.
fn pick_larger_upper(a: &Bound, b: &Bound, env: &RangeEnv, depth: u32) -> Bound {
    match (a, b) {
        (Bound::Finite(x), Bound::Finite(y)) => {
            if prove_ge0_depth(&x.sub(y), env, depth.saturating_sub(1)) {
                a.clone()
            } else if prove_ge0_depth(&y.sub(x), env, depth.saturating_sub(1)) {
                b.clone()
            } else {
                Bound::PosInf
            }
        }
        _ => Bound::PosInf,
    }
}

/// Interval multiplication, sound only for the cases it handles:
/// constant factors, and factors provably non-negative.
fn range_mul(a: &SymRange, b: &SymRange, env: &RangeEnv, depth: u32) -> SymRange {
    // Constant point factor.
    if let (Bound::Finite(lo), Bound::Finite(hi)) = (&a.lo, &a.hi) {
        if lo == hi {
            if let Some(c) = lo.as_int() {
                return b.scale(c, 1);
            }
        }
    }
    if let (Bound::Finite(lo), Bound::Finite(hi)) = (&b.lo, &b.hi) {
        if lo == hi {
            if let Some(c) = lo.as_int() {
                return a.scale(c, 1);
            }
        }
    }
    // Both non-negative: [lo_a*lo_b, hi_a*hi_b].
    let a_nonneg = matches!(&a.lo, Bound::Finite(x)
        if prove_ge0_depth(x, env, depth.saturating_sub(1)));
    let b_nonneg = matches!(&b.lo, Bound::Finite(x)
        if prove_ge0_depth(x, env, depth.saturating_sub(1)));
    if a_nonneg && b_nonneg {
        let lo = match (&a.lo, &b.lo) {
            (Bound::Finite(x), Bound::Finite(y)) => Bound::Finite(x.mul(y)),
            _ => unreachable!("checked finite above"),
        };
        let hi = match (&a.hi, &b.hi) {
            (Bound::Finite(x), Bound::Finite(y)) => Bound::Finite(x.mul(y)),
            _ => Bound::PosInf,
        };
        return SymRange { lo, hi };
    }
    SymRange::universal()
}

/// Rewrites `e` using the environment's closed-form-distance facts and
/// the divisibility rule for `Div` atoms, so that related atoms cancel.
///
/// Without a distance fact in `env` and with fewer than two top-level
/// `Div` atoms in `e`, neither rewrite can fire, and `e` comes back as
/// it is.
pub fn canonicalize(e: &SymExpr, env: &RangeEnv) -> SymExpr {
    let mut cur = e.clone();
    if !env.has_distances() && div_atoms(&cur) < 2 {
        return cur;
    }
    for _ in 0..8 {
        match canonicalize_once(&cur, env) {
            Some(next) if next != cur => cur = next,
            _ => break,
        }
    }
    cur
}

fn div_atoms(e: &SymExpr) -> usize {
    e.atoms()
        .into_iter()
        .filter(|a| matches!(a, Atom::Opaque(OpaqueOp::Div, _)))
        .count()
}

/// One rewrite of `e`, or `None` when no rule applies.
fn canonicalize_once(e: &SymExpr, env: &RangeEnv) -> Option<SymExpr> {
    let atoms = e.atoms();
    // Closed-form distance: rewrite arr(s+1) -> arr(s) + d(s) whenever
    // both arr(s+1) and arr(s) occur, so their difference becomes d(s).
    for &a in &atoms {
        let Atom::Elem(arr, subs) = a else { continue };
        if subs.len() != 1 {
            continue;
        }
        let Some((pv, dist)) = env.distance(*arr) else {
            continue;
        };
        // Find a sibling arr(s') with subs[0] - s' == 1.
        for &b in &atoms {
            let Atom::Elem(arr2, subs2) = b else {
                continue;
            };
            if arr2 != arr || subs2.len() != 1 || a == b {
                continue;
            }
            let diff = subs[0].sub(&subs2[0]);
            if diff.as_int() == Some(1) {
                let replacement = b.to_expr().add(&dist.subst(*pv, &subs2[0]));
                return Some(e.subst_atom(a, &replacement));
            }
        }
    }
    // Div difference canonicalization: a div c == b div c + (a-b)/c when
    // c | (a-b) exactly (floor semantics).
    for (idx, &a) in atoms.iter().enumerate() {
        let Atom::Opaque(OpaqueOp::Div, args_a) = a else {
            continue;
        };
        let Some(c) = args_a[1].as_int() else {
            continue;
        };
        if c <= 0 {
            continue;
        }
        for &b in atoms.iter().skip(idx + 1) {
            let Atom::Opaque(OpaqueOp::Div, args_b) = b else {
                continue;
            };
            if args_b[1].as_int() != Some(c) {
                continue;
            }
            let diff = args_a[0].sub(&args_b[0]);
            if diff.den() == 1 && diff.terms().iter().all(|(_, k)| k % c == 0) {
                let replacement = b.to_expr().add(&diff.div_exact(c));
                return Some(e.subst_atom(a, &replacement));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_frontend::VarId;

    fn v(n: u32) -> SymExpr {
        SymExpr::var(VarId(n))
    }

    fn env_i_1_to_n() -> RangeEnv {
        let mut env = RangeEnv::new();
        env.set_var_range(VarId(0), SymExpr::int(1), v(1));
        env
    }

    #[test]
    fn constant_facts() {
        let env = RangeEnv::new();
        assert!(prove_ge0(&SymExpr::int(0), &env));
        assert!(prove_ge0(&SymExpr::int(3), &env));
        assert!(!prove_ge0(&SymExpr::int(-1), &env));
        assert!(prove_gt0(&SymExpr::int(1), &env));
        assert!(!prove_gt0(&SymExpr::int(0), &env));
    }

    #[test]
    fn variable_with_range() {
        let env = env_i_1_to_n();
        // i >= 1 > 0.
        assert!(prove_gt0(&v(0), &env));
        // i - 1 >= 0.
        assert!(prove_ge0(&v(0).sub(&SymExpr::int(1)), &env));
        // i - 2 unknown.
        assert!(!prove_ge0(&v(0).sub(&SymExpr::int(2)), &env));
        // n unknown (no range for n).
        assert!(!prove_ge0(&v(1), &env));
    }

    #[test]
    fn unknown_never_proves_both_directions() {
        let env = RangeEnv::new();
        let e = v(5);
        assert!(!prove_ge0(&e, &env));
        assert!(!prove_ge0(&e.neg(), &env));
    }

    #[test]
    fn quadratic_with_nonneg_factors() {
        // i in [1, n] and n unknown: i*i >= 1 > 0.
        let env = env_i_1_to_n();
        let sq = v(0).mul(&v(0));
        assert!(prove_gt0(&sq, &env));
    }

    #[test]
    fn elem_range_facts() {
        // iblen(k) >= 0 for all k  ==>  iblen(i) + 1 > 0.
        let mut env = RangeEnv::new();
        let iblen = VarId(3);
        env.set_elem_range(
            iblen,
            SymRange {
                lo: Bound::Finite(SymExpr::int(0)),
                hi: Bound::PosInf,
            },
        );
        let e = SymExpr::elem(iblen, vec![v(0)]).add(&SymExpr::int(1));
        assert!(prove_gt0(&e, &env));
        assert!(prove_ge0(&SymExpr::elem(iblen, vec![v(9)]), &env));
    }

    #[test]
    fn distance_fact_cancels_consecutive_elements() {
        // pptr(i+1) - pptr(i) == iblen(i), iblen(*) >= 0:
        // prove pptr(i+1) - pptr(i) - iblen(i) == 0 and >= 0.
        let mut env = RangeEnv::new();
        let pptr = VarId(2);
        let iblen = VarId(3);
        let k = VarId(7); // placeholder
        env.set_distance(pptr, k, SymExpr::elem(iblen, vec![SymExpr::var(k)]));
        env.set_elem_range(
            iblen,
            SymRange {
                lo: Bound::Finite(SymExpr::int(0)),
                hi: Bound::PosInf,
            },
        );
        let i = v(0);
        let p_next = SymExpr::elem(pptr, vec![i.add(&SymExpr::int(1))]);
        let p_cur = SymExpr::elem(pptr, vec![i.clone()]);
        let d = SymExpr::elem(iblen, vec![i.clone()]);
        assert!(prove_eq(&p_next.sub(&p_cur), &d, &env));
        assert!(prove_ge0(&p_next.sub(&p_cur), &env));
    }

    #[test]
    fn dyfesm_fig13_disjointness() {
        // f range rel pptr(i): [0, iblen(i)-2]; g range: [1, iblen(i)-1].
        // Next segment starts at pptr(i)+iblen(i). Prove
        // pptr(i)+iblen(i)-1 < pptr(i+1)+1, i.e. segments do not overlap:
        // max over both accesses (pptr(i)+iblen(i)-1) < min at i+1
        // (pptr(i+1) + 0).
        let mut env = RangeEnv::new();
        let pptr = VarId(2);
        let iblen = VarId(3);
        let k = VarId(7);
        env.set_distance(pptr, k, SymExpr::elem(iblen, vec![SymExpr::var(k)]));
        env.set_elem_range(
            iblen,
            SymRange {
                lo: Bound::Finite(SymExpr::int(0)),
                hi: Bound::PosInf,
            },
        );
        let i = v(0);
        let hi_i = SymExpr::elem(pptr, vec![i.clone()])
            .add(&SymExpr::elem(iblen, vec![i.clone()]))
            .sub(&SymExpr::int(1));
        let lo_next = SymExpr::elem(pptr, vec![i.add(&SymExpr::int(1))]).add(&SymExpr::int(1));
        assert!(prove_lt(&hi_i, &lo_next, &env));
    }

    #[test]
    fn trfd_triangular_disjointness() {
        // f(i,j) = (i^2 - i) div 2 + j, j in [1, i].
        // max_j f(i) = (i^2-i) div 2 + i; min_j f(i+1) = (i^2+i) div 2 + 1.
        // Difference canonicalization: (i^2+i) div 2 - (i^2-i) div 2 = i.
        // So min f(i+1) - max f(i) = 1 > 0.
        let env = env_i_1_to_n();
        let i = v(0);
        let isq = i.mul(&i);
        let f_max = isq.sub(&i).div(&SymExpr::int(2)).add(&i);
        let f_next_min = isq.add(&i).div(&SymExpr::int(2)).add(&SymExpr::int(1));
        assert!(super::prove_lt(&f_max, &f_next_min, &env));
    }

    #[test]
    fn div_sandwich_bounds() {
        // i in [1, n]: i div 2 >= (1 - 1)/2 = 0.
        let env = env_i_1_to_n();
        let e = v(0).div(&SymExpr::int(2));
        assert!(prove_ge0(&e, &env));
    }

    #[test]
    fn mod_bounds() {
        let env = RangeEnv::new();
        let e = v(0).mod_op(&SymExpr::int(8));
        assert!(prove_ge0(&e, &env));
        // mod(x, 8) <= 7.
        assert!(prove_le(&e, &SymExpr::int(7), &env));
    }

    #[test]
    fn min_max_bounds() {
        // i in [1,n]: min(i, 5) <= 5, max(i, 5) >= 5, min(i,5) >= ...
        let env = env_i_1_to_n();
        let m = v(0).min_op(&SymExpr::int(5));
        assert!(prove_le(&m, &SymExpr::int(5), &env));
        let x = v(0).max_op(&SymExpr::int(5));
        assert!(prove_ge0(&x.sub(&SymExpr::int(5)), &env));
        // min(i, 5) >= 1 because both args >= 1.
        assert!(prove_ge0(&m.sub(&SymExpr::int(1)), &env));
    }

    #[test]
    fn prove_le_lt_wrappers() {
        let env = env_i_1_to_n();
        assert!(prove_le(&SymExpr::int(1), &v(0), &env));
        assert!(prove_lt(&SymExpr::int(0), &v(0), &env));
        assert!(!prove_lt(&v(0), &v(0), &env));
        assert!(prove_le(&v(0), &v(0), &env));
        assert!(prove_eq(&v(0), &v(0), &env));
    }
}
