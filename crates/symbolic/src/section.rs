//! Array sections with symbolic bounds and the MAY/MUST-directed algebra.
//!
//! A [`Section`] describes a rectangular region of an array, one
//! [`SymRange`] per dimension (the "regular section" representation the
//! paper cites as reference 17; §3.1 notes the method is orthogonal to the
//! representation as long as aggregation is defined).
//!
//! Every operation is annotated with its approximation direction:
//! operations used for *Kill* sets over-approximate (MAY), operations
//! used for *Gen* sets under-approximate (MUST). Using an operation in
//! the wrong direction is the classic soundness bug in array data-flow
//! analysis, so the directions are part of the method names.

use crate::expr::SymExpr;
use crate::prove::{prove_ge0, prove_le, prove_lt};
use crate::range::{Bound, RangeEnv, SymRange};
use irr_frontend::VarId;
use std::fmt;

/// Aggregation direction for [`Section::aggregate`] (§3.2.5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggMode {
    /// Over-approximate the union over all iterations (for Kill sets).
    May,
    /// Under-approximate the union over all iterations (for Gen sets).
    Must,
}

/// A rectangular array section with symbolic bounds.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Section {
    /// The empty section.
    Empty,
    /// The whole array (or "unknown", as the paper's worst-case Kill
    /// `[-inf, +inf]`).
    Universal,
    /// One symbolic range per dimension.
    Dims(Vec<SymRange>),
}

impl Section {
    /// A single element `a(subs...)`.
    pub fn point(subs: Vec<SymExpr>) -> Section {
        Section::Dims(subs.into_iter().map(SymRange::point).collect())
    }

    /// A 1-D section `[lo:hi]`.
    pub fn range1(lo: SymExpr, hi: SymExpr) -> Section {
        Section::Dims(vec![SymRange::new(lo, hi)])
    }

    /// Whether this is the empty section (syntactically).
    pub fn is_empty(&self) -> bool {
        matches!(self, Section::Empty)
    }

    /// Whether this is the universal section.
    pub fn is_universal(&self) -> bool {
        matches!(self, Section::Universal)
    }

    /// The per-dimension ranges, if rectangular.
    pub fn ranges(&self) -> Option<&[SymRange]> {
        match self {
            Section::Dims(r) => Some(r),
            _ => None,
        }
    }

    /// Whether the section is *provably* empty under `env` (some
    /// dimension has `hi < lo`).
    pub fn provably_empty(&self, env: &RangeEnv) -> bool {
        match self {
            Section::Empty => true,
            Section::Universal => false,
            Section::Dims(ranges) => ranges.iter().any(|r| match (&r.lo, &r.hi) {
                (Bound::Finite(lo), Bound::Finite(hi)) => prove_lt(hi, lo, env),
                _ => false,
            }),
        }
    }

    /// Whether `self` and `other` are provably disjoint (no shared
    /// element) under `env`.
    pub fn provably_disjoint(&self, other: &Section, env: &RangeEnv) -> bool {
        match (self, other) {
            (Section::Empty, _) | (_, Section::Empty) => true,
            (Section::Universal, o) | (o, Section::Universal) => o.provably_empty(env),
            (Section::Dims(a), Section::Dims(b)) => {
                if self.provably_empty(env) || other.provably_empty(env) {
                    return true;
                }
                if a.len() != b.len() {
                    return false;
                }
                a.iter().zip(b.iter()).any(|(ra, rb)| {
                    let a_before_b = match (&ra.hi, &rb.lo) {
                        (Bound::Finite(h), Bound::Finite(l)) => prove_lt(h, l, env),
                        _ => false,
                    };
                    let b_before_a = match (&rb.hi, &ra.lo) {
                        (Bound::Finite(h), Bound::Finite(l)) => prove_lt(h, l, env),
                        _ => false,
                    };
                    a_before_b || b_before_a
                })
            }
        }
    }

    /// Whether `self` provably contains every element of `other`.
    pub fn provably_contains(&self, other: &Section, env: &RangeEnv) -> bool {
        match (self, other) {
            (_, Section::Empty) => true,
            (Section::Universal, _) => true,
            (_, Section::Universal) => false,
            (Section::Empty, other) => other.provably_empty(env),
            (Section::Dims(a), Section::Dims(b)) => {
                if other.provably_empty(env) {
                    return true;
                }
                if a.len() != b.len() {
                    return false;
                }
                a.iter().zip(b.iter()).all(|(ra, rb)| {
                    let lo_ok = match (&ra.lo, &rb.lo) {
                        (Bound::NegInf, _) => true,
                        (Bound::Finite(la), Bound::Finite(lb)) => prove_le(la, lb, env),
                        _ => false,
                    };
                    let hi_ok = match (&ra.hi, &rb.hi) {
                        (Bound::PosInf, _) => true,
                        (Bound::Finite(ha), Bound::Finite(hb)) => prove_le(hb, ha, env),
                        _ => false,
                    };
                    lo_ok && hi_ok
                })
            }
        }
    }

    /// Over-approximate union (sound for MAY/Kill information): the
    /// result contains every element of both operands.
    pub fn union_may(&self, other: &Section, env: &RangeEnv) -> Section {
        match (self, other) {
            (Section::Empty, o) | (o, Section::Empty) => o.clone(),
            (Section::Universal, _) | (_, Section::Universal) => Section::Universal,
            (Section::Dims(a), Section::Dims(b)) => {
                if a.len() != b.len() {
                    return Section::Universal;
                }
                let ranges = a
                    .iter()
                    .zip(b.iter())
                    .map(|(ra, rb)| SymRange {
                        lo: lower_of(&ra.lo, &rb.lo, env),
                        hi: upper_of(&ra.hi, &rb.hi, env),
                    })
                    .collect();
                Section::Dims(ranges)
            }
        }
    }

    /// Under-approximate union (sound for MUST/Gen information): every
    /// element of the result is in the true union. When the operands
    /// cannot be proven to overlap or be adjacent, one operand is
    /// returned (still an under-approximation of the union).
    pub fn union_must(&self, other: &Section, env: &RangeEnv) -> Section {
        match (self, other) {
            (Section::Empty, o) | (o, Section::Empty) => o.clone(),
            (Section::Universal, _) | (_, Section::Universal) => Section::Universal,
            (Section::Dims(a), Section::Dims(b)) => {
                if self.provably_contains(other, env) {
                    return self.clone();
                }
                if other.provably_contains(self, env) {
                    return other.clone();
                }
                if a.len() == b.len() {
                    // Boxes that agree in every dimension but one can
                    // merge along that dimension when the two ranges
                    // provably overlap or meet.
                    let same_range =
                        |ra: &SymRange, rb: &SymRange| match ((&ra.lo, &ra.hi), (&rb.lo, &rb.hi)) {
                            (
                                (Bound::Finite(la), Bound::Finite(ha)),
                                (Bound::Finite(lb), Bound::Finite(hb)),
                            ) => {
                                use crate::prove::prove_eq;
                                prove_eq(la, lb, env) && prove_eq(ha, hb, env)
                            }
                            _ => ra == rb,
                        };
                    let differing: Vec<usize> = (0..a.len())
                        .filter(|&d| !same_range(&a[d], &b[d]))
                        .collect();
                    if differing.len() == 1 {
                        let d = differing[0];
                        let (ra, rb) = (&a[d], &b[d]);
                        if let (
                            Bound::Finite(la),
                            Bound::Finite(ha),
                            Bound::Finite(lb),
                            Bound::Finite(hb),
                        ) = (&ra.lo, &ra.hi, &rb.lo, &rb.hi)
                        {
                            // a before-or-meeting b, contiguous:
                            // lb <= ha + 1.
                            let one = SymExpr::int(1);
                            let merged = if prove_le(la, lb, env)
                                && prove_le(lb, &ha.add(&one), env)
                                && prove_le(ha, hb, env)
                            {
                                Some(SymRange::new(la.clone(), hb.clone()))
                            } else if prove_le(lb, la, env)
                                && prove_le(la, &hb.add(&one), env)
                                && prove_le(hb, ha, env)
                            {
                                Some(SymRange::new(lb.clone(), ha.clone()))
                            } else {
                                None
                            };
                            if let Some(m) = merged {
                                let mut out = a.clone();
                                out[d] = m;
                                return Section::Dims(out);
                            }
                        }
                    }
                }
                // Fall back to the larger-looking operand; either is a
                // sound under-approximation of the union. Prefer one that
                // is not provably empty.
                if self.provably_empty(env) {
                    other.clone()
                } else {
                    self.clone()
                }
            }
        }
    }

    /// Over-approximate intersection (sound for checking `Kill ∩ query`):
    /// the result contains every element of the true intersection.
    pub fn intersect_may(&self, other: &Section, env: &RangeEnv) -> Section {
        match (self, other) {
            (Section::Empty, _) | (_, Section::Empty) => Section::Empty,
            (Section::Universal, o) | (o, Section::Universal) => o.clone(),
            (Section::Dims(a), Section::Dims(b)) => {
                if self.provably_disjoint(other, env) {
                    return Section::Empty;
                }
                if a.len() != b.len() {
                    // Shouldn't happen for same-array sections; be sound.
                    return self.clone();
                }
                let ranges = a
                    .iter()
                    .zip(b.iter())
                    .map(|(ra, rb)| SymRange {
                        // For over-approximation either lo is sound; take
                        // the provably larger for precision.
                        lo: pick_max_lo(&ra.lo, &rb.lo, env),
                        hi: pick_min_hi(&ra.hi, &rb.hi, env),
                    })
                    .collect();
                Section::Dims(ranges)
            }
        }
    }

    /// Over-approximate difference `self \ gen` (sound for computing the
    /// *remaining* part of a query after subtracting MUST-generated
    /// elements): the result contains every element of the true
    /// difference.
    pub fn subtract_under(&self, gen: &Section, env: &RangeEnv) -> Section {
        match (self, gen) {
            (Section::Empty, _) => Section::Empty,
            (s, Section::Empty) => s.clone(),
            (_, Section::Universal) => Section::Empty,
            (s, g) => {
                if g.provably_contains(s, env) {
                    return Section::Empty;
                }
                if let (Section::Dims(a), Section::Dims(b)) = (s, g) {
                    if a.len() == 1 && b.len() == 1 {
                        if let (
                            Bound::Finite(la),
                            Bound::Finite(ha),
                            Bound::Finite(lb),
                            Bound::Finite(hb),
                        ) = (&a[0].lo, &a[0].hi, &b[0].lo, &b[0].hi)
                        {
                            let one = SymExpr::int(1);
                            // gen covers a prefix: lb <= la  =>  rest is
                            // [hb+1, ha].
                            if prove_le(lb, la, env) && prove_le(hb, ha, env) {
                                return Section::range1(hb.add(&one), ha.clone());
                            }
                            // gen covers a suffix: ha <= hb  =>  rest is
                            // [la, lb-1].
                            if prove_le(ha, hb, env) && prove_le(la, lb, env) {
                                return Section::range1(la.clone(), lb.sub(&one));
                            }
                        }
                    }
                }
                s.clone()
            }
        }
    }

    /// Under-approximate intersection (sound for MUST information): every
    /// element of the result is in both operands. Degrades to `Empty`
    /// when the bounds cannot be ordered.
    pub fn intersect_must(&self, other: &Section, env: &RangeEnv) -> Section {
        match (self, other) {
            (Section::Empty, _) | (_, Section::Empty) => Section::Empty,
            (Section::Universal, o) | (o, Section::Universal) => o.clone(),
            (Section::Dims(a), Section::Dims(b)) => {
                if self.provably_contains(other, env) {
                    return other.clone();
                }
                if other.provably_contains(self, env) {
                    return self.clone();
                }
                if a.len() != b.len() {
                    return Section::Empty;
                }
                let mut out = Vec::with_capacity(a.len());
                for (ra, rb) in a.iter().zip(b.iter()) {
                    // lo must be >= both los provably; hi <= both his.
                    let lo = match (&ra.lo, &rb.lo) {
                        (Bound::NegInf, o) | (o, Bound::NegInf) => o.clone(),
                        (Bound::Finite(x), Bound::Finite(y)) => {
                            if prove_ge0(&x.sub(y), env) {
                                Bound::Finite(x.clone())
                            } else if prove_ge0(&y.sub(x), env) {
                                Bound::Finite(y.clone())
                            } else {
                                return Section::Empty;
                            }
                        }
                        _ => return Section::Empty,
                    };
                    let hi = match (&ra.hi, &rb.hi) {
                        (Bound::PosInf, o) | (o, Bound::PosInf) => o.clone(),
                        (Bound::Finite(x), Bound::Finite(y)) => {
                            if prove_ge0(&y.sub(x), env) {
                                Bound::Finite(x.clone())
                            } else if prove_ge0(&x.sub(y), env) {
                                Bound::Finite(y.clone())
                            } else {
                                return Section::Empty;
                            }
                        }
                        _ => return Section::Empty,
                    };
                    out.push(SymRange { lo, hi });
                }
                Section::Dims(out)
            }
        }
    }

    /// Under-approximate difference `self \ kill` where `kill` is a MAY
    /// set (sound for trimming Gen information by later kills): no
    /// element of the result is in `kill`.
    pub fn subtract_may(&self, kill: &Section, env: &RangeEnv) -> Section {
        match (self, kill) {
            (Section::Empty, _) => Section::Empty,
            (s, Section::Empty) => s.clone(),
            (_, Section::Universal) => Section::Empty,
            (s, k) => {
                if s.provably_disjoint(k, env) {
                    return s.clone();
                }
                if let (Section::Dims(a), Section::Dims(b)) = (s, k) {
                    if a.len() == 1 && b.len() == 1 {
                        if let (
                            Bound::Finite(la),
                            Bound::Finite(ha),
                            Bound::Finite(lb),
                            Bound::Finite(hb),
                        ) = (&a[0].lo, &a[0].hi, &b[0].lo, &b[0].hi)
                        {
                            let one = SymExpr::int(1);
                            // Everything above the kill is safe.
                            let above = Section::range1(hb.add(&one), ha.clone());
                            if prove_le(&hb.add(&one), ha, env) && prove_le(la, &hb.add(&one), env)
                            {
                                return above;
                            }
                            // Everything below the kill is safe.
                            let below = Section::range1(la.clone(), lb.sub(&one));
                            if prove_le(la, &lb.sub(&one), env) && prove_le(&lb.sub(&one), ha, env)
                            {
                                return below;
                            }
                        }
                    }
                }
                Section::Empty
            }
        }
    }

    /// Substitutes `var := replacement` in every bound.
    pub fn subst(&self, var: VarId, replacement: &SymExpr) -> Section {
        match self {
            Section::Empty => Section::Empty,
            Section::Universal => Section::Universal,
            Section::Dims(ranges) => Section::Dims(
                ranges
                    .iter()
                    .map(|r| SymRange {
                        lo: subst_bound(&r.lo, var, replacement),
                        hi: subst_bound(&r.hi, var, replacement),
                    })
                    .collect(),
            ),
        }
    }

    /// Whether the per-iteration sections chain exactly as `var` steps
    /// by one: the single `var`-dependent dimension satisfies
    /// `lo(var+1) == hi(var) + 1` unconditionally. Used to justify MUST
    /// aggregation when the loop's trip count is unknown.
    fn chains_exactly(&self, var: VarId, env: &RangeEnv) -> bool {
        let Section::Dims(ranges) = self else {
            return false;
        };
        let varying: Vec<&SymRange> = ranges
            .iter()
            .filter(|r| {
                r.lo.as_finite().is_some_and(|e| e.mentions_var(var))
                    || r.hi.as_finite().is_some_and(|e| e.mentions_var(var))
            })
            .collect();
        // Exactly one dimension may vary with `var`; a box is empty as
        // soon as any one dimension is, so the zero-trip argument only
        // needs the varying dimension to chain exactly.
        if varying.len() != 1 {
            return false;
        }
        let r = varying[0];
        let (Bound::Finite(flo), Bound::Finite(fhi)) = (&r.lo, &r.hi) else {
            return false;
        };
        let next = SymExpr::var(var).add(&SymExpr::int(1));
        let lo_next = flo.subst(var, &next);
        // Exact chaining: lo(var+1) - hi(var) - 1 == 0 syntactically
        // (or provably under env without iteration constraints).
        let diff = lo_next.sub(fhi).sub(&SymExpr::int(1));
        diff.is_zero() || {
            use crate::prove::prove_eq;
            prove_eq(&diff, &SymExpr::int(0), env)
        }
    }

    /// Whether any bound mentions `var`.
    pub fn mentions_var(&self, var: VarId) -> bool {
        match self {
            Section::Dims(ranges) => ranges.iter().any(|r| {
                r.lo.as_finite().is_some_and(|e| e.mentions_var(var))
                    || r.hi.as_finite().is_some_and(|e| e.mentions_var(var))
            }),
            _ => false,
        }
    }

    /// Aggregates the per-iteration section over `var ∈ [lo, hi]`
    /// (§3.2.5, the `Aggregate` operator of Gross & Steenkiste / Gu et
    /// al.).
    ///
    /// - [`AggMode::May`]: the result contains the union over all
    ///   iterations (hull via monotone substitution; `Universal` when the
    ///   dependence on `var` is not understood).
    /// - [`AggMode::Must`]: the result is contained in the union,
    ///   requiring the per-iteration sections to chain contiguously
    ///   (`lo(i+1) <= hi(i) + 1`) and the loop to execute at least once;
    ///   `Empty` otherwise.
    pub fn aggregate(
        &self,
        var: VarId,
        lo: &SymExpr,
        hi: &SymExpr,
        env: &RangeEnv,
        mode: AggMode,
    ) -> Section {
        match self {
            Section::Empty => Section::Empty,
            Section::Universal => Section::Universal,
            Section::Dims(ranges) => {
                // A MUST union over zero iterations is empty; when the
                // trip count is unprovable the aggregate is still usable
                // if the per-iteration sections chain *exactly*
                // (`lo(i+1) == hi(i) + 1`): then the result box
                // `[lo(lo) : hi(hi)]` is itself provably empty whenever
                // the loop runs zero times.
                let runs_at_least_once = prove_le(lo, hi, env);
                if mode == AggMode::Must && !runs_at_least_once && !self.chains_exactly(var, env) {
                    return Section::Empty;
                }
                if !self.mentions_var(var) {
                    if mode == AggMode::Must && !runs_at_least_once {
                        return Section::Empty;
                    }
                    return self.clone();
                }
                // Iteration-local env: var ranges over [lo, hi].
                let mut iter_env = env.clone();
                iter_env.set_var_range(var, lo.clone(), hi.clone());
                let varying: Vec<usize> = ranges
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| {
                        r.lo.as_finite().is_some_and(|e| e.mentions_var(var))
                            || r.hi.as_finite().is_some_and(|e| e.mentions_var(var))
                    })
                    .map(|(i, _)| i)
                    .collect();
                match mode {
                    AggMode::May => {
                        let mut out = Vec::with_capacity(ranges.len());
                        for r in ranges {
                            let lo_b = minimize_bound(&r.lo, var, lo, hi, &iter_env);
                            let hi_b = maximize_bound(&r.hi, var, lo, hi, &iter_env);
                            out.push(SymRange { lo: lo_b, hi: hi_b });
                        }
                        Section::Dims(out)
                    }
                    AggMode::Must => {
                        if varying.len() != 1 {
                            return Section::Empty;
                        }
                        let d = varying[0];
                        let r = &ranges[d];
                        let (Bound::Finite(flo), Bound::Finite(fhi)) = (&r.lo, &r.hi) else {
                            return Section::Empty;
                        };
                        // Contiguity: lo(i+1) <= hi(i) + 1 for i in
                        // [lo, hi-1]; monotone growth: lo(i) <= lo(i+1).
                        let mut chain_env = env.clone();
                        chain_env.set_var_range(var, lo.clone(), hi.sub(&SymExpr::int(1)));
                        let next = SymExpr::var(var).add(&SymExpr::int(1));
                        let lo_next = flo.subst(var, &next);
                        let hi_next = fhi.subst(var, &next);
                        let one = SymExpr::int(1);
                        let contiguous = prove_le(&lo_next, &fhi.add(&one), &chain_env);
                        let lo_monotone = prove_le(flo, &lo_next, &chain_env);
                        let hi_monotone = prove_le(fhi, &hi_next, &chain_env);
                        // Per-iteration non-emptiness: lo(i) <= hi(i).
                        let nonempty = prove_le(flo, fhi, &iter_env);
                        if contiguous && lo_monotone && hi_monotone && nonempty {
                            let mut out = ranges.clone();
                            out[d] = SymRange::new(flo.subst(var, lo), fhi.subst(var, hi));
                            Section::Dims(out)
                        } else {
                            Section::Empty
                        }
                    }
                }
            }
        }
    }
}

fn subst_bound(b: &Bound, var: VarId, replacement: &SymExpr) -> Bound {
    match b {
        Bound::Finite(e) => Bound::Finite(e.subst(var, replacement)),
        other => other.clone(),
    }
}

/// A sound lower bound for `min(a, b)` when both are lower bounds of
/// sections being unioned (the hull's lower end).
fn lower_of(a: &Bound, b: &Bound, env: &RangeEnv) -> Bound {
    match (a, b) {
        (Bound::NegInf, _) | (_, Bound::NegInf) => Bound::NegInf,
        (Bound::PosInf, o) | (o, Bound::PosInf) => o.clone(),
        (Bound::Finite(x), Bound::Finite(y)) => {
            if prove_le(x, y, env) {
                a.clone()
            } else if prove_le(y, x, env) {
                b.clone()
            } else {
                Bound::NegInf
            }
        }
    }
}

/// A sound upper bound for `max(a, b)` (the hull's upper end).
fn upper_of(a: &Bound, b: &Bound, env: &RangeEnv) -> Bound {
    match (a, b) {
        (Bound::PosInf, _) | (_, Bound::PosInf) => Bound::PosInf,
        (Bound::NegInf, o) | (o, Bound::NegInf) => o.clone(),
        (Bound::Finite(x), Bound::Finite(y)) => {
            if prove_le(x, y, env) {
                b.clone()
            } else if prove_le(y, x, env) {
                a.clone()
            } else {
                Bound::PosInf
            }
        }
    }
}

/// For an over-approximate intersection, any of the operand `lo`s is
/// sound; pick the provably larger.
fn pick_max_lo(a: &Bound, b: &Bound, env: &RangeEnv) -> Bound {
    match (a, b) {
        (Bound::NegInf, o) | (o, Bound::NegInf) => o.clone(),
        (Bound::PosInf, _) | (_, Bound::PosInf) => Bound::PosInf,
        (Bound::Finite(x), Bound::Finite(y)) => {
            if prove_le(x, y, env) {
                b.clone()
            } else {
                a.clone()
            }
        }
    }
}

fn pick_min_hi(a: &Bound, b: &Bound, env: &RangeEnv) -> Bound {
    match (a, b) {
        (Bound::PosInf, o) | (o, Bound::PosInf) => o.clone(),
        (Bound::NegInf, _) | (_, Bound::NegInf) => Bound::NegInf,
        (Bound::Finite(x), Bound::Finite(y)) => {
            if prove_le(x, y, env) {
                a.clone()
            } else {
                b.clone()
            }
        }
    }
}

/// The smallest value `bound` takes as `var` ranges over `[lo, hi]`
/// (monotone substitution); `NegInf` when monotonicity is unprovable.
fn minimize_bound(bound: &Bound, var: VarId, lo: &SymExpr, hi: &SymExpr, env: &RangeEnv) -> Bound {
    let Bound::Finite(e) = bound else {
        return bound.clone();
    };
    if !e.mentions_var(var) {
        return bound.clone();
    }
    match monotonicity(e, var, lo, hi, env) {
        Some(Monotone::NonDecreasing) => Bound::Finite(e.subst(var, lo)),
        Some(Monotone::NonIncreasing) => Bound::Finite(e.subst(var, hi)),
        None => Bound::NegInf,
    }
}

/// The largest value `bound` takes as `var` ranges over `[lo, hi]`.
fn maximize_bound(bound: &Bound, var: VarId, lo: &SymExpr, hi: &SymExpr, env: &RangeEnv) -> Bound {
    let Bound::Finite(e) = bound else {
        return bound.clone();
    };
    if !e.mentions_var(var) {
        return bound.clone();
    }
    match monotonicity(e, var, lo, hi, env) {
        Some(Monotone::NonDecreasing) => Bound::Finite(e.subst(var, hi)),
        Some(Monotone::NonIncreasing) => Bound::Finite(e.subst(var, lo)),
        None => Bound::PosInf,
    }
}

/// The smallest and largest values `e` takes as `var` ranges over
/// `[lo, hi]`, via monotone substitution. `None` when the evolution of
/// `e` in `var` cannot be proven monotone.
pub fn extremes_over(
    e: &SymExpr,
    var: VarId,
    lo: &SymExpr,
    hi: &SymExpr,
    env: &RangeEnv,
) -> Option<(SymExpr, SymExpr)> {
    if !e.mentions_var(var) {
        return Some((e.clone(), e.clone()));
    }
    match monotonicity(e, var, lo, hi, env)? {
        Monotone::NonDecreasing => Some((e.subst(var, lo), e.subst(var, hi))),
        Monotone::NonIncreasing => Some((e.subst(var, hi), e.subst(var, lo))),
    }
}

enum Monotone {
    NonDecreasing,
    NonIncreasing,
}

/// Determines how `e` evolves as `var` steps by +1 through `[lo, hi]`,
/// using the prover (which understands closed-form-distance facts, so
/// `pptr(i)` counts as non-decreasing when `pptr(i+1)-pptr(i) = iblen(i)
/// >= 0` is known).
fn monotonicity(
    e: &SymExpr,
    var: VarId,
    lo: &SymExpr,
    hi: &SymExpr,
    env: &RangeEnv,
) -> Option<Monotone> {
    let mut step_env = env.clone();
    step_env.set_var_range(var, lo.clone(), hi.sub(&SymExpr::int(1)));
    let next = e.subst(var, &SymExpr::var(var).add(&SymExpr::int(1)));
    let delta = next.sub(e);
    if prove_ge0(&delta, &step_env) {
        return Some(Monotone::NonDecreasing);
    }
    if prove_ge0(&delta.neg(), &step_env) {
        return Some(Monotone::NonIncreasing);
    }
    None
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Section::Empty => write!(f, "{{}}"),
            Section::Universal => write!(f, "[-inf:+inf]"),
            Section::Dims(ranges) => {
                let strs: Vec<String> = ranges.iter().map(|r| format!("{r}")).collect();
                write!(f, "{}", strs.join("x"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(v: i64) -> SymExpr {
        SymExpr::int(v)
    }

    fn sec(lo: i64, hi: i64) -> Section {
        Section::range1(c(lo), c(hi))
    }

    #[test]
    fn disjointness_and_containment() {
        let env = RangeEnv::new();
        assert!(sec(1, 5).provably_disjoint(&sec(6, 9), &env));
        assert!(!sec(1, 5).provably_disjoint(&sec(5, 9), &env));
        assert!(sec(1, 10).provably_contains(&sec(2, 9), &env));
        assert!(!sec(2, 9).provably_contains(&sec(1, 10), &env));
        assert!(sec(5, 1).provably_empty(&env));
        assert!(!sec(1, 1).provably_empty(&env));
    }

    #[test]
    fn union_may_hull() {
        let env = RangeEnv::new();
        let u = sec(1, 3).union_may(&sec(7, 9), &env);
        assert_eq!(u, sec(1, 9));
        assert!(u.provably_contains(&sec(1, 3), &env));
        assert!(u.provably_contains(&sec(7, 9), &env));
    }

    #[test]
    fn union_must_merges_contiguous() {
        let env = RangeEnv::new();
        // [1,3] ∪ [4,9] = [1,9] exactly (adjacent).
        assert_eq!(sec(1, 3).union_must(&sec(4, 9), &env), sec(1, 9));
        // [1,3] ∪ [5,9] not contiguous: under-approximates with one side.
        let u = sec(1, 3).union_must(&sec(5, 9), &env);
        assert!(u == sec(1, 3) || u == sec(5, 9));
        // Containment collapses.
        assert_eq!(sec(1, 9).union_must(&sec(2, 5), &env), sec(1, 9));
    }

    #[test]
    fn intersect_may_precision() {
        let env = RangeEnv::new();
        assert_eq!(sec(1, 5).intersect_may(&sec(3, 9), &env), sec(3, 5));
        assert_eq!(sec(1, 5).intersect_may(&sec(6, 9), &env), Section::Empty);
    }

    #[test]
    fn subtract_prefix_and_suffix() {
        let env = RangeEnv::new();
        // [1,10] - [1,4] = [5,10].
        assert_eq!(sec(1, 10).subtract_under(&sec(1, 4), &env), sec(5, 10));
        // [1,10] - [6,10] = [1,5].
        assert_eq!(sec(1, 10).subtract_under(&sec(6, 10), &env), sec(1, 5));
        // [1,10] - [1,10] = empty.
        assert_eq!(sec(1, 10).subtract_under(&sec(0, 12), &env), Section::Empty);
        // Middle hole: conservative (whole section remains).
        assert_eq!(sec(1, 10).subtract_under(&sec(4, 6), &env), sec(1, 10));
    }

    #[test]
    fn aggregate_may_affine() {
        // Section [i:i] aggregated over i in [1, n] -> [1:n].
        let mut env = RangeEnv::new();
        let i = VarId(0);
        let n = VarId(1);
        env.set_var_range(n, c(1), c(1000));
        let s = Section::point(vec![SymExpr::var(i)]);
        let agg = s.aggregate(i, &c(1), &SymExpr::var(n), &env, AggMode::May);
        assert_eq!(agg, Section::range1(c(1), SymExpr::var(n)));
    }

    #[test]
    fn aggregate_must_contiguous_points() {
        // MUST: [i:i] over i in [1, n] with n >= 1 -> [1:n].
        let mut env = RangeEnv::new();
        let i = VarId(0);
        let n = VarId(1);
        env.set_var_range(n, c(1), c(1000)); // n >= 1, so the loop runs.
        let s = Section::point(vec![SymExpr::var(i)]);
        let agg = s.aggregate(i, &c(1), &SymExpr::var(n), &env, AggMode::Must);
        assert_eq!(agg, Section::range1(c(1), SymExpr::var(n)));
    }

    #[test]
    fn aggregate_must_fails_with_gaps() {
        // [2i : 2i] leaves holes -> MUST aggregation must give Empty.
        let mut env = RangeEnv::new();
        let i = VarId(0);
        env.set_var_range(VarId(1), c(2), c(1000));
        let s = Section::point(vec![SymExpr::var(i).scale(2)]);
        let agg = s.aggregate(i, &c(1), &SymExpr::var(VarId(1)), &env, AggMode::Must);
        assert_eq!(agg, Section::Empty);
    }

    #[test]
    fn aggregate_must_with_unknown_trip_count() {
        // n unknown but the sections chain exactly: [i:i] over [1, n]
        // aggregates to [1:n], which is itself empty when n < 1.
        let env = RangeEnv::new();
        let i = VarId(0);
        let n = SymExpr::var(VarId(1));
        let s = Section::point(vec![SymExpr::var(i)]);
        let agg = s.aggregate(i, &c(1), &n, &env, AggMode::Must);
        assert_eq!(agg, Section::range1(c(1), n.clone()));
        // A var-independent section cannot be MUST-aggregated over a
        // possibly-zero-trip loop.
        let fixed = Section::range1(c(1), c(5));
        let agg2 = fixed.aggregate(i, &c(1), &n, &env, AggMode::Must);
        assert_eq!(agg2, Section::Empty);
        // Nor can a section with gaps relative to its chaining.
        let gapped = Section::range1(SymExpr::var(i).scale(2), SymExpr::var(i).scale(2));
        let agg3 = gapped.aggregate(i, &c(1), &n, &env, AggMode::Must);
        assert_eq!(agg3, Section::Empty);
    }

    #[test]
    fn aggregate_may_unknown_dependence_is_unbounded() {
        // Section [q:q] where q is not the loop var but [x(i):x(i)]
        // depends on i through an unknown array: May -> unbounded dim.
        let env = RangeEnv::new();
        let i = VarId(0);
        let arr = VarId(5);
        let s = Section::point(vec![SymExpr::elem(arr, vec![SymExpr::var(i)])]);
        let agg = s.aggregate(i, &c(1), &c(10), &env, AggMode::May);
        match agg {
            Section::Dims(r) => {
                assert_eq!(r[0].lo, Bound::NegInf);
                assert_eq!(r[0].hi, Bound::PosInf);
            }
            other => panic!("expected dims, got {other:?}"),
        }
    }

    #[test]
    fn aggregate_ccs_segments_with_distance_fact() {
        // Section [pptr(i) : pptr(i)+iblen(i)-1] over i in [1, n]:
        // with pptr(i+1) = pptr(i) + iblen(i) and iblen >= 0 this chains
        // contiguously: MUST aggregate = [pptr(1) : pptr(n)+iblen(n)-1]
        // ... but per-iteration non-emptiness needs iblen(i) >= 1, so use
        // iblen >= 1 here.
        let mut env = RangeEnv::new();
        let i = VarId(0);
        let n = VarId(1);
        let pptr = VarId(2);
        let iblen = VarId(3);
        let k = VarId(7);
        env.set_var_range(n, c(1), c(1000));
        env.set_distance(pptr, k, SymExpr::elem(iblen, vec![SymExpr::var(k)]));
        env.set_elem_range(
            iblen,
            SymRange {
                lo: Bound::Finite(c(1)),
                hi: Bound::PosInf,
            },
        );
        let lo = SymExpr::elem(pptr, vec![SymExpr::var(i)]);
        let hi = lo
            .add(&SymExpr::elem(iblen, vec![SymExpr::var(i)]))
            .sub(&c(1));
        let s = Section::range1(lo, hi);
        let agg = s.aggregate(i, &c(1), &SymExpr::var(n), &env, AggMode::Must);
        let expect_lo = SymExpr::elem(pptr, vec![c(1)]);
        let expect_hi = SymExpr::elem(pptr, vec![SymExpr::var(n)])
            .add(&SymExpr::elem(iblen, vec![SymExpr::var(n)]))
            .sub(&c(1));
        assert_eq!(agg, Section::range1(expect_lo, expect_hi));
    }

    #[test]
    fn intersect_must_underapproximates() {
        let env = RangeEnv::new();
        assert_eq!(sec(1, 5).intersect_must(&sec(3, 9), &env), sec(3, 5));
        assert_eq!(sec(1, 10).intersect_must(&sec(2, 5), &env), sec(2, 5));
        // Unorderable bounds degrade to Empty.
        let i = VarId(0);
        let s = Section::range1(SymExpr::var(i), SymExpr::var(i).add(&c(5)));
        assert_eq!(s.intersect_must(&sec(1, 10), &env), Section::Empty);
    }

    #[test]
    fn subtract_may_never_keeps_killed_elements() {
        let env = RangeEnv::new();
        // [1,10] \ [1,4] -> [5,10].
        assert_eq!(sec(1, 10).subtract_may(&sec(1, 4), &env), sec(5, 10));
        // [1,10] \ [8,12] -> [1,7].
        assert_eq!(sec(1, 10).subtract_may(&sec(8, 12), &env), sec(1, 7));
        // Disjoint kill leaves the section alone.
        assert_eq!(sec(1, 10).subtract_may(&sec(20, 30), &env), sec(1, 10));
        // Kill in the middle: a box cannot represent two pieces, so one
        // sound piece (the upper one) is kept.
        assert_eq!(sec(1, 10).subtract_may(&sec(4, 6), &env), sec(7, 10));
        // Universal kill removes everything.
        assert_eq!(
            sec(1, 10).subtract_may(&Section::Universal, &env),
            Section::Empty
        );
    }

    #[test]
    fn subst_rewrites_bounds() {
        let i = VarId(0);
        let s = Section::range1(SymExpr::var(i), SymExpr::var(i).add(&c(2)));
        let t = s.subst(i, &c(5));
        assert_eq!(t, sec(5, 7));
    }

    #[test]
    fn universal_and_empty_behave() {
        let env = RangeEnv::new();
        assert_eq!(
            Section::Universal.union_may(&sec(1, 2), &env),
            Section::Universal
        );
        assert_eq!(Section::Empty.union_may(&sec(1, 2), &env), sec(1, 2));
        assert_eq!(
            Section::Universal.intersect_may(&sec(1, 2), &env),
            sec(1, 2)
        );
        assert_eq!(
            sec(1, 2).subtract_under(&Section::Universal, &env),
            Section::Empty
        );
        assert!(Section::Empty.provably_empty(&env));
        assert!(!Section::Universal.provably_empty(&env));
    }

    #[test]
    fn display_sections() {
        assert_eq!(format!("{}", sec(1, 5)), "[1:5]");
        assert_eq!(format!("{}", Section::Empty), "{}");
    }
}
