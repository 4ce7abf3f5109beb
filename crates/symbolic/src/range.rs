//! Symbolic intervals and the fact environment used by the prover.

use crate::expr::{Atom, SymExpr};
use irr_frontend::VarId;
use std::collections::HashMap;
use std::fmt;

/// One end of a symbolic interval.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Bound {
    NegInf,
    /// A finite symbolic bound (inclusive).
    Finite(SymExpr),
    PosInf,
}

impl Bound {
    /// The finite expression if this bound is finite.
    pub fn as_finite(&self) -> Option<&SymExpr> {
        match self {
            Bound::Finite(e) => Some(e),
            _ => None,
        }
    }

    /// Adds two lower (or two upper) bounds.
    pub fn add(&self, other: &Bound) -> Bound {
        match (self, other) {
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a.add(b)),
            (Bound::NegInf, _) | (_, Bound::NegInf) => Bound::NegInf,
            (Bound::PosInf, _) | (_, Bound::PosInf) => Bound::PosInf,
        }
    }

    /// Scales the bound by a positive rational `num/den`; flips infinities
    /// when `num` is negative.
    pub fn scale(&self, num: i64, den: i64) -> Bound {
        debug_assert!(den > 0);
        match self {
            Bound::Finite(e) => Bound::Finite(e.scale(num).div_exact(den)),
            Bound::NegInf => {
                if num >= 0 {
                    Bound::NegInf
                } else {
                    Bound::PosInf
                }
            }
            Bound::PosInf => {
                if num >= 0 {
                    Bound::PosInf
                } else {
                    Bound::NegInf
                }
            }
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::NegInf => write!(f, "-inf"),
            Bound::Finite(e) => write!(f, "{e}"),
            Bound::PosInf => write!(f, "+inf"),
        }
    }
}

/// A symbolic interval `[lo, hi]` (both inclusive).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SymRange {
    pub lo: Bound,
    pub hi: Bound,
}

impl SymRange {
    /// The unbounded interval.
    pub fn universal() -> SymRange {
        SymRange {
            lo: Bound::NegInf,
            hi: Bound::PosInf,
        }
    }

    /// A degenerate interval `[e, e]`.
    pub fn point(e: SymExpr) -> SymRange {
        SymRange {
            lo: Bound::Finite(e.clone()),
            hi: Bound::Finite(e),
        }
    }

    /// `[lo, hi]` from finite expressions.
    pub fn new(lo: SymExpr, hi: SymExpr) -> SymRange {
        SymRange {
            lo: Bound::Finite(lo),
            hi: Bound::Finite(hi),
        }
    }

    /// Whether both ends are finite.
    pub fn is_finite(&self) -> bool {
        matches!(self.lo, Bound::Finite(_)) && matches!(self.hi, Bound::Finite(_))
    }

    /// Interval addition.
    pub fn add(&self, other: &SymRange) -> SymRange {
        SymRange {
            lo: self.lo.add(&other.lo),
            hi: self.hi.add(&other.hi),
        }
    }

    /// Scales by the rational `num/den` (`den > 0`), swapping ends for
    /// negative `num`.
    pub fn scale(&self, num: i64, den: i64) -> SymRange {
        if num >= 0 {
            SymRange {
                lo: self.lo.scale(num, den),
                hi: self.hi.scale(num, den),
            }
        } else {
            SymRange {
                lo: self.hi.scale(num, den),
                hi: self.lo.scale(num, den),
            }
        }
    }
}

impl fmt::Display for SymRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}:{}]", self.lo, self.hi)
    }
}

/// Known facts about atoms, consulted by [`crate::prove`] and the section
/// algebra.
///
/// Three layers of facts are supported:
/// - exact atom ranges (`i ∈ [1, n]` for a loop variable),
/// - per-array element value ranges (`iblen(*) ∈ [0, +inf]` — the
///   closed-form-bound facts produced by array property analysis),
/// - closed-form distances (`pptr(k+1) - pptr(k) = iblen(k)` — produced
///   by the closed-form-distance property).
#[derive(Clone, Debug, Default)]
pub struct RangeEnv {
    atom_ranges: HashMap<Atom, SymRange>,
    elem_ranges: HashMap<VarId, SymRange>,
    /// `array -> d` such that `array(k+1) - array(k) == d(k)` where the
    /// distance is an expression in the subscript variable given as the
    /// paired `VarId` placeholder (see [`RangeEnv::set_distance`]).
    distances: HashMap<VarId, (VarId, SymExpr)>,
}

impl RangeEnv {
    /// An empty environment.
    pub fn new() -> RangeEnv {
        RangeEnv::default()
    }

    /// Records `lo <= var <= hi`.
    pub fn set_var_range(&mut self, var: VarId, lo: SymExpr, hi: SymExpr) {
        self.atom_ranges
            .insert(Atom::Var(var), SymRange::new(lo, hi));
    }

    /// Records a one-sided or two-sided range for an atom.
    pub fn set_atom_range(&mut self, atom: Atom, range: SymRange) {
        self.atom_ranges.insert(atom, range);
    }

    /// Records that every element value of `array` lies in `range`
    /// (a closed-form bound fact, §3).
    pub fn set_elem_range(&mut self, array: VarId, range: SymRange) {
        self.elem_ranges.insert(array, range);
    }

    /// Records a closed-form distance fact: for all `k`,
    /// `array(k+1) - array(k) == distance`, where `distance` is expressed
    /// in terms of the placeholder variable `subscript_var`.
    pub fn set_distance(&mut self, array: VarId, subscript_var: VarId, distance: SymExpr) {
        self.distances.insert(array, (subscript_var, distance));
    }

    /// Closed-form distance fact for an array, if recorded.
    pub fn distance(&self, array: VarId) -> Option<&(VarId, SymExpr)> {
        self.distances.get(&array)
    }

    /// The range known for `atom`, combining the exact and per-array
    /// layers; `None` when nothing is known.
    pub fn lookup(&self, atom: &Atom) -> Option<SymRange> {
        if let Some(r) = self.atom_ranges.get(atom) {
            return Some(r.clone());
        }
        if let Atom::Elem(arr, _) = atom {
            if let Some(r) = self.elem_ranges.get(arr) {
                return Some(r.clone());
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u32) -> SymExpr {
        SymExpr::var(VarId(n))
    }

    #[test]
    fn bound_arithmetic() {
        let a = Bound::Finite(v(0));
        let b = Bound::Finite(SymExpr::int(3));
        assert_eq!(a.add(&b), Bound::Finite(v(0).add(&SymExpr::int(3))));
        assert_eq!(Bound::NegInf.add(&b), Bound::NegInf);
        assert_eq!(Bound::PosInf.scale(-1, 1), Bound::NegInf);
    }

    #[test]
    fn range_scale_flips_on_negation() {
        let r = SymRange::new(SymExpr::int(1), SymExpr::int(5));
        let s = r.scale(-2, 1);
        assert_eq!(s.lo, Bound::Finite(SymExpr::int(-10)));
        assert_eq!(s.hi, Bound::Finite(SymExpr::int(-2)));
    }

    #[test]
    fn env_layers() {
        let mut env = RangeEnv::new();
        let i = VarId(0);
        let arr = VarId(1);
        env.set_var_range(i, SymExpr::int(1), v(2));
        env.set_elem_range(arr, SymRange::new(SymExpr::int(0), SymExpr::int(9)));
        assert!(env.lookup(&Atom::Var(i)).is_some());
        let elem = Atom::Elem(arr, vec![v(0)]);
        let r = env.lookup(&elem).unwrap();
        assert_eq!(r.lo, Bound::Finite(SymExpr::int(0)));
        // Exact atom facts shadow per-array facts.
        let mut env2 = env.clone();
        env2.set_atom_range(elem.clone(), SymRange::point(SymExpr::int(5)));
        assert_eq!(
            env2.lookup(&elem).unwrap(),
            SymRange::point(SymExpr::int(5))
        );
    }
}
