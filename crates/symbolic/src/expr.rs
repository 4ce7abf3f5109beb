//! Normalized symbolic expressions: rational polynomials over atoms.
//!
//! A [`SymExpr`] is `(Σ coeff_k · monomial_k) / den` with integer
//! coefficients, a positive common denominator, monomials sorted and
//! deduplicated, and the gcd of all coefficients and the denominator
//! reduced to 1. Two expressions are semantically equal iff they are
//! structurally equal (for the fragment without opaque operations).
//!
//! Truncating integer division and `mod` are *not* expanded: they become
//! [`Atom::Opaque`] atoms whose arguments are themselves normalized
//! expressions, so structurally equal opaque computations still compare
//! equal. The prover in [`crate::prove`] knows sound bounding rules for
//! them.
//!
//! Values are immutable and shared. An expression's terms, a monomial's
//! atoms and an atom's subscripts or arguments are reference-counted
//! slices, so cloning an expression — or a `Bound`, a `SymRange`, a
//! `Section` or a `RangeEnv` entry holding one — is one reference count
//! and copies nothing. The constant 0 and the unit monomial are shared
//! per thread. Sharing changes no value: equality, order, hash and both
//! printed forms are those of the slices' contents, so the canonical form
//! is the same as with owned vectors. No symbolic value crosses a thread.
//!
//! The arithmetic has checked forms (`checked_add`, `checked_sub`,
//! `checked_mul`, `checked_neg`) that return `None` when a coefficient or
//! the denominator leaves `i64`; the plain forms panic there.

use irr_frontend::VarId;
use std::cmp::Ordering;
use std::fmt;
use std::rc::Rc;

/// Opaque (non-polynomial) operations kept as atoms.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum OpaqueOp {
    /// Truncating integer division (Fortran `/` on integers).
    Div,
    /// Fortran `mod`.
    Mod,
    Min,
    Max,
}

/// An indivisible symbolic quantity.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Atom {
    /// A scalar variable.
    Var(VarId),
    /// An array element, e.g. `pptr(i)`.
    Elem(VarId, Rc<[SymExpr]>),
    /// An opaque operation over normalized arguments.
    Opaque(OpaqueOp, Rc<[SymExpr]>),
}

impl Atom {
    /// Wraps the atom as an expression.
    pub fn to_expr(&self) -> SymExpr {
        SymExpr::from_atom(self.clone())
    }

    /// Substitutes `var := replacement` inside the atom (recursively in
    /// subscripts/arguments). Returns the resulting *expression* because
    /// a `Var` atom may be replaced by an arbitrary expression.
    pub fn subst(&self, var: VarId, replacement: &SymExpr) -> SymExpr {
        if !self.mentions_var(var) {
            return self.to_expr();
        }
        let args: Rc<[SymExpr]> = match self {
            Atom::Var(_) => return replacement.clone(),
            Atom::Elem(_, args) | Atom::Opaque(_, args) => {
                args.iter().map(|s| s.subst(var, replacement)).collect()
            }
        };
        match self {
            Atom::Elem(a, _) => SymExpr::from_atom(Atom::Elem(*a, args)),
            // Re-normalize: the substitution may make a division exact.
            Atom::Opaque(OpaqueOp::Div, _) if args.len() == 2 => args[0].div(&args[1]),
            Atom::Opaque(OpaqueOp::Mod, _) if args.len() == 2 => args[0].mod_op(&args[1]),
            Atom::Opaque(op, _) => SymExpr::from_atom(Atom::Opaque(op.clone(), args)),
            Atom::Var(_) => unreachable!("returned above"),
        }
    }

    /// Whether `var` occurs anywhere in the atom.
    pub fn mentions_var(&self, var: VarId) -> bool {
        match self {
            Atom::Var(v) => *v == var,
            Atom::Elem(_, subs) => subs.iter().any(|s| s.mentions_var(var)),
            Atom::Opaque(_, args) => args.iter().any(|s| s.mentions_var(var)),
        }
    }

    /// Whether array `arr` occurs as the base of an element reference
    /// anywhere in the atom.
    pub fn mentions_array(&self, arr: VarId) -> bool {
        match self {
            Atom::Var(_) => false,
            Atom::Elem(a, subs) => *a == arr || subs.iter().any(|s| s.mentions_array(arr)),
            Atom::Opaque(_, args) => args.iter().any(|s| s.mentions_array(arr)),
        }
    }
}

/// A product of atoms (with multiplicity), kept sorted. The empty
/// monomial is the constant `1`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Monomial {
    atoms: Rc<[Atom]>,
}

thread_local! {
    /// The unit monomial and the constant 0, shared so that neither
    /// allocates.
    static UNIT: Monomial = Monomial { atoms: Rc::from([]) };
    static ZERO: SymExpr = SymExpr { terms: Rc::from([]), den: 1 };
}

impl Monomial {
    /// The constant monomial `1`.
    pub fn unit() -> Monomial {
        UNIT.with(Monomial::clone)
    }

    /// A monomial consisting of one atom.
    pub fn atom(a: Atom) -> Monomial {
        Monomial {
            atoms: Rc::from([a]),
        }
    }

    /// Whether this is the constant monomial.
    pub fn is_unit(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Total degree (number of atom factors).
    pub fn degree(&self) -> usize {
        self.atoms.len()
    }

    /// The atom factors.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Product of two monomials; a unit operand returns the other one.
    pub fn mul(&self, other: &Monomial) -> Monomial {
        if self.is_unit() {
            return other.clone();
        }
        if other.is_unit() {
            return self.clone();
        }
        let mut atoms: Rc<[Atom]> = self
            .atoms
            .iter()
            .chain(other.atoms.iter())
            .cloned()
            .collect();
        Rc::get_mut(&mut atoms).expect("just collected").sort();
        Monomial { atoms }
    }
}

/// A normalized symbolic expression; see the module docs.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SymExpr {
    /// Sorted by monomial; no zero coefficients; no duplicate monomials.
    terms: Rc<[(Monomial, i64)]>,
    /// Positive common denominator, coprime with the gcd of coefficients.
    den: i64,
}

/// The gcd of `|a|` and `|b|`; it fits an `i64` unless both are
/// `i64::MIN` or 0, when it is `2^63` and reads `i64::MIN`.
fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a as i64
}

impl SymExpr {
    // ----- constructors ---------------------------------------------------

    /// The integer constant `v`.
    pub fn int(v: i64) -> SymExpr {
        if v == 0 {
            ZERO.with(SymExpr::clone)
        } else {
            SymExpr {
                terms: Rc::from([(Monomial::unit(), v)]),
                den: 1,
            }
        }
    }

    /// The scalar variable `v`.
    pub fn var(v: VarId) -> SymExpr {
        SymExpr::from_atom(Atom::Var(v))
    }

    /// The array element `arr(subs...)`.
    pub fn elem(arr: VarId, subs: Vec<SymExpr>) -> SymExpr {
        SymExpr::from_atom(Atom::Elem(arr, subs.into()))
    }

    /// The expression consisting of a single atom.
    pub fn from_atom(a: Atom) -> SymExpr {
        SymExpr {
            terms: Rc::from([(Monomial::atom(a), 1)]),
            den: 1,
        }
    }

    /// `Σ terms / den` from arbitrary terms: sorts them, merges like
    /// terms in place, and reduces.
    fn normalize(mut terms: Vec<(Monomial, i64)>, den: i64) -> Option<SymExpr> {
        terms.sort_by(|a, b| a.0.cmp(&b.0));
        let mut overflow = false;
        terms.dedup_by(|next, kept| {
            if next.0 != kept.0 {
                return false;
            }
            match kept.1.checked_add(next.1) {
                Some(c) => kept.1 = c,
                None => overflow = true,
            }
            true
        });
        if overflow {
            return None;
        }
        terms.retain(|(_, c)| *c != 0);
        SymExpr::reduce(terms, den)
    }

    /// `Σ terms / den` from terms already sorted, distinct and nonzero:
    /// makes the denominator positive and divides out the common gcd.
    fn reduce(mut terms: Vec<(Monomial, i64)>, mut den: i64) -> Option<SymExpr> {
        debug_assert!(den != 0, "denominator cannot be zero");
        if terms.is_empty() {
            return Some(SymExpr::int(0));
        }
        if den < 0 {
            den = den.checked_neg()?;
            for t in &mut terms {
                t.1 = t.1.checked_neg()?;
            }
        }
        let mut g = den;
        for (_, c) in &terms {
            g = gcd(g, *c);
            if g == 1 {
                break;
            }
        }
        if g > 1 {
            den /= g;
            for t in &mut terms {
                t.1 /= g;
            }
        }
        Some(SymExpr {
            terms: terms.into(),
            den,
        })
    }

    /// The same monomials over `den`, every coefficient mapped through
    /// `f`; `None` if `f` fails on one. `f` must keep nonzero
    /// coefficients nonzero and leave the result reduced.
    fn map_coeffs(&self, den: i64, f: impl Fn(i64) -> Option<i64>) -> Option<SymExpr> {
        if self.terms.iter().any(|(_, c)| f(*c).is_none()) {
            return None;
        }
        let terms = self
            .terms
            .iter()
            .map(|(m, c)| (m.clone(), f(*c).expect("checked above")))
            .collect();
        Some(SymExpr { terms, den })
    }

    // ----- queries --------------------------------------------------------

    /// Whether the expression is the constant 0.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// If the expression is an integer constant, returns it. An exact
    /// rational like `1/2` returns `None`.
    pub fn as_int(&self) -> Option<i64> {
        if self.terms.is_empty() {
            return Some(0);
        }
        if self.den == 1 && self.terms.len() == 1 && self.terms[0].0.is_unit() {
            return Some(self.terms[0].1);
        }
        None
    }

    /// If the expression is a constant rational, returns `(num, den)`.
    pub fn as_rational(&self) -> Option<(i64, i64)> {
        if self.terms.is_empty() {
            return Some((0, 1));
        }
        if self.terms.len() == 1 && self.terms[0].0.is_unit() {
            return Some((self.terms[0].1, self.den));
        }
        None
    }

    /// If the expression is a single atom with coefficient 1, returns it.
    pub fn as_single_atom(&self) -> Option<&Atom> {
        if self.den == 1 && self.terms.len() == 1 && self.terms[0].1 == 1 {
            let m = &self.terms[0].0;
            if m.degree() == 1 {
                return Some(&m.atoms()[0]);
            }
        }
        None
    }

    /// If the expression is a bare scalar variable, returns it.
    pub fn as_var(&self) -> Option<VarId> {
        match self.as_single_atom() {
            Some(Atom::Var(v)) => Some(*v),
            _ => None,
        }
    }

    /// The terms `(monomial, coefficient)`; the denominator applies to
    /// all of them.
    pub fn terms(&self) -> &[(Monomial, i64)] {
        &self.terms
    }

    /// The common denominator (always positive).
    pub fn den(&self) -> i64 {
        self.den
    }

    /// The constant term as a rational `(num, den)`.
    pub fn constant_part(&self) -> (i64, i64) {
        for (m, c) in self.terms.iter() {
            if m.is_unit() {
                return (*c, self.den);
            }
        }
        (0, 1)
    }

    /// Whether every monomial is of degree ≤ 1 (affine in its atoms).
    pub fn is_affine(&self) -> bool {
        self.terms.iter().all(|(m, _)| m.degree() <= 1)
    }

    /// Whether `var` occurs anywhere (including inside atoms).
    pub fn mentions_var(&self, var: VarId) -> bool {
        self.terms
            .iter()
            .any(|(m, _)| m.atoms().iter().any(|a| a.mentions_var(var)))
    }

    /// Whether array `arr` occurs as an element base anywhere.
    pub fn mentions_array(&self, arr: VarId) -> bool {
        self.terms
            .iter()
            .any(|(m, _)| m.atoms().iter().any(|a| a.mentions_array(arr)))
    }

    /// All distinct atoms appearing at the top level of monomials.
    pub fn atoms(&self) -> Vec<&Atom> {
        let mut out: Vec<&Atom> = Vec::new();
        for (m, _) in self.terms.iter() {
            for a in m.atoms() {
                if !out.contains(&a) {
                    out.push(a);
                }
            }
        }
        out
    }

    /// The coefficient of the degree-1 monomial for `atom` as a rational
    /// `(num, den)`; 0 if absent.
    pub fn coeff_of_atom(&self, atom: &Atom) -> (i64, i64) {
        for (m, c) in self.terms.iter() {
            if m.degree() == 1 && &m.atoms()[0] == atom {
                return (*c, self.den);
            }
        }
        (0, 1)
    }

    // ----- arithmetic -----------------------------------------------------

    /// `self + other`.
    ///
    /// # Panics
    ///
    /// Panics on coefficient overflow; see [`SymExpr::checked_add`].
    pub fn add(&self, other: &SymExpr) -> SymExpr {
        self.checked_add(other).expect("coefficient overflow")
    }

    /// `self + other`, or `None` on coefficient overflow.
    pub fn checked_add(&self, other: &SymExpr) -> Option<SymExpr> {
        self.combine(other, 1)
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics on coefficient overflow; see [`SymExpr::checked_sub`].
    pub fn sub(&self, other: &SymExpr) -> SymExpr {
        self.checked_sub(other).expect("coefficient overflow")
    }

    /// `self - other`, or `None` on coefficient overflow.
    pub fn checked_sub(&self, other: &SymExpr) -> Option<SymExpr> {
        self.combine(other, -1)
    }

    /// `self + sign * other` for `sign` ±1: one merge of the two sorted
    /// term lists over their common denominator.
    fn combine(&self, other: &SymExpr, sign: i64) -> Option<SymExpr> {
        if other.is_zero() {
            return Some(self.clone());
        }
        if self.is_zero() {
            return other.checked_scale(sign);
        }
        let den = self.den.checked_mul(other.den / gcd(self.den, other.den))?;
        let (f1, f2) = (den / self.den, sign * (den / other.den));
        let (a, b) = (&self.terms[..], &other.terms[..]);
        let mut terms = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => {
                    terms.push((a[i].0.clone(), a[i].1.checked_mul(f1)?));
                    i += 1;
                }
                Ordering::Greater => {
                    terms.push((b[j].0.clone(), b[j].1.checked_mul(f2)?));
                    j += 1;
                }
                Ordering::Equal => {
                    let c = a[i]
                        .1
                        .checked_mul(f1)?
                        .checked_add(b[j].1.checked_mul(f2)?)?;
                    if c != 0 {
                        terms.push((a[i].0.clone(), c));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        for (m, c) in &a[i..] {
            terms.push((m.clone(), c.checked_mul(f1)?));
        }
        for (m, c) in &b[j..] {
            terms.push((m.clone(), c.checked_mul(f2)?));
        }
        SymExpr::reduce(terms, den)
    }

    /// `-self`.
    ///
    /// # Panics
    ///
    /// Panics on coefficient overflow; see [`SymExpr::checked_neg`].
    pub fn neg(&self) -> SymExpr {
        self.checked_neg().expect("coefficient overflow")
    }

    /// `-self`, or `None` if a coefficient is `i64::MIN`.
    pub fn checked_neg(&self) -> Option<SymExpr> {
        self.checked_scale(-1)
    }

    /// `self * other` (full polynomial product).
    ///
    /// # Panics
    ///
    /// Panics on coefficient overflow; see [`SymExpr::checked_mul`].
    pub fn mul(&self, other: &SymExpr) -> SymExpr {
        self.checked_mul(other).expect("coefficient overflow")
    }

    /// `self * other`, or `None` on coefficient overflow.
    pub fn checked_mul(&self, other: &SymExpr) -> Option<SymExpr> {
        if let Some(k) = other.as_int() {
            return self.checked_scale(k);
        }
        if let Some(k) = self.as_int() {
            return other.checked_scale(k);
        }
        let den = self.den.checked_mul(other.den)?;
        let mut terms = Vec::with_capacity(self.terms.len() * other.terms.len());
        for (m1, c1) in self.terms.iter() {
            for (m2, c2) in other.terms.iter() {
                terms.push((m1.mul(m2), c1.checked_mul(*c2)?));
            }
        }
        SymExpr::normalize(terms, den)
    }

    /// `self * k` for an integer constant.
    ///
    /// # Panics
    ///
    /// Panics on coefficient overflow.
    pub fn scale(&self, k: i64) -> SymExpr {
        self.checked_scale(k).expect("coefficient overflow")
    }

    fn checked_scale(&self, k: i64) -> Option<SymExpr> {
        match k {
            1 => Some(self.clone()),
            0 => Some(SymExpr::int(0)),
            _ if self.is_zero() => Some(self.clone()),
            _ => {
                // The coefficients' gcd is coprime with `den`, so only
                // gcd(den, k) cancels.
                let g = gcd(self.den, k);
                let f = k / g;
                self.map_coeffs(self.den / g, |c| c.checked_mul(f))
            }
        }
    }

    /// Exact rational division by a nonzero constant.
    ///
    /// # Panics
    ///
    /// Panics if `c == 0`, or on denominator overflow.
    pub fn div_exact(&self, c: i64) -> SymExpr {
        assert!(c != 0, "division by zero");
        self.checked_div_exact(c).expect("denominator overflow")
    }

    fn checked_div_exact(&self, c: i64) -> Option<SymExpr> {
        if c == 1 || self.is_zero() {
            return Some(self.clone());
        }
        // The coefficients' gcd is coprime with `den`, so only their gcd
        // with `c` cancels; a negative `c` moves its sign into them. At
        // `c == i64::MIN` the gcd may read `i64::MIN` (2^63), and so
        // does its negation, which is then exact.
        let g = self.terms.iter().fold(c, |g, (_, k)| gcd(g, *k));
        let s = if c < 0 { g.wrapping_neg() } else { g };
        let den = self.den.checked_mul(c.checked_div(s)?)?;
        self.map_coeffs(den, |k| k.checked_div(s))
    }

    /// Truncating integer division `self / other` as the program computes
    /// it. Folds constants, divides exactly when every coefficient is
    /// divisible, and otherwise produces an opaque `Div` atom (the prover
    /// knows the floor sandwich for it).
    pub fn div(&self, other: &SymExpr) -> SymExpr {
        if let (Some(a), Some(b)) = (self.as_int(), other.as_int()) {
            if b != 0 {
                // The language defines integer division as floor division.
                return SymExpr::int(a.wrapping_div_euclid(b));
            }
        }
        if let Some(c) = other.as_int() {
            if c != 0
                && self.den == 1
                && self.terms.iter().all(|(_, k)| k.checked_rem(c) == Some(0))
            {
                // Every coefficient is divisible, so the runtime division
                // is exact on every value and rational division is sound.
                return self.div_exact(c);
            }
        }
        if self == other && !self.is_zero() {
            return SymExpr::int(1);
        }
        SymExpr::from_atom(Atom::Opaque(
            OpaqueOp::Div,
            Rc::from([self.clone(), other.clone()]),
        ))
    }

    /// Fortran `mod(self, other)`. Folds constants; otherwise opaque.
    pub fn mod_op(&self, other: &SymExpr) -> SymExpr {
        if let (Some(a), Some(b)) = (self.as_int(), other.as_int()) {
            if b != 0 {
                // Non-negative remainder, matching the interpreter.
                return SymExpr::int(a.wrapping_rem_euclid(b));
            }
        }
        SymExpr::from_atom(Atom::Opaque(
            OpaqueOp::Mod,
            Rc::from([self.clone(), other.clone()]),
        ))
    }

    /// `min(self, other)`; folds constants and equal arguments.
    pub fn min_op(&self, other: &SymExpr) -> SymExpr {
        self.min_max(other, OpaqueOp::Min, i64::min)
    }

    /// `max(self, other)`; folds constants and equal arguments.
    pub fn max_op(&self, other: &SymExpr) -> SymExpr {
        self.min_max(other, OpaqueOp::Max, i64::max)
    }

    fn min_max(&self, other: &SymExpr, op: OpaqueOp, fold: fn(i64, i64) -> i64) -> SymExpr {
        if self == other {
            return self.clone();
        }
        if let (Some(a), Some(b)) = (self.as_int(), other.as_int()) {
            return SymExpr::int(fold(a, b));
        }
        let mut args = [self.clone(), other.clone()];
        args.sort();
        SymExpr::from_atom(Atom::Opaque(op, Rc::from(args)))
    }

    /// Substitutes `var := replacement` everywhere (including inside
    /// element subscripts and opaque arguments).
    pub fn subst(&self, var: VarId, replacement: &SymExpr) -> SymExpr {
        if !self.mentions_var(var) {
            return self.clone();
        }
        self.rewrite_atoms(|a| a.mentions_var(var), |a| a.subst(var, replacement))
    }

    /// Substitutes every occurrence of the exact atom `from` with
    /// `to` at the top level of monomials (used for difference
    /// canonicalization of `Div` atoms).
    pub fn subst_atom(&self, from: &Atom, to: &SymExpr) -> SymExpr {
        self.rewrite_atoms(|a| a == from, |_| to.clone())
    }

    /// Replaces every top-level atom `a` with `hit(a)` by `with(a)` and
    /// re-normalizes; monomials with no such atom are kept as they are.
    fn rewrite_atoms(
        &self,
        hit: impl Fn(&Atom) -> bool,
        with: impl Fn(&Atom) -> SymExpr,
    ) -> SymExpr {
        let mut kept = Vec::new();
        let mut acc = SymExpr::int(0);
        for (m, c) in self.terms.iter() {
            if !m.atoms().iter().any(&hit) {
                kept.push((m.clone(), *c));
                continue;
            }
            let mut term = SymExpr::int(*c);
            for a in m.atoms() {
                term = term.mul(&if hit(a) { with(a) } else { a.to_expr() });
            }
            acc = acc.add(&term);
        }
        if !kept.is_empty() {
            // Sorted, distinct and nonzero, over 1: already reduced.
            let kept = SymExpr {
                terms: kept.into(),
                den: 1,
            };
            acc = acc.add(&kept);
        }
        acc.div_exact(self.den)
    }
}

impl fmt::Display for SymExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        let mut first = true;
        for (m, c) in self.terms.iter() {
            if first {
                if *c < 0 {
                    write!(f, "-")?;
                }
                first = false;
            } else if *c < 0 {
                write!(f, " - ")?;
            } else {
                write!(f, " + ")?;
            }
            let ac = c.abs();
            if m.is_unit() {
                write!(f, "{ac}")?;
            } else {
                if ac != 1 {
                    write!(f, "{ac}*")?;
                }
                let strs: Vec<String> = m.atoms().iter().map(|a| format!("{a}")).collect();
                write!(f, "{}", strs.join("*"))?;
            }
        }
        if self.den != 1 {
            write!(f, " / {}", self.den)?;
        }
        Ok(())
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Var(v) => write!(f, "{v}"),
            Atom::Elem(a, subs) => {
                let strs: Vec<String> = subs.iter().map(|s| format!("{s}")).collect();
                write!(f, "{a}[{}]", strs.join(","))
            }
            Atom::Opaque(op, args) => {
                let name = match op {
                    OpaqueOp::Div => "div",
                    OpaqueOp::Mod => "mod",
                    OpaqueOp::Min => "min",
                    OpaqueOp::Max => "max",
                };
                let strs: Vec<String> = args.iter().map(|s| format!("{s}")).collect();
                write!(f, "{name}({})", strs.join(", "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u32) -> SymExpr {
        SymExpr::var(VarId(n))
    }

    #[test]
    fn constants_fold() {
        assert_eq!(SymExpr::int(2).add(&SymExpr::int(3)).as_int(), Some(5));
        assert_eq!(SymExpr::int(2).mul(&SymExpr::int(3)).as_int(), Some(6));
        assert_eq!(SymExpr::int(7).div(&SymExpr::int(2)).as_int(), Some(3));
        assert_eq!(SymExpr::int(7).mod_op(&SymExpr::int(3)).as_int(), Some(1));
        assert!(SymExpr::int(0).is_zero());
    }

    #[test]
    fn like_terms_combine() {
        let i = v(0);
        let e = i.add(&i).add(&i); // 3i
        assert_eq!(e, i.scale(3));
        assert!(e.sub(&i.scale(3)).is_zero());
    }

    #[test]
    fn polynomial_identity_triangular_numbers() {
        // i*(i+1)/2 == i*(i-1)/2 + i  — the TRFD identity.
        let i = v(0);
        let a = i.mul(&i.add(&SymExpr::int(1))).div_exact(2);
        let b = i.mul(&i.sub(&SymExpr::int(1))).div_exact(2).add(&i);
        assert_eq!(a, b);
    }

    #[test]
    fn rational_normalization() {
        let i = v(0);
        // (2i + 4) / 2 == i + 2 via exact division.
        let e = i.scale(2).add(&SymExpr::int(4)).div(&SymExpr::int(2));
        assert_eq!(e, i.add(&SymExpr::int(2)));
        // (2i + 1) / 2 stays opaque (truncating).
        let o = i.scale(2).add(&SymExpr::int(1)).div(&SymExpr::int(2));
        assert!(o.as_single_atom().is_some());
    }

    #[test]
    fn division_by_self_is_one() {
        let i = v(0);
        let e = i.add(&SymExpr::int(5));
        assert_eq!(e.div(&e).as_int(), Some(1));
    }

    #[test]
    fn subst_replaces_everywhere() {
        let i = VarId(0);
        let n = v(1);
        // (i^2 + i) [i := n+1] == n^2 + 3n + 2
        let e = v(0).mul(&v(0)).add(&v(0));
        let r = e.subst(i, &n.add(&SymExpr::int(1)));
        let expect = n.mul(&n).add(&n.scale(3)).add(&SymExpr::int(2));
        assert_eq!(r, expect);
    }

    #[test]
    fn subst_inside_element_subscripts() {
        let i = VarId(0);
        let arr = VarId(5);
        let e = SymExpr::elem(arr, vec![v(0).add(&SymExpr::int(1))]);
        let r = e.subst(i, &SymExpr::int(4));
        assert_eq!(r, SymExpr::elem(arr, vec![SymExpr::int(5)]));
    }

    #[test]
    fn subst_renormalizes_division() {
        // div(2i, 2) is opaque until i := 3 makes it constant 3.
        let i = VarId(0);
        let e = v(0).scale(2).add(&SymExpr::int(1)).div(&SymExpr::int(2));
        let r = e.subst(i, &SymExpr::int(3));
        assert_eq!(r.as_int(), Some(3));
    }

    #[test]
    fn min_max_canonicalize_argument_order() {
        let a = v(0);
        let b = v(1);
        assert_eq!(a.min_op(&b), b.min_op(&a));
        assert_eq!(a.max_op(&b), b.max_op(&a));
        assert_eq!(a.min_op(&a), a);
    }

    #[test]
    fn affine_detection() {
        assert!(v(0).add(&v(1).scale(3)).is_affine());
        assert!(!v(0).mul(&v(0)).is_affine());
    }

    #[test]
    fn coeff_of_atom_reads_linear_coefficients() {
        let e = v(0).scale(3).add(&v(1)).add(&SymExpr::int(7));
        assert_eq!(e.coeff_of_atom(&Atom::Var(VarId(0))), (3, 1));
        assert_eq!(e.coeff_of_atom(&Atom::Var(VarId(1))), (1, 1));
        assert_eq!(e.coeff_of_atom(&Atom::Var(VarId(9))), (0, 1));
        assert_eq!(e.constant_part(), (7, 1));
    }

    #[test]
    fn display_is_readable() {
        let e = v(0).scale(2).sub(&SymExpr::int(3));
        let s = format!("{e}");
        // Terms print in monomial order (constant first): "-3 + 2*v0".
        assert!(s.contains("2*"), "got {s}");
        assert!(s.starts_with('-'), "got {s}");
    }

    #[test]
    fn mentions_array_sees_nested() {
        let pptr = VarId(3);
        let e = SymExpr::elem(pptr, vec![v(0)]).add(&v(1));
        assert!(e.mentions_array(pptr));
        assert!(!e.mentions_array(VarId(9)));
    }

    #[test]
    fn extreme_coefficients_are_checked() {
        let (i, min, max) = (v(0), SymExpr::int(i64::MIN), SymExpr::int(i64::MAX));
        assert_eq!(min.checked_neg(), None);
        assert_eq!(max.checked_add(&SymExpr::int(1)), None);
        assert_eq!(min.checked_sub(&SymExpr::int(1)), None);
        assert_eq!(i.scale(i64::MAX).checked_add(&i.scale(2)), None);
        assert_eq!(i.scale(1 << 62).checked_mul(&SymExpr::int(2)), None);
        assert_eq!(i.checked_mul(&i.scale(1 << 62)).map(|e| e.den()), Some(1));
        // Exact division by i64::MIN: 2^63 is no denominator, but it
        // cancels against coefficients of i64::MIN.
        assert_eq!(i.checked_div_exact(i64::MIN), None);
        assert_eq!(i.scale(i64::MIN).div_exact(i64::MIN), i);
        assert_eq!(i.scale(i64::MIN).div(&min), i);
        // i64::MIN is not divisible by -1 in i64: the division stays opaque.
        let d = i.scale(i64::MIN).div(&SymExpr::int(-1));
        assert!(matches!(
            d.as_single_atom(),
            Some(Atom::Opaque(OpaqueOp::Div, _))
        ));
        assert_eq!(i.scale(-4).div_exact(-6), i.scale(2).div_exact(3));
    }

    #[test]
    fn subst_atom_rewrites_div_atoms() {
        let i = v(0);
        let d = i.mul(&i).add(&i).div(&SymExpr::int(2)); // opaque? (i^2+i)/2: coeffs 1,1 not divisible by 2 -> opaque
        let atom = d.as_single_atom().expect("opaque div atom").clone();
        let rewritten = d.add(&i).subst_atom(&atom, &SymExpr::int(10));
        assert_eq!(rewritten, i.add(&SymExpr::int(10)));
    }
}
