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

use irr_frontend::VarId;
use std::fmt;

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
    Elem(VarId, Vec<SymExpr>),
    /// An opaque operation over normalized arguments.
    Opaque(OpaqueOp, Vec<SymExpr>),
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
        match self {
            Atom::Var(v) if *v == var => replacement.clone(),
            Atom::Var(_) => self.to_expr(),
            Atom::Elem(a, subs) => {
                let subs: Vec<SymExpr> = subs.iter().map(|s| s.subst(var, replacement)).collect();
                Atom::Elem(*a, subs).to_expr()
            }
            Atom::Opaque(op, args) => {
                let args: Vec<SymExpr> = args.iter().map(|s| s.subst(var, replacement)).collect();
                // Re-normalize: the substitution may make a division exact.
                match op {
                    OpaqueOp::Div if args.len() == 2 => args[0].div(&args[1]),
                    OpaqueOp::Mod if args.len() == 2 => args[0].mod_op(&args[1]),
                    _ => Atom::Opaque(op.clone(), args).to_expr(),
                }
            }
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
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Monomial {
    atoms: Vec<Atom>,
}

impl Monomial {
    /// The constant monomial `1`.
    pub fn unit() -> Monomial {
        Monomial::default()
    }

    /// A monomial consisting of one atom.
    pub fn atom(a: Atom) -> Monomial {
        Monomial { atoms: vec![a] }
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

    /// Product of two monomials.
    pub fn mul(&self, other: &Monomial) -> Monomial {
        let mut atoms = self.atoms.clone();
        atoms.extend(other.atoms.iter().cloned());
        atoms.sort();
        Monomial { atoms }
    }
}

/// A normalized symbolic expression; see the module docs.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SymExpr {
    /// Sorted by monomial; no zero coefficients; no duplicate monomials.
    terms: Vec<(Monomial, i64)>,
    /// Positive common denominator, coprime with the gcd of coefficients.
    den: i64,
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl SymExpr {
    // ----- constructors ---------------------------------------------------

    /// The integer constant `v`.
    pub fn int(v: i64) -> SymExpr {
        if v == 0 {
            SymExpr {
                terms: Vec::new(),
                den: 1,
            }
        } else {
            SymExpr {
                terms: vec![(Monomial::unit(), v)],
                den: 1,
            }
        }
    }

    /// The scalar variable `v`.
    pub fn var(v: VarId) -> SymExpr {
        Atom::Var(v).to_expr()
    }

    /// The array element `arr(subs...)`.
    pub fn elem(arr: VarId, subs: Vec<SymExpr>) -> SymExpr {
        Atom::Elem(arr, subs).to_expr()
    }

    /// The expression consisting of a single atom.
    pub fn from_atom(a: Atom) -> SymExpr {
        SymExpr {
            terms: vec![(Monomial::atom(a), 1)],
            den: 1,
        }
    }

    fn normalize(mut terms: Vec<(Monomial, i64)>, den: i64) -> SymExpr {
        debug_assert!(den != 0, "denominator cannot be zero");
        terms.sort_by(|a, b| a.0.cmp(&b.0));
        let mut merged: Vec<(Monomial, i64)> = Vec::with_capacity(terms.len());
        for (m, c) in terms {
            match merged.last_mut() {
                Some((lm, lc)) if *lm == m => *lc += c,
                _ => merged.push((m, c)),
            }
        }
        merged.retain(|(_, c)| *c != 0);
        let mut den = den;
        if den < 0 {
            den = -den;
            for t in &mut merged {
                t.1 = -t.1;
            }
        }
        let mut g = den;
        for (_, c) in &merged {
            g = gcd(g, *c);
            if g == 1 {
                break;
            }
        }
        if g > 1 {
            den /= g;
            for t in &mut merged {
                t.1 /= g;
            }
        }
        if merged.is_empty() {
            den = 1;
        }
        SymExpr { terms: merged, den }
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
        for (m, c) in &self.terms {
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
        for (m, _) in &self.terms {
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
        for (m, c) in &self.terms {
            if m.degree() == 1 && &m.atoms()[0] == atom {
                return (*c, self.den);
            }
        }
        (0, 1)
    }

    // ----- arithmetic -----------------------------------------------------

    /// `self + other`.
    pub fn add(&self, other: &SymExpr) -> SymExpr {
        let den = self
            .den
            .checked_mul(other.den / gcd(self.den, other.den))
            .expect("denominator overflow");
        let mut terms = Vec::with_capacity(self.terms.len() + other.terms.len());
        let f1 = den / self.den;
        let f2 = den / other.den;
        for (m, c) in &self.terms {
            terms.push((m.clone(), c.checked_mul(f1).expect("coefficient overflow")));
        }
        for (m, c) in &other.terms {
            terms.push((m.clone(), c.checked_mul(f2).expect("coefficient overflow")));
        }
        SymExpr::normalize(terms, den)
    }

    /// `self - other`.
    pub fn sub(&self, other: &SymExpr) -> SymExpr {
        self.add(&other.neg())
    }

    /// `-self`.
    pub fn neg(&self) -> SymExpr {
        SymExpr {
            terms: self.terms.iter().map(|(m, c)| (m.clone(), -c)).collect(),
            den: self.den,
        }
    }

    /// `self * other` (full polynomial product).
    pub fn mul(&self, other: &SymExpr) -> SymExpr {
        let mut terms = Vec::with_capacity(self.terms.len() * other.terms.len());
        for (m1, c1) in &self.terms {
            for (m2, c2) in &other.terms {
                terms.push((
                    m1.mul(m2),
                    c1.checked_mul(*c2).expect("coefficient overflow"),
                ));
            }
        }
        let den = self
            .den
            .checked_mul(other.den)
            .expect("denominator overflow");
        SymExpr::normalize(terms, den)
    }

    /// `self * k` for an integer constant.
    pub fn scale(&self, k: i64) -> SymExpr {
        self.mul(&SymExpr::int(k))
    }

    /// Exact rational division by a nonzero constant.
    ///
    /// # Panics
    ///
    /// Panics if `c == 0`.
    pub fn div_exact(&self, c: i64) -> SymExpr {
        assert!(c != 0, "division by zero");
        SymExpr::normalize(
            self.terms.clone(),
            self.den.checked_mul(c).expect("denominator overflow"),
        )
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
            if c != 0 && self.den == 1 && self.terms.iter().all(|(_, k)| k % c == 0) {
                // Every coefficient is divisible, so the runtime division
                // is exact on every value and rational division is sound.
                return self.div_exact(c);
            }
        }
        if self == other && !self.is_zero() {
            return SymExpr::int(1);
        }
        Atom::Opaque(OpaqueOp::Div, vec![self.clone(), other.clone()]).to_expr()
    }

    /// Fortran `mod(self, other)`. Folds constants; otherwise opaque.
    pub fn mod_op(&self, other: &SymExpr) -> SymExpr {
        if let (Some(a), Some(b)) = (self.as_int(), other.as_int()) {
            if b != 0 {
                // Non-negative remainder, matching the interpreter.
                return SymExpr::int(a.wrapping_rem_euclid(b));
            }
        }
        Atom::Opaque(OpaqueOp::Mod, vec![self.clone(), other.clone()]).to_expr()
    }

    /// `min(self, other)`; folds constants and equal arguments.
    pub fn min_op(&self, other: &SymExpr) -> SymExpr {
        if self == other {
            return self.clone();
        }
        if let (Some(a), Some(b)) = (self.as_int(), other.as_int()) {
            return SymExpr::int(a.min(b));
        }
        let mut args = vec![self.clone(), other.clone()];
        args.sort();
        Atom::Opaque(OpaqueOp::Min, args).to_expr()
    }

    /// `max(self, other)`; folds constants and equal arguments.
    pub fn max_op(&self, other: &SymExpr) -> SymExpr {
        if self == other {
            return self.clone();
        }
        if let (Some(a), Some(b)) = (self.as_int(), other.as_int()) {
            return SymExpr::int(a.max(b));
        }
        let mut args = vec![self.clone(), other.clone()];
        args.sort();
        Atom::Opaque(OpaqueOp::Max, args).to_expr()
    }

    /// Substitutes `var := replacement` everywhere (including inside
    /// element subscripts and opaque arguments).
    pub fn subst(&self, var: VarId, replacement: &SymExpr) -> SymExpr {
        if !self.mentions_var(var) {
            return self.clone();
        }
        let mut acc = SymExpr::int(0);
        for (m, c) in &self.terms {
            let mut term = SymExpr::int(*c);
            for a in m.atoms() {
                term = term.mul(&a.subst(var, replacement));
            }
            acc = acc.add(&term);
        }
        acc.div_exact(self.den)
    }

    /// Substitutes every occurrence of the exact atom `from` with
    /// `to` at the top level of monomials (used for difference
    /// canonicalization of `Div` atoms).
    pub fn subst_atom(&self, from: &Atom, to: &SymExpr) -> SymExpr {
        let mut acc = SymExpr::int(0);
        for (m, c) in &self.terms {
            let mut term = SymExpr::int(*c);
            for a in m.atoms() {
                if a == from {
                    term = term.mul(to);
                } else {
                    term = term.mul(&a.to_expr());
                }
            }
            acc = acc.add(&term);
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
        for (m, c) in &self.terms {
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
    fn subst_atom_rewrites_div_atoms() {
        let i = v(0);
        let d = i.mul(&i).add(&i).div(&SymExpr::int(2)); // opaque? (i^2+i)/2: coeffs 1,1 not divisible by 2 -> opaque
        let atom = d.as_single_atom().expect("opaque div atom").clone();
        let rewritten = d.add(&i).subst_atom(&atom, &SymExpr::int(10));
        assert_eq!(rewritten, i.add(&SymExpr::int(10)));
    }
}
