//! Property-based tests of the symbolic layer (deterministic, offline).
//!
//! The central soundness contract: whenever `prove_*` says a fact is
//! provable under an environment, the fact must hold for **every**
//! concrete valuation consistent with that environment. The tests
//! generate random expressions and valuations from a SplitMix64 stream
//! and check the symbolic layer against direct evaluation.

use irr_frontend::VarId;
use irr_symbolic::prove::canonicalize;
use irr_symbolic::{
    prove_eq, prove_ge0, prove_le, AggMode, Atom, OpaqueOp, RangeEnv, Section, SymExpr,
};
use std::collections::HashMap;

/// Local SplitMix64 copy (irr-symbolic sits below irr-exec in the crate
/// graph, so it cannot borrow `irr_exec::SplitMix64` without a dev-dep
/// cycle through the driver). Same constants, same stream.
struct Rng {
    state: u64,
}

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64 + 1) as i64
    }
}

/// A random expression tree over three variables.
#[derive(Clone, Debug)]
enum E {
    Const(i64),
    Var(u8),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    /// Floor division by a positive constant.
    Div(Box<E>, i64),
    /// Non-negative remainder by a positive constant.
    Mod(Box<E>, i64),
}

fn draw_expr(rng: &mut Rng, depth: u32) -> E {
    if depth == 0 || rng.below(3) == 0 {
        if rng.below(2) == 0 {
            E::Const(rng.range(-6, 6))
        } else {
            E::Var(rng.below(3) as u8)
        }
    } else {
        let d = depth - 1;
        match rng.below(5) {
            0 => E::Add(Box::new(draw_expr(rng, d)), Box::new(draw_expr(rng, d))),
            1 => E::Sub(Box::new(draw_expr(rng, d)), Box::new(draw_expr(rng, d))),
            2 => E::Mul(Box::new(draw_expr(rng, d)), Box::new(draw_expr(rng, d))),
            3 => E::Div(Box::new(draw_expr(rng, d)), rng.range(2, 5)),
            _ => E::Mod(Box::new(draw_expr(rng, d)), rng.range(2, 5)),
        }
    }
}

fn to_sym(e: &E) -> SymExpr {
    match e {
        E::Const(c) => SymExpr::int(*c),
        E::Var(v) => SymExpr::var(VarId(*v as u32)),
        E::Add(a, b) => to_sym(a).add(&to_sym(b)),
        E::Sub(a, b) => to_sym(a).sub(&to_sym(b)),
        E::Mul(a, b) => to_sym(a).mul(&to_sym(b)),
        E::Div(a, c) => to_sym(a).div(&SymExpr::int(*c)),
        E::Mod(a, c) => to_sym(a).mod_op(&SymExpr::int(*c)),
    }
}

/// Direct evaluation with the language's floor semantics.
fn eval(e: &E, vals: &[i64; 3]) -> i64 {
    match e {
        E::Const(c) => *c,
        E::Var(v) => vals[*v as usize],
        E::Add(a, b) => eval(a, vals).wrapping_add(eval(b, vals)),
        E::Sub(a, b) => eval(a, vals).wrapping_sub(eval(b, vals)),
        E::Mul(a, b) => eval(a, vals).wrapping_mul(eval(b, vals)),
        E::Div(a, c) => eval(a, vals).div_euclid(*c),
        E::Mod(a, c) => eval(a, vals).rem_euclid(*c),
    }
}

/// Evaluates a SymExpr (rational polynomial over atoms) directly; the
/// result is a rational `(num, den)` to tolerate intermediate halves.
fn eval_sym(e: &SymExpr, vals: &HashMap<VarId, i64>) -> Option<(i128, i128)> {
    let mut num: i128 = 0;
    for (m, c) in e.terms() {
        let mut term: i128 = *c as i128;
        for a in m.atoms() {
            term *= eval_atom(a, vals)? as i128;
        }
        num += term;
    }
    Some((num, e.den() as i128))
}

fn eval_atom(a: &irr_symbolic::Atom, vals: &HashMap<VarId, i64>) -> Option<i64> {
    use irr_symbolic::{Atom, OpaqueOp};
    match a {
        Atom::Var(v) => vals.get(v).copied(),
        Atom::Elem(..) => None,
        Atom::Opaque(op, args) => {
            let xs: Vec<i64> = args
                .iter()
                .map(|x| {
                    let (n, d) = eval_sym(x, vals)?;
                    if n % d != 0 {
                        return None;
                    }
                    i64::try_from(n / d).ok()
                })
                .collect::<Option<Vec<_>>>()?;
            Some(match op {
                OpaqueOp::Div => {
                    if xs[1] == 0 {
                        return None;
                    }
                    xs[0].div_euclid(xs[1])
                }
                OpaqueOp::Mod => {
                    if xs[1] == 0 {
                        return None;
                    }
                    xs[0].rem_euclid(xs[1])
                }
                OpaqueOp::Min => xs[0].min(xs[1]),
                OpaqueOp::Max => xs[0].max(xs[1]),
            })
        }
    }
}

/// Normalization is value-preserving: the polynomial form evaluates
/// to exactly the tree's value (as a rational with denominator 1
/// after full evaluation).
#[test]
fn normalization_preserves_value() {
    let mut rng = Rng::new(0x7001);
    for _ in 0..512 {
        let e = draw_expr(&mut rng, 3);
        let (v0, v1, v2) = (rng.range(-8, 8), rng.range(-8, 8), rng.range(-8, 8));
        let sym = to_sym(&e);
        let direct = eval(&e, &[v0, v1, v2]);
        let mut vals = HashMap::new();
        vals.insert(VarId(0), v0);
        vals.insert(VarId(1), v1);
        vals.insert(VarId(2), v2);
        if let Some((num, den)) = eval_sym(&sym, &vals) {
            // The polynomial may be an exact rational; the value must
            // still match the integer result exactly.
            assert_eq!(
                num,
                direct as i128 * den,
                "tree {e:?} -> {direct} but poly {sym} evaluates to {num}/{den}"
            );
        }
    }
}

/// Prover soundness: a proven `a >= 0` holds for every valuation in
/// the environment's ranges.
#[test]
fn prove_ge0_is_sound() {
    let mut rng = Rng::new(0x7002);
    for _ in 0..512 {
        let e = draw_expr(&mut rng, 3);
        let (lo0, w0) = (rng.range(-4, 1), rng.range(0, 5));
        let (lo1, w1) = (rng.range(-4, 1), rng.range(0, 5));
        let (s0, s1) = (rng.range(0, 4), rng.range(0, 4));
        let v2 = rng.range(-8, 8);
        let sym = to_sym(&e);
        let mut env = RangeEnv::new();
        env.set_var_range(VarId(0), SymExpr::int(lo0), SymExpr::int(lo0 + w0));
        env.set_var_range(VarId(1), SymExpr::int(lo1), SymExpr::int(lo1 + w1));
        // v2 unconstrained in the env.
        if prove_ge0(&sym, &env) {
            // Sample the box (including endpoints).
            let x0 = (lo0 + s0 % (w0 + 1)).min(lo0 + w0);
            let x1 = (lo1 + s1 % (w1 + 1)).min(lo1 + w1);
            let direct = eval(&e, &[x0, x1, v2]);
            assert!(
                direct >= 0,
                "proved {} >= 0 under v0 in [{},{}], v1 in [{},{}] but eval({:?}, [{x0},{x1},{v2}]) = {}",
                sym,
                lo0,
                lo0 + w0,
                lo1,
                lo1 + w1,
                e,
                direct
            );
        }
    }
}

/// prove_eq is sound.
#[test]
fn prove_eq_is_sound() {
    let mut rng = Rng::new(0x7003);
    for _ in 0..512 {
        let a = draw_expr(&mut rng, 3);
        let b = draw_expr(&mut rng, 3);
        let (v0, v1, v2) = (rng.range(-8, 8), rng.range(-8, 8), rng.range(-8, 8));
        let (sa, sb) = (to_sym(&a), to_sym(&b));
        let env = RangeEnv::new();
        if prove_eq(&sa, &sb, &env) {
            assert_eq!(
                eval(&a, &[v0, v1, v2]),
                eval(&b, &[v0, v1, v2]),
                "proved {sa} == {sb}"
            );
        }
    }
}

/// Substitution commutes with evaluation.
#[test]
fn subst_commutes_with_eval() {
    let mut rng = Rng::new(0x7004);
    for _ in 0..512 {
        let e = draw_expr(&mut rng, 3);
        let r = rng.range(-5, 5);
        let (v1, v2) = (rng.range(-8, 8), rng.range(-8, 8));
        let sym = to_sym(&e).subst(VarId(0), &SymExpr::int(r));
        let direct = eval(&e, &[r, v1, v2]);
        let mut vals = HashMap::new();
        vals.insert(VarId(1), v1);
        vals.insert(VarId(2), v2);
        if let Some((num, den)) = eval_sym(&sym, &vals) {
            assert_eq!(num, direct as i128 * den);
        }
    }
}

// ----- section algebra soundness over concrete integer ranges -----------

fn concrete(lo: i64, hi: i64) -> Section {
    Section::range1(SymExpr::int(lo), SymExpr::int(hi))
}

fn members(s: &Section, universe: std::ops::RangeInclusive<i64>) -> Vec<i64> {
    let env = RangeEnv::new();
    universe
        .filter(|k| {
            let pt = Section::point(vec![SymExpr::int(*k)]);
            !s.provably_disjoint(&pt, &env)
        })
        .collect()
}

/// MAY union contains both operands; MUST intersection is contained
/// in both; subtract_under over-approximates the true difference;
/// subtract_may never keeps a killed element.
#[test]
fn section_ops_respect_directions() {
    let mut rng = Rng::new(0x7005);
    for _ in 0..256 {
        let (a_lo, a_w) = (rng.range(0, 11), rng.range(0, 7));
        let (b_lo, b_w) = (rng.range(0, 11), rng.range(0, 7));
        let env = RangeEnv::new();
        let a = concrete(a_lo, a_lo + a_w);
        let b = concrete(b_lo, b_lo + b_w);
        let uni = 0i64..=24;
        let ma: Vec<i64> = members(&a, uni.clone());
        let mb: Vec<i64> = members(&b, uni.clone());

        let u = a.union_may(&b, &env);
        let mu = members(&u, uni.clone());
        for k in ma.iter().chain(mb.iter()) {
            assert!(mu.contains(k), "union_may lost {k}");
        }

        let i = a.intersect_must(&b, &env);
        let mi = members(&i, uni.clone());
        for k in &mi {
            assert!(
                ma.contains(k) && mb.contains(k),
                "intersect_must invented {k}"
            );
        }

        let d = a.subtract_under(&b, &env);
        let md = members(&d, uni.clone());
        for k in &ma {
            if !mb.contains(k) {
                assert!(md.contains(k), "subtract_under lost live element {k}");
            }
        }

        let dm = a.subtract_may(&b, &env);
        let mdm = members(&dm, uni.clone());
        for k in &mdm {
            assert!(!mb.contains(k), "subtract_may kept killed element {k}");
            assert!(ma.contains(k), "subtract_may invented {k}");
        }

        let um = a.union_must(&b, &env);
        let mum = members(&um, uni.clone());
        for k in &mum {
            assert!(ma.contains(k) || mb.contains(k), "union_must invented {k}");
        }
    }
}

/// Aggregation directions: MAY over-approximates and MUST
/// under-approximates the true union over iterations of a section
/// `[i + c : i + c + w]`.
#[test]
fn aggregation_respects_directions() {
    let mut rng = Rng::new(0x7006);
    for _ in 0..256 {
        let c = rng.range(-3, 3);
        let w = rng.range(0, 2);
        let lo = rng.range(1, 3);
        let span = rng.range(0, 4);
        let stride = rng.range(1, 2);
        let env = RangeEnv::new();
        let var = VarId(9);
        let i = SymExpr::var(var).scale(stride);
        let sec = Section::range1(i.add(&SymExpr::int(c)), i.add(&SymExpr::int(c + w)));
        let hi = lo + span;
        // True union.
        let mut truth: Vec<i64> = Vec::new();
        for it in lo..=hi {
            for k in (stride * it + c)..=(stride * it + c + w) {
                if !truth.contains(&k) {
                    truth.push(k);
                }
            }
        }
        let uni = -20i64..=40;
        let may = sec.aggregate(
            var,
            &SymExpr::int(lo),
            &SymExpr::int(hi),
            &env,
            AggMode::May,
        );
        let m_may = members(&may, uni.clone());
        for k in &truth {
            assert!(m_may.contains(k), "May aggregation lost {k}");
        }
        let must = sec.aggregate(
            var,
            &SymExpr::int(lo),
            &SymExpr::int(hi),
            &env,
            AggMode::Must,
        );
        let m_must = members(&must, uni.clone());
        for k in &m_must {
            assert!(
                truth.contains(k),
                "Must aggregation invented {k} (truth {truth:?}, stride {stride})"
            );
        }
    }
}

/// `extremes_over` brackets the true extremes of a monotone
/// expression.
#[test]
fn extremes_bracket_truth() {
    let mut rng = Rng::new(0x7007);
    for _ in 0..256 {
        let a = rng.range(-4, 4);
        let b = rng.range(-6, 6);
        let lo = rng.range(-3, 2);
        let span = rng.range(0, 5);
        let var = VarId(3);
        let e = SymExpr::var(var).scale(a).add(&SymExpr::int(b));
        let env = RangeEnv::new();
        let hi = lo + span;
        if let Some((emin, emax)) =
            irr_symbolic::extremes_over(&e, var, &SymExpr::int(lo), &SymExpr::int(hi), &env)
        {
            let (emin, emax) = (emin.as_int().unwrap(), emax.as_int().unwrap());
            for it in lo..=hi {
                let v = a * it + b;
                assert!(emin <= v && v <= emax);
            }
            // And they are attained.
            assert!(prove_le(&SymExpr::int(emin), &SymExpr::int(emax), &env));
        }
    }
}

// ----- the arithmetic's shortcuts and the printed form --------------------

/// `sub` and `scale` build their results directly; they must agree with
/// the compositions they replace.
#[test]
fn sub_and_scale_agree_with_their_compositions() {
    let mut rng = Rng::new(0x7008);
    for _ in 0..512 {
        let a = to_sym(&draw_expr(&mut rng, 3));
        let b = to_sym(&draw_expr(&mut rng, 3));
        let k = rng.range(-7, 7);
        assert_eq!(a.sub(&b), a.add(&b.neg()), "{a} - {b}");
        assert_eq!(a.scale(k), a.mul(&SymExpr::int(k)), "{k} * ({a})");
        // Halves make the denominators differ.
        let (ha, hb) = (a.div_exact(2), b.div_exact(3));
        assert_eq!(ha.sub(&hb), ha.add(&hb.neg()), "{ha} - {hb}");
        assert_eq!(hb.scale(k), hb.mul(&SymExpr::int(k)), "{k} * ({hb})");
    }
}

/// The values of the two index arrays of a closed-form-distance fact,
/// `pptr(k + 1) - pptr(k) == iblen(k)`, over subscripts `-40..=40`.
struct Arrays {
    pptr: VarId,
    iblen: VarId,
    pptr_vals: Vec<i64>,
    iblen_vals: Vec<i64>,
}

const LOWEST: i64 = -40;

impl Arrays {
    fn draw(rng: &mut Rng) -> Arrays {
        let iblen_vals: Vec<i64> = (0..81).map(|_| rng.range(0, 6)).collect();
        let mut pptr_vals = vec![rng.range(-5, 5)];
        for d in &iblen_vals[..80] {
            pptr_vals.push(pptr_vals.last().unwrap() + d);
        }
        Arrays {
            pptr: VarId(5),
            iblen: VarId(6),
            pptr_vals,
            iblen_vals,
        }
    }

    fn env_with_distance(&self) -> RangeEnv {
        let k = VarId(7);
        let mut env = RangeEnv::new();
        env.set_distance(
            self.pptr,
            k,
            SymExpr::elem(self.iblen, vec![SymExpr::var(k)]),
        );
        env
    }

    /// `e` at `vals`, with the elements read from the arrays; `None`
    /// past the arrays or on a non-integral intermediate.
    fn eval(&self, e: &SymExpr, vals: &HashMap<VarId, i64>) -> Option<(i128, i128)> {
        let mut num: i128 = 0;
        for (m, c) in e.terms() {
            let mut term = *c as i128;
            for a in m.atoms() {
                term *= self.eval_atom(a, vals)? as i128;
            }
            num += term;
        }
        Some((num, e.den() as i128))
    }

    fn eval_atom(&self, a: &Atom, vals: &HashMap<VarId, i64>) -> Option<i64> {
        let int = |x: &SymExpr| {
            let (n, d) = self.eval(x, vals)?;
            (n % d == 0).then(|| i64::try_from(n / d).ok()).flatten()
        };
        match a {
            Atom::Var(v) => vals.get(v).copied(),
            Atom::Elem(arr, subs) => {
                let values = if *arr == self.pptr {
                    &self.pptr_vals
                } else {
                    &self.iblen_vals
                };
                let at = usize::try_from(int(&subs[0])? - LOWEST).ok()?;
                values.get(at).copied()
            }
            Atom::Opaque(op, args) => {
                let (x, y) = (int(&args[0])?, int(&args[1])?);
                Some(match op {
                    OpaqueOp::Div if y != 0 => x.div_euclid(y),
                    OpaqueOp::Mod if y != 0 => x.rem_euclid(y),
                    OpaqueOp::Min => x.min(y),
                    OpaqueOp::Max => x.max(y),
                    _ => return None,
                })
            }
        }
    }

    /// A random expression over `v0..v2`, `pptr(v + c)` and
    /// `iblen(v + c)`.
    fn draw_expr(&self, rng: &mut Rng) -> SymExpr {
        let mut e = to_sym(&draw_expr(rng, 3));
        for _ in 0..rng.range(0, 3) {
            let sub = SymExpr::var(VarId(rng.below(3) as u32)).add(&SymExpr::int(rng.range(-2, 2)));
            let arr = if rng.below(3) == 0 {
                self.iblen
            } else {
                self.pptr
            };
            let elem = SymExpr::elem(arr, vec![sub]);
            e = e.add(&elem.scale(rng.range(-3, 3)));
        }
        e
    }
}

/// `canonicalize` applies only the rewrites the prover documents: it
/// preserves the value under every valuation consistent with the
/// environment, cancels `a div c - b div c` to `(a - b) / c` when `c`
/// divides `a - b`, cancels `pptr(s + 1) - pptr(s)` to the recorded
/// distance, and leaves alone an expression neither rewrite applies to.
#[test]
fn canonicalize_agrees_with_the_documented_rewrites() {
    let mut rng = Rng::new(0x7009);
    for _ in 0..512 {
        let arrays = Arrays::draw(&mut rng);
        let with_distance = arrays.env_with_distance();
        let e = arrays.draw_expr(&mut rng);
        let vals: HashMap<VarId, i64> = (0..3).map(|v| (VarId(v), rng.range(-8, 8))).collect();
        for env in [RangeEnv::new(), with_distance.clone()] {
            let c = canonicalize(&e, &env);
            if let (Some(before), Some(after)) = (arrays.eval(&e, &vals), arrays.eval(&c, &vals)) {
                assert_eq!(
                    before.0 * after.1,
                    after.0 * before.1,
                    "canonicalize({e}) = {c} changed the value at {vals:?}"
                );
            }
        }
        let divs = e
            .atoms()
            .into_iter()
            .filter(|a| matches!(a, Atom::Opaque(OpaqueOp::Div, _)))
            .count();
        if divs < 2 {
            assert_eq!(
                canonicalize(&e, &RangeEnv::new()),
                e,
                "no rewrite applies to {e}"
            );
        }

        // Divisibility: (x + c*q) div c - x div c == q.
        let x = to_sym(&draw_expr(&mut rng, 2));
        let q = to_sym(&draw_expr(&mut rng, 1));
        let c = rng.range(2, 5);
        let c_sym = SymExpr::int(c);
        let y = x.add(&q.scale(c));
        let (y_div, x_div) = (y.div(&c_sym), x.div(&c_sym));
        let opaque =
            |e: &SymExpr| matches!(e.as_single_atom(), Some(Atom::Opaque(OpaqueOp::Div, _)));
        let plain = |e: &SymExpr| !e.atoms().iter().any(|a| matches!(a, Atom::Opaque(..)));
        // One side folded and the other did not: no pair to rewrite.
        if plain(&q) && opaque(&y_div) == opaque(&x_div) {
            let diff = y_div.sub(&x_div);
            assert_eq!(canonicalize(&diff, &RangeEnv::new()), q, "{diff}");
        }

        // Distance: pptr(s + 1) - pptr(s) == iblen(s).
        let s = to_sym(&draw_expr(&mut rng, 1));
        let next = SymExpr::elem(arrays.pptr, vec![s.add(&SymExpr::int(1))]);
        let cur = SymExpr::elem(arrays.pptr, vec![s.clone()]);
        let gap = next.sub(&cur);
        let expect = SymExpr::elem(arrays.iblen, vec![s.clone()]);
        assert_eq!(canonicalize(&gap, &with_distance), expect, "{gap}");
        assert_eq!(canonicalize(&gap, &RangeEnv::new()), gap);
    }
}

/// The canonical form and both printed forms of a fixed expression that
/// mixes every atom kind over a denominator of 4. Sharing the terms must
/// not move a character of either.
#[test]
fn printed_forms_are_pinned() {
    let (i, n, pptr) = (SymExpr::var(VarId(0)), SymExpr::var(VarId(1)), VarId(2));
    let elem = SymExpr::elem(pptr, vec![i.add(&SymExpr::int(1))]);
    let div = i.mul(&n).add(&i).div(&SymExpr::int(2));
    let min = i.min_op(&n.sub(&SymExpr::int(1)));
    let e = elem
        .scale(3)
        .add(&div)
        .sub(&min)
        .add(&SymExpr::int(5))
        .div_exact(4);
    assert_eq!(
        format!("{e}"),
        "5 + 3*v2[1 + v0] + div(v0 + v0*v1, 2) - min(-1 + v1, v0) / 4"
    );
    assert_eq!(
        format!("{e:?}"),
        "SymExpr { terms: [(Monomial { atoms: [] }, 5), \
         (Monomial { atoms: [Elem(VarId(2), [SymExpr { terms: [(Monomial { atoms: [] }, 1), \
         (Monomial { atoms: [Var(VarId(0))] }, 1)], den: 1 }])] }, 3), \
         (Monomial { atoms: [Opaque(Div, [SymExpr { terms: [(Monomial { atoms: [Var(VarId(0))] }, 1), \
         (Monomial { atoms: [Var(VarId(0)), Var(VarId(1))] }, 1)], den: 1 }, \
         SymExpr { terms: [(Monomial { atoms: [] }, 2)], den: 1 }])] }, 1), \
         (Monomial { atoms: [Opaque(Min, [SymExpr { terms: [(Monomial { atoms: [] }, -1), \
         (Monomial { atoms: [Var(VarId(1))] }, 1)], den: 1 }, \
         SymExpr { terms: [(Monomial { atoms: [Var(VarId(0))] }, 1)], den: 1 }])] }, -1)], den: 4 }"
    );
}
