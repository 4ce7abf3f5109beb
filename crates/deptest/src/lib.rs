//! Data dependence tests for loops with irregular subscripts.
//!
//! The central client of the array property analysis (§3.2.7): given a
//! loop and an array, decide whether the loop carries a dependence on
//! that array. Four layers are tried, cheapest first:
//!
//! 1. **Identity dimension** — some dimension's subscript is exactly the
//!    loop index in every access: iterations touch disjoint planes.
//! 2. **Affine / GCD-style disjointness** — the per-iteration access
//!    hull is affine in the loop index and provably shifts past itself
//!    each iteration.
//! 3. **Range test** (Blume & Eigenmann, extended per §5.1.5) — the
//!    per-iteration hull `[H_lo(i), H_hi(i)]` is computed by monotone
//!    substitution over the inner loops, and the loop is independent if
//!    `H_hi(i) < H_lo(i+1)` (or the decreasing mirror) is provable.
//! 4. **Offset–length test** (§3.2.7) — when step 3 fails, *demand
//!    generation* kicks in: index arrays in the hull bounds trigger
//!    closed-form-distance and non-negativity queries to the property
//!    analysis; verified facts enter the proof environment and step 3 is
//!    retried. The **injective test** handles `a(p(i))` subscripts via
//!    an injectivity query.

use irr_core::property::ArrayPropertyAnalysis;
use irr_core::{AnalysisCtx, DistanceSpec, Property, PropertyQuery, INDEX_VAR};
use irr_frontend::visit::ArrayAccess;
use irr_frontend::{Expr, StmtId, VarId};
use irr_symbolic::{
    expr_to_sym, extremes_over, prove_ge0, prove_gt0, Atom, Bound, RangeEnv, Section, SymExpr,
    SymRange,
};

/// Which test disproved the dependence (Table 3's "Test" column).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TestKind {
    /// A dimension is subscripted by the loop index itself.
    IdentityDim,
    /// The classical GCD test on affine subscript pairs.
    Gcd,
    /// Affine disjointness (no symbolic atoms needed).
    Affine,
    /// The symbolic range test.
    Range,
    /// The offset-length test (range test + closed-form distance
    /// properties).
    OffsetLength,
    /// The injective test for `a(p(i))`.
    Injective,
}

impl TestKind {
    /// Short tag for reports.
    pub fn tag(self) -> &'static str {
        match self {
            TestKind::IdentityDim => "IDDIM",
            TestKind::Gcd => "GCD",
            TestKind::Affine => "AFFINE",
            TestKind::Range => "RANGE",
            TestKind::OffsetLength => "OFFLEN",
            TestKind::Injective => "INJ",
        }
    }
}

/// A property the compile-time solver needed but could not prove: the
/// access pattern matched a known-parallelizable shape, and this is the
/// *one missing fact*. A run-time inspector can check it against the
/// live store and recover the parallel schedule (the hybrid strategy
/// §1 contrasts with pure compile-time analysis).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ResidualCheck {
    /// All accesses are `a(p(i))`; parallel iff `p` is injective on the
    /// loop's index range.
    Injective {
        /// The index array whose injectivity is unknown.
        array: VarId,
    },
    /// The hull matched the offset–length shape `x(ptr(i) + j)`;
    /// parallel iff `ptr(i+1) - ptr(i) >= len(i) >= 0` at run time.
    OffsetLength {
        /// The offset (pointer) array.
        ptr: VarId,
        /// The length array.
        len: VarId,
    },
}

/// Outcome of testing one array in one loop.
#[derive(Clone, Debug)]
pub struct ArrayDepResult {
    /// The array tested.
    pub array: VarId,
    /// Whether the loop provably carries **no** dependence on it.
    pub independent: bool,
    /// The test that succeeded.
    pub test: Option<TestKind>,
    /// `(index array, property tag)` pairs verified by the property
    /// analysis on the way.
    pub properties_used: Vec<(VarId, &'static str)>,
    /// When `independent` is false but an access pattern matched, the
    /// run-time checks that would each (alone) establish independence.
    /// Empty when no pattern matched (hard dependence or unanalyzable).
    pub residual: Vec<ResidualCheck>,
}

/// The dependence tester; borrows the shared property analysis engine as
/// its demand generator/checker.
pub struct DependenceTester<'a, 'c, 'p> {
    ctx: &'c AnalysisCtx<'p>,
    apa: &'a mut ArrayPropertyAnalysis<'c, 'p>,
    /// When false, no property queries are issued (the "without IAA"
    /// configuration of Fig. 16).
    pub enable_property_queries: bool,
}

impl<'a, 'c, 'p> DependenceTester<'a, 'c, 'p> {
    /// Creates a tester.
    pub fn new(
        ctx: &'c AnalysisCtx<'p>,
        apa: &'a mut ArrayPropertyAnalysis<'c, 'p>,
    ) -> DependenceTester<'a, 'c, 'p> {
        DependenceTester {
            ctx,
            apa,
            enable_property_queries: true,
        }
    }

    /// Tests every array *written* in `loop_stmt` for loop-carried
    /// dependence.
    pub fn analyze_loop(&mut self, loop_stmt: StmtId) -> Vec<ArrayDepResult> {
        let ctx = self.ctx;
        ctx.loop_table(loop_stmt)
            .written_arrays
            .iter()
            .map(|&a| self.analyze_array(loop_stmt, a))
            .collect()
    }

    /// Tests one array.
    pub fn analyze_array(&mut self, loop_stmt: StmtId, array: VarId) -> ArrayDepResult {
        let mut result = ArrayDepResult {
            array,
            independent: false,
            test: None,
            properties_used: Vec::new(),
            residual: Vec::new(),
        };
        let Some((var, lo, hi)) = self.ctx.do_bounds_sym(loop_stmt) else {
            return result; // while loops carry unknown dependences
        };
        let accesses: Vec<ArrayAccess> = self
            .ctx
            .loop_table(loop_stmt)
            .accesses_of(array)
            .copied()
            .collect();
        if accesses.is_empty() || accesses.iter().all(|a| !a.is_write) {
            result.independent = true;
            return result;
        }
        let rank = accesses[0].subscripts.len();
        if accesses.iter().any(|a| a.subscripts.len() != rank) {
            return result;
        }

        // Layer 1: a dimension subscripted by the loop index everywhere.
        for d in 0..rank {
            if accesses
                .iter()
                .all(|a| matches!(&a.subscripts[d], Expr::Var(v) if *v == var))
            {
                result.independent = true;
                result.test = Some(TestKind::IdentityDim);
                return result;
            }
        }

        // Layer 2: the classical GCD test per dimension (cheap, and it
        // disproves interleaved strides the hull-based range test
        // cannot, e.g. writes to `x(2i)` vs reads of `x(2i+5)`).
        for d in 0..rank {
            if gcd_test_dim(&accesses, d, var) {
                result.independent = true;
                result.test = Some(TestKind::Gcd);
                return result;
            }
        }

        // Layer 3 (which subsumes 2): range test per dimension.
        for d in 0..rank {
            match self.range_test_dim(loop_stmt, &accesses, d, var, &lo, &hi, &mut result) {
                Some(kind) => {
                    result.independent = true;
                    result.test = Some(kind);
                    result.residual.clear();
                    return result;
                }
                None => continue,
            }
        }

        // Layer 4b: the injective test for 1-D `a(p(i))` subscripts.
        if rank == 1 && self.enable_property_queries {
            if let Some(kind) =
                self.injective_test(loop_stmt, &accesses, var, &lo, &hi, &mut result)
            {
                result.independent = true;
                result.test = Some(kind);
                result.residual.clear();
                return result;
            }
        }
        result
    }

    /// Computes the per-iteration hull of dimension `d`'s subscripts and
    /// proves it disjoint across iterations, with property-query
    /// assistance.
    #[allow(clippy::too_many_arguments)]
    fn range_test_dim(
        &mut self,
        loop_stmt: StmtId,
        accesses: &[ArrayAccess],
        d: usize,
        var: VarId,
        lo: &SymExpr,
        hi: &SymExpr,
        result: &mut ArrayDepResult,
    ) -> Option<TestKind> {
        // The hull of all accesses' dimension-d subscripts at a fixed
        // iteration of `var`.
        let mut hull: Option<SymRange> = None;
        let mut any_atoms = false;
        let base_env = {
            let mut e = self.ctx.range_env_at(loop_stmt).clone();
            e.set_var_range(var, lo.clone(), hi.clone());
            e
        };
        for acc in accesses {
            let sub = expr_to_sym(&acc.subscripts[d])?;
            if sub.atoms().iter().any(|a| !matches!(a, Atom::Var(_))) {
                any_atoms = true;
            }
            // Eliminate inner loop variables by monotone substitution.
            let (mut smin, mut smax) = (sub.clone(), sub);
            for &inner in self.ctx.enclosing_loops(acc.stmt) {
                if inner == loop_stmt {
                    break;
                }
                let (ivar, ilo, ihi) = self.ctx.do_bounds_sym(inner)?;
                let ienv = {
                    let mut e = base_env.clone();
                    e.set_var_range(ivar, ilo.clone(), ihi.clone());
                    e
                };
                let (a, _) = extremes_over(&smin, ivar, &ilo, &ihi, &ienv)?;
                let (_, b) = extremes_over(&smax, ivar, &ilo, &ihi, &ienv)?;
                smin = a;
                smax = b;
            }
            if smin.mentions_var(var) || smax.mentions_var(var) {
                // fine: varies with the tested loop — that's the point.
            }
            // Anything else still symbolic (scalars, arrays) stays.
            let r = SymRange::new(smin, smax);
            hull = Some(match hull {
                None => r,
                Some(h) => SymRange {
                    lo: pick_lower(&h.lo, &r.lo, &base_env)?,
                    hi: pick_upper(&h.hi, &r.hi, &base_env)?,
                },
            });
        }
        let hull = hull?;
        let (Bound::Finite(h_lo), Bound::Finite(h_hi)) = (&hull.lo, &hull.hi) else {
            return None;
        };
        // Scalars assigned inside the loop (other than the index) make
        // the hull meaningless across iterations.
        let table = self.ctx.loop_table(loop_stmt);
        for &v in &table.assigned_scalars {
            if v != var && (h_lo.mentions_var(v) || h_hi.mentions_var(v)) {
                return None;
            }
        }
        // Index arrays written inside the loop disqualify property use
        // (and make even the plain hull dubious if they feed subscripts).
        let written = &table.written_arrays;
        for a in h_lo.atoms().iter().chain(h_hi.atoms().iter()) {
            if let Atom::Elem(arr, _) = a {
                if written.contains(arr) {
                    return None;
                }
            }
        }
        // Disjointness without properties first.
        let mut step_env = base_env.clone();
        step_env.set_var_range(var, lo.clone(), hi.sub(&SymExpr::int(1)));
        let next = SymExpr::var(var).add(&SymExpr::int(1));
        let increasing = prove_gt0(&h_lo.subst(var, &next).sub(h_hi), &step_env);
        let decreasing = increasing || prove_gt0(&h_lo.sub(&h_hi.subst(var, &next)), &step_env);
        if increasing || decreasing {
            return Some(if any_atoms {
                TestKind::Range
            } else {
                TestKind::Affine
            });
        }
        if !self.enable_property_queries {
            return None;
        }
        // Demand generation: closed-form distances for index arrays in
        // the hull.
        let mut env = step_env.clone();
        let mut used_any = false;
        let candidates = self.distance_candidates(h_lo, h_hi, var);
        for (x, dist) in candidates {
            // Verify the distance and its non-negativity.
            let pairs = Section::range1(lo.clone(), hi.sub(&SymExpr::int(1)));
            let q = PropertyQuery {
                array: x,
                property: Property::ClosedFormDistance {
                    distance: dist.clone(),
                },
                section: pairs,
                at_stmt: loop_stmt,
            };
            if !self.apa.check(&q) {
                // The shape fit but the fact didn't prove: leave it for
                // a run-time inspector.
                if let DistanceSpec::Array(y) = &dist {
                    let rc = ResidualCheck::OffsetLength { ptr: x, len: *y };
                    if !result.residual.contains(&rc) {
                        result.residual.push(rc);
                    }
                }
                continue;
            }
            // Non-negativity of the distance on the traversed range.
            let nonneg_ok = match &dist {
                DistanceSpec::Expr(e) => {
                    let inst = e.subst(INDEX_VAR, &SymExpr::var(var));
                    prove_ge0(&inst, &env)
                }
                DistanceSpec::Array(y) => {
                    let qb = PropertyQuery {
                        array: *y,
                        property: Property::ClosedFormBound {
                            lo: Some(SymExpr::int(0)),
                            hi: None,
                        },
                        section: Section::range1(lo.clone(), hi.clone()),
                        at_stmt: loop_stmt,
                    };
                    if self.apa.check(&qb) {
                        env.set_elem_range(
                            *y,
                            SymRange {
                                lo: Bound::Finite(SymExpr::int(0)),
                                hi: Bound::PosInf,
                            },
                        );
                        result.properties_used.push((*y, "CFB"));
                        true
                    } else {
                        let rc = ResidualCheck::OffsetLength { ptr: x, len: *y };
                        if !result.residual.contains(&rc) {
                            result.residual.push(rc);
                        }
                        false
                    }
                }
            };
            if !nonneg_ok {
                continue;
            }
            let placeholder = VarId(u32::MAX - 3);
            let dist_expr = match &dist {
                DistanceSpec::Array(y) => SymExpr::elem(*y, vec![SymExpr::var(placeholder)]),
                DistanceSpec::Expr(e) => e.subst(INDEX_VAR, &SymExpr::var(placeholder)),
            };
            env.set_distance(x, placeholder, dist_expr);
            let tag = match &dist {
                DistanceSpec::Array(_) => "CFD",
                DistanceSpec::Expr(_) => "CFV",
            };
            result.properties_used.push((x, tag));
            used_any = true;
        }
        if !used_any {
            return None;
        }
        let increasing = prove_gt0(&h_lo.subst(var, &next).sub(h_hi), &env);
        let decreasing = increasing || prove_gt0(&h_lo.sub(&h_hi.subst(var, &next)), &env);
        if increasing || decreasing {
            Some(TestKind::OffsetLength)
        } else {
            None
        }
    }

    /// Enumerates plausible `(index array, distance)` pairs from the
    /// hull bounds: for every 1-D `x(i)` atom, every other array `y(i)`
    /// in the bounds (offset/length pattern) and the generic polynomial
    /// distance suggested by the residual (the `CFV` route).
    fn distance_candidates(
        &self,
        h_lo: &SymExpr,
        h_hi: &SymExpr,
        var: VarId,
    ) -> Vec<(VarId, DistanceSpec)> {
        let mut bases: Vec<VarId> = Vec::new();
        let mut others: Vec<VarId> = Vec::new();
        for e in [h_lo, h_hi] {
            for a in e.atoms() {
                if let Atom::Elem(arr, subs) = a {
                    if subs.len() == 1 && subs[0] == SymExpr::var(var) {
                        let (c, _) = e.coeff_of_atom(a);
                        if c == 1 && !bases.contains(arr) {
                            bases.push(*arr);
                        }
                        if !others.contains(arr) {
                            others.push(*arr);
                        }
                    }
                }
            }
        }
        let mut out = Vec::new();
        for &x in &bases {
            for &y in &others {
                if y != x {
                    out.push((x, DistanceSpec::Array(y)));
                }
            }
            // Polynomial-distance candidates: the residual widths of the
            // hull relative to x(i). For the triangular pattern the
            // width h_hi - x(i) is `i`-like; offer it and its +1
            // neighbors as candidate distances.
            let xi = SymExpr::elem(x, vec![SymExpr::var(var)]);
            for base_expr in [h_hi, h_lo] {
                let width = base_expr.sub(&xi);
                if width.atoms().is_empty() || width.mentions_array(x) {
                    // constant or self-referential: still usable
                }
                // Only offer widths that are pure in `var`.
                let pure = width
                    .atoms()
                    .iter()
                    .all(|a| matches!(a, Atom::Var(v) if *v == var));
                if pure && width.mentions_var(var) {
                    for delta in [0i64, 1] {
                        let cand = width
                            .add(&SymExpr::int(delta))
                            .subst(var, &SymExpr::var(INDEX_VAR));
                        out.push((x, DistanceSpec::Expr(cand)));
                    }
                }
            }
        }
        out
    }

    /// The injective test: all subscripts are exactly `p(i)` for the
    /// same index array `p` and the loop index `i`.
    fn injective_test(
        &mut self,
        loop_stmt: StmtId,
        accesses: &[ArrayAccess],
        var: VarId,
        lo: &SymExpr,
        hi: &SymExpr,
        result: &mut ArrayDepResult,
    ) -> Option<TestKind> {
        let mut p_arr: Option<VarId> = None;
        for acc in accesses {
            match &acc.subscripts[0] {
                Expr::Element(p, subs)
                    if subs.len() == 1 && matches!(&subs[0], Expr::Var(v) if *v == var) =>
                {
                    match p_arr {
                        None => p_arr = Some(*p),
                        Some(q) if q == *p => {}
                        _ => return None,
                    }
                }
                _ => return None,
            }
        }
        let p = p_arr?;
        // p must not be written inside the loop.
        if self.ctx.loop_table(loop_stmt).written_arrays.contains(&p) {
            return None;
        }
        let q = PropertyQuery {
            array: p,
            property: Property::Injective,
            section: Section::range1(lo.clone(), hi.clone()),
            at_stmt: loop_stmt,
        };
        if self.apa.check(&q) {
            result.properties_used.push((p, "INJ"));
            Some(TestKind::Injective)
        } else {
            // The `a(p(i))` shape matched and `p` is loop-invariant: an
            // injectivity inspection of `p` at run time would clear it.
            let rc = ResidualCheck::Injective { array: p };
            if !result.residual.contains(&rc) {
                result.residual.push(rc);
            }
            None
        }
    }
}

/// The classical GCD test on one dimension: every subscript must be
/// affine purely in the tested loop's index (`a*i + c`); the loop
/// carries no dependence when, for every pair with a write, the linear
/// Diophantine equation `a*i1 + c1 = b*i2 + c2` has no solution
/// (`gcd(a,b)` does not divide `c2 - c1`), or — for equal subscripts —
/// only the loop-independent solution `i1 = i2`.
fn gcd_test_dim(accesses: &[ArrayAccess], d: usize, var: VarId) -> bool {
    // Extract (a, c) per access; bail out if any subscript is not
    // affine purely in `var`.
    let mut coeffs: Vec<(i64, i64, bool)> = Vec::with_capacity(accesses.len());
    for acc in accesses {
        let Some(sub) = expr_to_sym(&acc.subscripts[d]) else {
            return false;
        };
        if !sub.is_affine() {
            return false;
        }
        // Only the loop variable may appear.
        if !sub
            .atoms()
            .iter()
            .all(|at| matches!(at, Atom::Var(v) if *v == var))
        {
            return false;
        }
        let (a, da) = sub.coeff_of_atom(&Atom::Var(var));
        let (c, dc) = sub.constant_part();
        if da != 1 || dc != 1 {
            return false;
        }
        coeffs.push((a, c, acc.is_write));
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
    for (k, &(a, c1, w1)) in coeffs.iter().enumerate() {
        for &(b, c2, w2) in &coeffs[k..] {
            if !w1 && !w2 {
                continue;
            }
            let diff = c2 - c1;
            if a == b {
                // a*(i1 - i2) = diff: carried solutions need diff != 0
                // and a | diff (a == 0 with diff == 0 is the everywhere-
                // equal constant subscript: carried!).
                if a == 0 {
                    if diff == 0 {
                        return false; // same constant cell every iteration
                    }
                    continue; // never equal
                }
                if diff != 0 && diff % a == 0 {
                    return false; // a carried solution exists
                }
                // diff == 0: only i1 == i2 (loop-independent); diff not
                // divisible: no solution. Either way no carried dep.
                continue;
            }
            let g = gcd(a, b);
            if g == 0 {
                // both zero: constant cells c1 and c2.
                if diff == 0 {
                    return false;
                }
                continue;
            }
            if diff % g == 0 {
                return false; // solutions exist (bounds ignored: MAY dep)
            }
        }
    }
    true
}

/// The stand-alone **simple offset–length test** of §5.1.5: a cheap
/// pattern-matcher for subscripts of exactly the form
/// `ptr(i) + j - c` where `i` is the tested loop's index and `j` is an
/// immediately inner loop ranging over `[1, len(i)]` (or a sub-range of
/// it). It issues the same two demands as the extended test —
/// closed-form distance of `ptr` and non-negativity of `len` — but skips
/// the general hull construction, which is why the paper offered it
/// "when the user wanted to avoid the overhead of the extended range
/// test, though it was less general".
pub struct SimpleOffsetLengthTest<'a, 'c, 'p> {
    ctx: &'c AnalysisCtx<'p>,
    apa: &'a mut ArrayPropertyAnalysis<'c, 'p>,
}

impl<'a, 'c, 'p> SimpleOffsetLengthTest<'a, 'c, 'p> {
    /// Creates the test.
    pub fn new(
        ctx: &'c AnalysisCtx<'p>,
        apa: &'a mut ArrayPropertyAnalysis<'c, 'p>,
    ) -> SimpleOffsetLengthTest<'a, 'c, 'p> {
        SimpleOffsetLengthTest { ctx, apa }
    }

    /// Tests whether `loop_stmt` carries a dependence on `array`, with
    /// every access matching the `a(ptr(i)+j-c)` pattern.
    pub fn independent(&mut self, loop_stmt: StmtId, array: VarId) -> bool {
        let Some((var, lo, hi)) = self.ctx.do_bounds_sym(loop_stmt) else {
            return false;
        };
        let table = self.ctx.loop_table(loop_stmt);
        // All accesses must share one (ptr, len) pair.
        let mut pair: Option<(VarId, VarId)> = None;
        for acc in table.accesses_of(array) {
            if acc.subscripts.len() != 1 {
                return false;
            }
            let Some(sub) = expr_to_sym(&acc.subscripts[0]) else {
                return false;
            };
            // Find the ptr(i) atom with coefficient one.
            let mut ptr = None;
            for a in sub.atoms() {
                if let Atom::Elem(arr, subs) = a {
                    if subs.len() == 1 && subs[0] == SymExpr::var(var) {
                        let (c, d) = sub.coeff_of_atom(a);
                        if c == 1 && d == 1 {
                            ptr = Some(*arr);
                        }
                    }
                }
            }
            let Some(ptr) = ptr else { return false };
            // The rest must be `j + const` with `j` an inner loop var
            // whose bounds are [1, len(i) (+ const)].
            let rest = sub.sub(&SymExpr::elem(ptr, vec![SymExpr::var(var)]));
            let Some(j) = rest.atoms().iter().find_map(|a| match a {
                Atom::Var(v) if *v != var => Some(*v),
                _ => None,
            }) else {
                return false;
            };
            if rest.coeff_of_atom(&Atom::Var(j)) != (1, 1) {
                return false;
            }
            // j's loop must be an enclosing loop of this access, inside
            // the tested loop, with bounds [1, len(i) + const].
            let mut len = None;
            for &inner in self.ctx.enclosing_loops(acc.stmt) {
                if inner == loop_stmt {
                    break;
                }
                if let Some((jv, jlo, jhi)) = self.ctx.do_bounds_sym(inner) {
                    if jv != j {
                        continue;
                    }
                    if jlo.as_int() != Some(1) {
                        return false;
                    }
                    for a in jhi.atoms() {
                        if let Atom::Elem(arr, subs) = a {
                            if subs.len() == 1
                                && subs[0] == SymExpr::var(var)
                                && jhi.coeff_of_atom(a) == (1, 1)
                            {
                                len = Some(*arr);
                            }
                        }
                    }
                }
            }
            let Some(len) = len else { return false };
            match &pair {
                None => pair = Some((ptr, len)),
                Some((p0, l0)) if *p0 == ptr && *l0 == len => {}
                _ => return false,
            }
        }
        let Some((ptr, len)) = pair else {
            return false; // no access at all
        };
        // ptr/len must be loop-invariant.
        let written = &table.written_arrays;
        if written.contains(&ptr) || written.contains(&len) {
            return false;
        }
        // The two demands.
        let q_cfd = PropertyQuery {
            array: ptr,
            property: Property::ClosedFormDistance {
                distance: DistanceSpec::Array(len),
            },
            section: Section::range1(lo.clone(), hi.sub(&SymExpr::int(1))),
            at_stmt: loop_stmt,
        };
        if !self.apa.check(&q_cfd) {
            return false;
        }
        let q_cfb = PropertyQuery {
            array: len,
            property: Property::ClosedFormBound {
                lo: Some(SymExpr::int(0)),
                hi: None,
            },
            section: Section::range1(lo, hi),
            at_stmt: loop_stmt,
        };
        self.apa.check(&q_cfb)
    }
}

/// A bound provably below both (for hulls): prefer the provably smaller.
fn pick_lower(a: &Bound, b: &Bound, env: &RangeEnv) -> Option<Bound> {
    match (a, b) {
        (Bound::Finite(x), Bound::Finite(y)) => {
            if irr_symbolic::prove_le(x, y, env) {
                Some(a.clone())
            } else if irr_symbolic::prove_le(y, x, env) {
                Some(b.clone())
            } else {
                None
            }
        }
        _ => None,
    }
}

fn pick_upper(a: &Bound, b: &Bound, env: &RangeEnv) -> Option<Bound> {
    match (a, b) {
        (Bound::Finite(x), Bound::Finite(y)) => {
            if irr_symbolic::prove_le(x, y, env) {
                Some(b.clone())
            } else if irr_symbolic::prove_le(y, x, env) {
                Some(a.clone())
            } else {
                None
            }
        }
        _ => None,
    }
}

// Whole-program tests live in `tests/deptest.rs`.
