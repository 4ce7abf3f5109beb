//! Property checkers: pattern matching at definition sites (§3.2.8, §4).
//!
//! Given a property and an assignment statement, the checker decides
//! which array elements are *generated* (now provably have the property)
//! and which are *killed* (no longer provably have it). `Gen` is a MUST
//! under-approximation and `Kill` a MAY over-approximation, as required
//! by the data-flow equations of §3.1.
//!
//! As in the paper, whole-loop patterns are recognized in addition to
//! single statements: the running-sum and recurrence patterns for
//! closed-form distance, identity loops, and §4's index-gathering loops
//! for injectivity / monotonicity / closed-form bounds.

use crate::ctx::AnalysisCtx;
use crate::gather::index_gathering_info;
use crate::property::{DistanceSpec, Property, INDEX_VAR};
use irr_frontend::{LValue, StmtId, StmtKind, VarId};
use irr_graph::HcgNodeKind;
use irr_symbolic::{expr_to_sym, prove_le, RangeEnv, Section, SymExpr};

/// Pattern-matching checker for one `(array, property)` demand.
#[derive(Clone, Debug)]
pub struct PropertyChecker {
    /// The index array whose property is being verified.
    pub array: VarId,
    /// The property being verified.
    pub property: Property,
}

impl PropertyChecker {
    /// Creates a checker.
    pub fn new(array: VarId, property: Property) -> PropertyChecker {
        PropertyChecker { array, property }
    }

    /// `(Kill, Gen)` of a simple (non-loop, non-call) statement.
    pub fn summarize_stmt(&self, ctx: &AnalysisCtx<'_>, stmt: StmtId) -> (Section, Section) {
        let program = ctx.program;
        match &program.stmt(stmt).kind {
            StmtKind::Assign { lhs, rhs } => match lhs {
                LValue::Scalar(v) => {
                    if self.property.mentions_var(*v) {
                        // A scalar used to express the property changed:
                        // nothing is verifiable any more.
                        (Section::Universal, Section::Empty)
                    } else {
                        (Section::Empty, Section::Empty)
                    }
                }
                LValue::Element(a, subs) => {
                    if *a == self.array {
                        let sub = if subs.len() == 1 {
                            expr_to_sym(&subs[0])
                        } else {
                            None
                        };
                        let Some(sub) = sub else {
                            return (Section::Universal, Section::Empty);
                        };
                        self.summarize_own_write(ctx, stmt, &sub, rhs)
                    } else if self.property.mentions_array(*a) {
                        // E.g. a write to the length array of a
                        // closed-form distance: all bets are off (§3.2.8
                        // step 3).
                        (Section::Universal, Section::Empty)
                    } else {
                        (Section::Empty, Section::Empty)
                    }
                }
            },
            // Reads have no effect; calls and loops are handled by the
            // solver, not here.
            _ => (Section::Empty, Section::Empty),
        }
    }

    /// `(Kill, Gen)` of `array(sub) = rhs`.
    fn summarize_own_write(
        &self,
        ctx: &AnalysisCtx<'_>,
        stmt: StmtId,
        sub: &SymExpr,
        rhs: &irr_frontend::Expr,
    ) -> (Section, Section) {
        let env = ctx.range_env_at(stmt);
        match &self.property {
            Property::ClosedFormValue { value } => {
                let expected = value.subst(INDEX_VAR, sub);
                match expr_to_sym(rhs) {
                    Some(r) if r == expected => (Section::Empty, Section::point(vec![sub.clone()])),
                    _ => (Section::point(vec![sub.clone()]), Section::Empty),
                }
            }
            Property::ClosedFormBound { lo, hi } => {
                let Some(r) = expr_to_sym(rhs) else {
                    return (Section::point(vec![sub.clone()]), Section::Empty);
                };
                let lo_ok = lo.as_ref().is_none_or(|l| prove_le(l, &r, env));
                let hi_ok = hi.as_ref().is_none_or(|h| prove_le(&r, h, env));
                if lo_ok && hi_ok {
                    (Section::Empty, Section::point(vec![sub.clone()]))
                } else {
                    (Section::point(vec![sub.clone()]), Section::Empty)
                }
            }
            Property::ClosedFormDistance { distance } => {
                // Writing x(s) disturbs pairs s-1 and s. The recurrence
                // form x(s) = x(s-1) + d(s-1) generates pair s-1.
                let one = SymExpr::int(1);
                let kill = Section::range1(sub.sub(&one), sub.clone());
                let expected = SymExpr::elem(self.array, vec![sub.sub(&one)])
                    .add(&distance.at(&sub.sub(&one)));
                match expr_to_sym(rhs) {
                    Some(r) if r == expected => {
                        let gen = Section::point(vec![sub.sub(&one)]);
                        // Pair s is still killed; pair s-1 is generated.
                        (Section::point(vec![sub.clone()]), gen)
                    }
                    Some(r) => {
                        // Functional write: x(v) = f(v) for a simple
                        // subscript v and array-free f. The pair v-1 is
                        // generated when f(v) - f(v-1) == distance(v-1)
                        // — this is how a closed-form *value* like
                        // i*(i-1)/2 yields its closed-form distance.
                        if let Some(v) = sub.as_var() {
                            // `f` must depend on nothing but the
                            // subscript variable itself — any other
                            // scalar or array could change between the
                            // writes of x(v-1) and x(v).
                            let pure = r.atoms().iter().all(|a| match a {
                                irr_symbolic::Atom::Var(w) => *w == v,
                                irr_symbolic::Atom::Elem(..) => false,
                                irr_symbolic::Atom::Opaque(_, args) => args.iter().all(|x| {
                                    x.atoms()
                                        .iter()
                                        .all(|b| matches!(b, irr_symbolic::Atom::Var(w) if *w == v))
                                }),
                            });
                            if pure {
                                let prev = r.subst(v, &sub.sub(&one));
                                let want = distance.at(&sub.sub(&one));
                                if irr_symbolic::prove_eq(&r.sub(&prev), &want, env) {
                                    return (
                                        Section::point(vec![sub.clone()]),
                                        Section::point(vec![sub.sub(&one)]),
                                    );
                                }
                            }
                        }
                        (kill, Section::Empty)
                    }
                    _ => (kill, Section::Empty),
                }
            }
            Property::Injective | Property::MonotoneNonDecreasing => {
                // A lone write can break the set-global property
                // anywhere.
                (Section::Universal, Section::Empty)
            }
        }
    }

    /// Whole-loop pattern recognition. Returns `Some((Kill, Gen))` when
    /// the loop as a whole matches a known generating pattern; `None`
    /// falls back to generic aggregation.
    pub fn summarize_loop(
        &self,
        ctx: &AnalysisCtx<'_>,
        loop_stmt: StmtId,
    ) -> Option<(Section, Section)> {
        let program = ctx.program;
        let StmtKind::Do { body, .. } = &program.stmt(loop_stmt).kind else {
            return None;
        };
        let (var, lo, hi) = ctx.do_bounds_sym(loop_stmt)?;
        let env = ctx.range_env_at(loop_stmt);
        match &self.property {
            Property::ClosedFormDistance { distance } => {
                self.cfd_loop_patterns(ctx, body, var, &lo, &hi, distance, env)
            }
            Property::Injective | Property::MonotoneNonDecreasing => {
                // Identity loop: do i = lo, hi { x(i) = i }.
                if let Some((kill, gen)) = self.identity_loop(ctx, body, var, &lo, &hi) {
                    return Some((kill, gen));
                }
                self.gather_loop(ctx, loop_stmt)
            }
            Property::ClosedFormBound { lo: blo, hi: bhi } => {
                // An index-gathering loop bounds its values by the loop
                // bounds (§4).
                let (kill, gen) = self.gather_loop(ctx, loop_stmt)?;
                let info = index_gathering_info(ctx, loop_stmt)
                    .into_iter()
                    .find(|g| g.array == self.array)?;
                let lo_ok = blo
                    .as_ref()
                    .is_none_or(|b| prove_le(b, &info.value_lo, env));
                let hi_ok = bhi
                    .as_ref()
                    .is_none_or(|b| prove_le(&info.value_hi, b, env));
                if lo_ok && hi_ok {
                    Some((kill, gen))
                } else {
                    None
                }
            }
            Property::ClosedFormValue { .. } => None,
        }
    }

    /// `do i = lo, hi { x(i) = i }` generates injectivity, monotonicity,
    /// and the identity closed form on `[lo:hi]`.
    fn identity_loop(
        &self,
        ctx: &AnalysisCtx<'_>,
        body: &[StmtId],
        var: VarId,
        lo: &SymExpr,
        hi: &SymExpr,
    ) -> Option<(Section, Section)> {
        if body.len() != 1 {
            return None;
        }
        let (lhs, rhs) = ctx.assign_parts(body[0])?;
        let LValue::Element(a, subs) = lhs else {
            return None;
        };
        if *a != self.array || subs.len() != 1 {
            return None;
        }
        let sub = expr_to_sym(&subs[0])?;
        let r = expr_to_sym(rhs)?;
        if sub == SymExpr::var(var) && r == SymExpr::var(var) {
            let sec = Section::range1(lo.clone(), hi.clone());
            Some((sec.clone(), sec))
        } else {
            None
        }
    }

    /// §4: an index-gathering loop generates injectivity, monotonicity,
    /// and closed-form bounds on the gathered section `[c+1 : q]`, where
    /// `c` is the counter's value on loop entry (required to be a
    /// constant assignment immediately dominating the loop).
    fn gather_loop(&self, ctx: &AnalysisCtx<'_>, loop_stmt: StmtId) -> Option<(Section, Section)> {
        let info = index_gathering_info(ctx, loop_stmt)
            .into_iter()
            .find(|g| g.array == self.array)?;
        // Find the counter's initialization: the unique predecessor of
        // the loop node must be `q = c`.
        let loop_node = ctx.hcg().node_of_stmt(loop_stmt)?;
        let preds = ctx.hcg().preds(loop_node);
        if preds.len() != 1 {
            return None;
        }
        let HcgNodeKind::Simple(init_stmt) = ctx.hcg().kind(preds[0]) else {
            return None;
        };
        let (lhs, rhs) = ctx.assign_parts(init_stmt)?;
        let LValue::Scalar(v) = lhs else { return None };
        if *v != info.counter {
            return None;
        }
        let c = expr_to_sym(rhs)?;
        if c.mentions_var(info.counter) {
            return None;
        }
        // After the loop the gathered section is [c+1 : q] in terms of
        // the counter's value at loop exit.
        let gen = Section::range1(c.add(&SymExpr::int(1)), SymExpr::var(info.counter));
        (Section::Empty, gen).into()
    }

    /// The three closed-form-distance loop patterns of §3.2.8 / Fig. 3(c).
    #[allow(clippy::too_many_arguments)]
    fn cfd_loop_patterns(
        &self,
        ctx: &AnalysisCtx<'_>,
        body: &[StmtId],
        var: VarId,
        lo: &SymExpr,
        hi: &SymExpr,
        distance: &DistanceSpec,
        env: &RangeEnv,
    ) -> Option<(Section, Section)> {
        let one = SymExpr::int(1);
        let i = SymExpr::var(var);
        // The loop must execute at least once for a MUST Gen.
        if !prove_le(lo, hi, env) {
            return None;
        }
        if body.len() == 1 {
            let (lhs, rhs) = ctx.assign_parts(body[0])?;
            let LValue::Element(a, subs) = lhs else {
                return None;
            };
            if *a != self.array || subs.len() != 1 {
                return None;
            }
            let sub = expr_to_sym(&subs[0])?;
            let r = expr_to_sym(rhs)?;
            // Pattern (c): x(i+1) = x(i) + d(i) — generates pairs
            // [lo : hi], kills pairs [lo : hi+1].
            if sub == i.add(&one) {
                let expected = SymExpr::elem(self.array, vec![i.clone()]).add(&distance.at(&i));
                if r == expected {
                    return Some((
                        Section::range1(lo.clone(), hi.add(&one)),
                        Section::range1(lo.clone(), hi.clone()),
                    ));
                }
            }
            // Pattern (b): x(i) = x(i-1) + d(i-1) — generates pairs
            // [lo-1 : hi-1], kills pairs [lo-1 : hi].
            if sub == i {
                let expected =
                    SymExpr::elem(self.array, vec![i.sub(&one)]).add(&distance.at(&i.sub(&one)));
                if r == expected {
                    return Some((
                        Section::range1(lo.sub(&one), hi.clone()),
                        Section::range1(lo.sub(&one), hi.sub(&one)),
                    ));
                }
            }
            return None;
        }
        // Pattern (a): running sum { x(i) = t ; t = t + d(i) } — then
        // x(i+1) - x(i) = d(i): generates pairs [lo : hi-1], kills
        // [lo-1 : hi].
        if body.len() == 2 {
            let (lhs1, rhs1) = ctx.assign_parts(body[0])?;
            let (lhs2, rhs2) = ctx.assign_parts(body[1])?;
            let LValue::Element(a, subs) = lhs1 else {
                return None;
            };
            let LValue::Scalar(t) = lhs2 else { return None };
            if *a != self.array || subs.len() != 1 {
                return None;
            }
            let sub = expr_to_sym(&subs[0])?;
            let r1 = expr_to_sym(rhs1)?;
            let r2 = expr_to_sym(rhs2)?;
            if sub == i && r1 == SymExpr::var(*t) && r2 == SymExpr::var(*t).add(&distance.at(&i)) {
                return Some((
                    Section::range1(lo.sub(&one), hi.clone()),
                    Section::range1(lo.clone(), hi.sub(&one)),
                ));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_frontend::parse_program;
    use irr_frontend::Program;

    fn nth_assign(p: &Program, k: usize) -> StmtId {
        p.stmts_in(&p.procedure(p.main()).body)
            .into_iter()
            .filter(|s| matches!(p.stmt(*s).kind, StmtKind::Assign { .. }))
            .nth(k)
            .unwrap()
    }

    fn nth_loop(p: &Program, k: usize) -> StmtId {
        p.stmts_in(&p.procedure(p.main()).body)
            .into_iter()
            .filter(|s| p.stmt(*s).kind.is_loop())
            .nth(k)
            .unwrap()
    }

    #[test]
    fn fig8_closed_form_value_gen_and_kill() {
        // Fig. 8: st1 `a(n) = n*(n-1)/2` generates [n:n]; st2
        // `a(i) = i*(i-1)/2` (inside no loop, i arbitrary) generates
        // [i:i]; an unrelated write kills pointwise.
        let p = parse_program(
            "program t
             integer a(100), n, i
             a(n) = n*(n-1)/2
             a(i) = i*(i-1)/2
             a(n) = 7
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let a = p.symbols.lookup("a").unwrap();
        let n = p.symbols.lookup("n").unwrap();
        let value = SymExpr::var(INDEX_VAR)
            .mul(&SymExpr::var(INDEX_VAR).sub(&SymExpr::int(1)))
            .div(&SymExpr::int(2));
        let chk = PropertyChecker::new(a, Property::ClosedFormValue { value });
        let (k1, g1) = chk.summarize_stmt(&ctx, nth_assign(&p, 0));
        assert_eq!(k1, Section::Empty);
        assert_eq!(g1, Section::point(vec![SymExpr::var(n)]));
        let (k2, g2) = chk.summarize_stmt(&ctx, nth_assign(&p, 1));
        assert_eq!(k2, Section::Empty);
        assert!(!g2.is_empty());
        let (k3, g3) = chk.summarize_stmt(&ctx, nth_assign(&p, 2));
        assert_eq!(k3, Section::point(vec![SymExpr::var(n)]));
        assert_eq!(g3, Section::Empty);
    }

    #[test]
    fn cfb_uses_loop_context() {
        let p = parse_program(
            "program t
             integer idx(100), i, n
             do i = 1, n
               idx(i) = i + 1
             enddo
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let idx = p.symbols.lookup("idx").unwrap();
        // Values i+1 with i >= 1: bounded below by 2.
        let chk = PropertyChecker::new(
            idx,
            Property::ClosedFormBound {
                lo: Some(SymExpr::int(2)),
                hi: None,
            },
        );
        let (k, g) = chk.summarize_stmt(&ctx, nth_assign(&p, 0));
        assert_eq!(k, Section::Empty);
        assert!(!g.is_empty());
        // But bounded below by 3 is not provable.
        let chk3 = PropertyChecker::new(
            idx,
            Property::ClosedFormBound {
                lo: Some(SymExpr::int(3)),
                hi: None,
            },
        );
        let (k3, g3) = chk3.summarize_stmt(&ctx, nth_assign(&p, 0));
        assert!(!k3.is_empty());
        assert_eq!(g3, Section::Empty);
    }

    #[test]
    fn cfd_loop_pattern_fig3c() {
        // offset(1) = 1; do i = 1, n { offset(i+1) = offset(i)+length(i) }
        let p = parse_program(
            "program t
             integer offset(101), length(100), i, n
             n = 100
             offset(1) = 1
             do i = 1, n
               offset(i+1) = offset(i) + length(i)
             enddo
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let offset = p.symbols.lookup("offset").unwrap();
        let length = p.symbols.lookup("length").unwrap();
        let chk = PropertyChecker::new(
            offset,
            Property::ClosedFormDistance {
                distance: DistanceSpec::Array(length),
            },
        );
        let l = nth_loop(&p, 0);
        // n = 100 is not propagated here, so lo <= hi needs the literal
        // bounds; the loop is do i = 1, n with n unknown -> the MUST gen
        // requires lo <= hi... use explicit bounds instead.
        let _ = chk.summarize_loop(&ctx, l);
        // With literal bounds the pattern must fire:
        let p2 = parse_program(
            "program t
             integer offset(101), length(100), i
             offset(1) = 1
             do i = 1, 100
               offset(i+1) = offset(i) + length(i)
             enddo
             end",
        )
        .unwrap();
        let ctx2 = AnalysisCtx::new(&p2);
        let offset2 = p2.symbols.lookup("offset").unwrap();
        let length2 = p2.symbols.lookup("length").unwrap();
        let chk2 = PropertyChecker::new(
            offset2,
            Property::ClosedFormDistance {
                distance: DistanceSpec::Array(length2),
            },
        );
        let all_loops: Vec<StmtId> = p2
            .stmts_in(&p2.procedure(p2.main()).body)
            .into_iter()
            .filter(|s| p2.stmt(*s).kind.is_loop())
            .collect();
        let (kill, gen) = chk2.summarize_loop(&ctx2, all_loops[0]).expect("pattern");
        assert_eq!(gen, Section::range1(SymExpr::int(1), SymExpr::int(100)));
        assert_eq!(kill, Section::range1(SymExpr::int(1), SymExpr::int(101)));
    }

    #[test]
    fn cfd_running_sum_pattern() {
        let p = parse_program(
            "program t
             integer x(100), y(100), t2, i
             t2 = 0
             do i = 1, 50
               x(i) = t2
               t2 = t2 + y(i)
             enddo
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let x = p.symbols.lookup("x").unwrap();
        let y = p.symbols.lookup("y").unwrap();
        let chk = PropertyChecker::new(
            x,
            Property::ClosedFormDistance {
                distance: DistanceSpec::Array(y),
            },
        );
        let (kill, gen) = chk.summarize_loop(&ctx, nth_loop(&p, 0)).expect("pattern");
        assert_eq!(gen, Section::range1(SymExpr::int(1), SymExpr::int(49)));
        assert_eq!(kill, Section::range1(SymExpr::int(0), SymExpr::int(50)));
    }

    #[test]
    fn write_to_distance_array_kills_everything() {
        let p = parse_program(
            "program t
             integer x(100), y(100), n
             y(n) = 3
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let x = p.symbols.lookup("x").unwrap();
        let y = p.symbols.lookup("y").unwrap();
        let chk = PropertyChecker::new(
            x,
            Property::ClosedFormDistance {
                distance: DistanceSpec::Array(y),
            },
        );
        let (kill, gen) = chk.summarize_stmt(&ctx, nth_assign(&p, 0));
        assert_eq!(kill, Section::Universal);
        assert_eq!(gen, Section::Empty);
    }

    #[test]
    fn scalar_in_property_kills_on_assignment() {
        let p = parse_program(
            "program t
             integer x(100), n
             n = 5
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let x = p.symbols.lookup("x").unwrap();
        let n = p.symbols.lookup("n").unwrap();
        let chk = PropertyChecker::new(
            x,
            Property::ClosedFormBound {
                lo: Some(SymExpr::int(1)),
                hi: Some(SymExpr::var(n)),
            },
        );
        let (kill, _) = chk.summarize_stmt(&ctx, nth_assign(&p, 0));
        assert_eq!(kill, Section::Universal);
    }

    #[test]
    fn identity_loop_generates_injectivity() {
        let p = parse_program(
            "program t
             integer x(100), i
             do i = 1, 100
               x(i) = i
             enddo
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let x = p.symbols.lookup("x").unwrap();
        let chk = PropertyChecker::new(x, Property::Injective);
        let (_, gen) = chk.summarize_loop(&ctx, nth_loop(&p, 0)).expect("pattern");
        assert_eq!(gen, Section::range1(SymExpr::int(1), SymExpr::int(100)));
        let chkm = PropertyChecker::new(x, Property::MonotoneNonDecreasing);
        assert!(chkm.summarize_loop(&ctx, nth_loop(&p, 0)).is_some());
    }

    #[test]
    fn gather_loop_generates_injectivity_and_bounds() {
        let p = parse_program(
            "program t
             integer ind(100), q, i, m
             real x(100)
             q = 0
             do i = 1, m
               if (x(i) > 0) then
                 q = q + 1
                 ind(q) = i
               endif
             enddo
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let ind = p.symbols.lookup("ind").unwrap();
        let q = p.symbols.lookup("q").unwrap();
        let m = p.symbols.lookup("m").unwrap();
        let chk = PropertyChecker::new(ind, Property::Injective);
        let (_, gen) = chk.summarize_loop(&ctx, nth_loop(&p, 0)).expect("gather");
        assert_eq!(gen, Section::range1(SymExpr::int(1), SymExpr::var(q)));
        // Closed-form bound [1, m] also holds.
        let chkb = PropertyChecker::new(
            ind,
            Property::ClosedFormBound {
                lo: Some(SymExpr::int(1)),
                hi: Some(SymExpr::var(m)),
            },
        );
        assert!(chkb.summarize_loop(&ctx, nth_loop(&p, 0)).is_some());
        // But a tighter bound [2, m] does not.
        let chkb2 = PropertyChecker::new(
            ind,
            Property::ClosedFormBound {
                lo: Some(SymExpr::int(2)),
                hi: Some(SymExpr::var(m)),
            },
        );
        assert!(chkb2.summarize_loop(&ctx, nth_loop(&p, 0)).is_none());
    }
}
