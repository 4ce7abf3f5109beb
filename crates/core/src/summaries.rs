//! Interprocedural property summaries (the `irr-summaries` pass).
//!
//! The paper's whole-program examples assume index-array properties
//! survive subroutine boundaries (§4: the gathering phase and the
//! consuming phase live in different routines), and Bhosale &
//! Eigenmann make the same move explicit: propagate index-array
//! properties *interprocedurally* at compile time instead of
//! re-inspecting at every phase boundary. Without summaries, every
//! `call` is a property barrier — [`crate::evolution`]
//! clears all facts and the property solver refuses to look across
//! non-inlined calls.
//!
//! This module computes one [`ProcSummary`] per *called* routine by a
//! bottom-up pass over the call graph (`Hcg::bottom_up_procs`): callees
//! first, so a caller's summary composes its callees'. A summary is only
//! ever looked up at a `call` statement, so a routine nothing calls —
//! the main unit, a dead subroutine — is never summarized and keeps the
//! opaque default. Each summary holds
//!
//! - **MOD/REF sets** over the global symbol table (the mini-Fortran
//!   dialect has no parameters — every routine reads and writes
//!   globals), split into scalars and arrays;
//! - **MOD array sections**: a symbolic over-approximation of the
//!   region each array is written in ([`Section`], aggregated over the
//!   callee's loop nests), degraded to `Universal` whenever a bound
//!   mentions something the routine itself modifies (the stored bound
//!   would otherwise denote a mid-execution value, not the exit
//!   value);
//! - **property transformers** for the value-evolution facts: the
//!   *kill* component is the MOD sets (a fact about array `x` dies
//!   when the callee may write `x` or anything its symbolic material
//!   mentions — everything else is *preserved*), and the *establish*
//!   component is the callee's exit-fact set from running the
//!   evolution walk over its body, which composes the three producer
//!   shapes across nested calls because the walk itself applies
//!   callee summaries.
//!
//! Routines in a call-graph cycle — and routines calling an opaque
//! routine — are **opaque**: callers treat a call to them as
//! clobbering everything, which is exactly the old conservative
//! behavior. Routines with an early `return` keep their (may-)MOD
//! sets but drop the establish component: the exit state is then not
//! the state after the last statement.

use crate::budget::AnalysisBudget;
use crate::evolution::{self, EvoFacts};
use crate::AnalysisCtx;
use irr_frontend::{Expr, FxHashSet, LValue, ProcId, StmtId, StmtKind, VarId};
use irr_symbolic::{expr_to_sym, AggMode, RangeEnv, Section, SymExpr};
use std::collections::{BTreeMap, BTreeSet};

/// What one routine does to global state, composed over its callees.
#[derive(Clone, Debug)]
pub struct ProcSummary {
    /// Scalars the routine (or a callee) may assign, including loop
    /// variables.
    pub mod_scalars: BTreeSet<VarId>,
    /// Arrays the routine (or a callee) may write.
    pub mod_arrays: BTreeSet<VarId>,
    /// Scalars the routine (or a callee) may read.
    pub ref_scalars: BTreeSet<VarId>,
    /// Arrays the routine (or a callee) may read.
    pub ref_arrays: BTreeSet<VarId>,
    /// Symbolic over-approximation of the written region per array in
    /// `mod_arrays` (in terms of values at routine exit); `Universal`
    /// when not representable.
    pub mod_sections: BTreeMap<VarId, Section>,
    /// Evolution facts that hold at routine exit when entered with no
    /// facts (the context-free part of the property transformer); the
    /// flow-sensitive composition at a call site re-walks the body.
    pub establishes: BTreeMap<VarId, EvoFacts>,
    /// The routine can return before its last top-level statement, so
    /// `establishes` (and call-site body walks) would overclaim.
    pub early_return: bool,
    /// In a call-graph cycle, or calls an opaque routine: nothing is
    /// known, callers must clobber.
    pub opaque: bool,
}

impl ProcSummary {
    fn unknown() -> ProcSummary {
        ProcSummary {
            mod_scalars: BTreeSet::new(),
            mod_arrays: BTreeSet::new(),
            ref_scalars: BTreeSet::new(),
            ref_arrays: BTreeSet::new(),
            mod_sections: BTreeMap::new(),
            establishes: BTreeMap::new(),
            early_return: false,
            opaque: true,
        }
    }

    /// The evolution-fact kill sets a call to this routine applies:
    /// `(scalars, arrays)` as hash sets.
    pub fn kill_sets(&self) -> (FxHashSet<VarId>, FxHashSet<VarId>) {
        (
            self.mod_scalars.iter().copied().collect(),
            self.mod_arrays.iter().copied().collect(),
        )
    }

    /// Whether the routine may write array `a` (`true` when opaque).
    pub fn may_write_array(&self, a: VarId) -> bool {
        self.opaque || self.mod_arrays.contains(&a)
    }

    /// Whether the routine may write scalar `v` (`true` when opaque).
    pub fn may_write_scalar(&self, v: VarId) -> bool {
        self.opaque || self.mod_scalars.contains(&v)
    }

    /// The written region of array `a`: `Universal` unless a tighter
    /// section was computed.
    pub fn mod_section(&self, a: VarId) -> Section {
        if !self.may_write_array(a) {
            return Section::Empty;
        }
        self.mod_sections
            .get(&a)
            .cloned()
            .unwrap_or(Section::Universal)
    }
}

/// Per-routine summaries for a whole program, bottom-up over the call
/// graph: computed for exactly the routines that have a call site,
/// [`ProcSummary::opaque`] for the rest.
pub struct SummaryAnalysis {
    summaries: Vec<ProcSummary>,
}

impl SummaryAnalysis {
    /// Computes the summary of every called routine, callees before
    /// callers. Routines on call-graph cycles, and routines without a
    /// call site, stay [`ProcSummary::opaque`].
    pub fn new(ctx: &AnalysisCtx<'_>) -> SummaryAnalysis {
        Self::new_budgeted(ctx, None)
    }

    /// [`new`](Self::new) under an [`AnalysisBudget`]: each summarized
    /// routine is charged `1 + statements` before being summarized (a
    /// routine without a call site costs nothing, so a call-free program
    /// spends no fuel here), and once the meter runs dry every remaining
    /// routine keeps its `unknown` (opaque) summary — callers then treat
    /// its calls as clobbering everything, which is the sound direction.
    pub fn new_budgeted(ctx: &AnalysisCtx<'_>, budget: Option<&AnalysisBudget>) -> SummaryAnalysis {
        let nprocs = ctx.program.procedures.len();
        let mut sa = SummaryAnalysis {
            summaries: vec![ProcSummary::unknown(); nprocs],
        };
        if nprocs < 2 {
            // A lone routine's only possible caller is itself: it has no
            // call site or is recursive, opaque either way, so the HCG
            // need not be built to say so.
            return sa;
        }
        let hcg = ctx.hcg();
        let recursive = hcg.recursive_procs();
        for p in hcg.bottom_up_procs() {
            if recursive.contains(&p) || hcg.call_sites(p).is_empty() {
                continue; // stays opaque
            }
            let stmts = ctx.program.stmts_in(&ctx.program.procedure(p).body);
            if budget.is_some_and(|b| !b.spend(1 + stmts.len() as u64)) {
                break; // the rest stay opaque
            }
            sa.summaries[p.index()] = compute_summary(ctx, p, &stmts, &sa);
        }
        sa
    }

    /// The summary for routine `p`.
    pub fn summary(&self, p: ProcId) -> &ProcSummary {
        &self.summaries[p.index()]
    }
}

/// The summary of routine `p`, whose flattened statements are `all`.
fn compute_summary(
    ctx: &AnalysisCtx<'_>,
    p: ProcId,
    all: &[StmtId],
    partial: &SummaryAnalysis,
) -> ProcSummary {
    let program = ctx.program;
    let body = &program.procedure(p).body;
    let mut sum = ProcSummary {
        opaque: false,
        ..ProcSummary::unknown()
    };

    for &s in all {
        match &program.stmt(s).kind {
            StmtKind::Assign { lhs, .. } => match lhs {
                LValue::Scalar(v) => {
                    sum.mod_scalars.insert(*v);
                }
                LValue::Element(a, _) => {
                    sum.mod_arrays.insert(*a);
                }
            },
            StmtKind::Do { var, .. } => {
                sum.mod_scalars.insert(*var);
            }
            StmtKind::Call { proc } => {
                let callee = partial.summary(*proc);
                if callee.opaque {
                    // An opaque callee makes the caller opaque too:
                    // anything could be written.
                    return ProcSummary::unknown();
                }
                sum.mod_scalars.extend(callee.mod_scalars.iter().copied());
                sum.mod_arrays.extend(callee.mod_arrays.iter().copied());
                sum.ref_scalars.extend(callee.ref_scalars.iter().copied());
                sum.ref_arrays.extend(callee.ref_arrays.iter().copied());
                sum.early_return |= callee.early_return;
            }
            StmtKind::Return if Some(&s) != body.last() => {
                sum.early_return = true;
            }
            _ => {}
        }
        irr_frontend::visit::for_each_expr_in_stmt(program, s, |e| {
            irr_frontend::visit::for_each_subexpr(e, &mut |sub| match sub {
                Expr::Var(v) => {
                    sum.ref_scalars.insert(*v);
                }
                Expr::Element(a, _) => {
                    sum.ref_arrays.insert(*a);
                }
                _ => {}
            });
        });
    }

    sum.mod_sections = mod_sections(ctx, all, partial, &sum);
    if !sum.early_return {
        sum.establishes = evolution::facts_at_exit(ctx, body, partial)
            .into_iter()
            .collect();
    }
    sum
}

/// Aggregates the per-statement write sections of each directly
/// written array over the enclosing loop nest, unions in callee
/// sections, and degrades any section whose bounds mention something
/// the routine itself modifies (the bound would denote a
/// mid-execution value).
fn mod_sections(
    ctx: &AnalysisCtx<'_>,
    all: &[StmtId],
    partial: &SummaryAnalysis,
    sum: &ProcSummary,
) -> BTreeMap<VarId, Section> {
    let program = ctx.program;
    let env = RangeEnv::new();
    let mut sections: BTreeMap<VarId, Section> = BTreeMap::new();
    let add = |arr: VarId, sec: Section, sections: &mut BTreeMap<VarId, Section>| {
        let merged = match sections.get(&arr) {
            Some(prev) => prev.union_may(&sec, &env),
            None => sec,
        };
        sections.insert(arr, merged);
    };
    for &s in all {
        match &program.stmt(s).kind {
            StmtKind::Assign {
                lhs: LValue::Element(a, subs),
                ..
            } => {
                let sec = write_section(ctx, s, subs).unwrap_or(Section::Universal);
                add(*a, sec, &mut sections);
            }
            StmtKind::Call { proc } => {
                let callee = partial.summary(*proc);
                for &a in &callee.mod_arrays {
                    add(a, callee.mod_section(a), &mut sections);
                }
            }
            _ => {}
        }
    }
    // A bound mentioning a modified scalar (or array, for
    // subscripted-subscript bounds) denotes some mid-execution value,
    // not the exit value a caller would read it as.
    for sec in sections.values_mut() {
        let stale = sum.mod_scalars.iter().any(|&v| sec.mentions_var(v))
            || sum
                .mod_arrays
                .iter()
                .any(|&a| section_mentions_array(sec, a));
        if stale {
            *sec = Section::Universal;
        }
    }
    sections
}

/// The section one `Assign` to `arr(subs...)` writes, aggregated
/// (May) over every enclosing loop of the statement.
fn write_section(ctx: &AnalysisCtx<'_>, s: StmtId, subs: &[Expr]) -> Option<Section> {
    let syms: Vec<SymExpr> = subs.iter().map(expr_to_sym).collect::<Option<_>>()?;
    let mut sec = Section::point(syms);
    let env = RangeEnv::new();
    for &lp in ctx.enclosing_loops(s) {
        let (var, lo, hi) = ctx.do_bounds_sym(lp)?;
        sec = sec.aggregate(var, &lo, &hi, &env, AggMode::May);
    }
    Some(sec)
}

/// Whether any finite bound of the section mentions an element of
/// `arr` (the [`Section::mentions_var`] analogue for arrays).
pub fn section_mentions_array(sec: &Section, arr: VarId) -> bool {
    sec.ranges().is_some_and(|ranges| {
        ranges.iter().any(|r| {
            r.lo.as_finite().is_some_and(|e| e.mentions_array(arr))
                || r.hi.as_finite().is_some_and(|e| e.mentions_array(arr))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_frontend::parse_program;

    fn var(p: &irr_frontend::Program, name: &str) -> VarId {
        p.symbols.lookup(name).unwrap()
    }

    fn pid(p: &irr_frontend::Program, name: &str) -> ProcId {
        p.procedures
            .iter()
            .enumerate()
            .find(|(_, pr)| pr.name == name)
            .map(|(i, _)| ProcId(i as u32))
            .unwrap()
    }

    #[test]
    fn mod_ref_sets_compose_over_calls() {
        let p = parse_program(
            "program t
             integer i, n, a(8), b(8)
             n = 8
             call outer
             end
             subroutine outer
             integer i, n, a(8), b(8)
             do i = 1, n
               a(i) = b(i)
             enddo
             call inner
             end
             subroutine inner
             integer n, b(8)
             b(1) = n
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let sa = SummaryAnalysis::new(&ctx);
        let outer = sa.summary(pid(&p, "outer"));
        assert!(!outer.opaque);
        assert!(outer.may_write_array(var(&p, "a")));
        assert!(outer.may_write_array(var(&p, "b")), "inherited from inner");
        assert!(!outer.may_write_scalar(var(&p, "n")));
        assert!(outer.ref_scalars.contains(&var(&p, "n")));
        assert!(outer.ref_arrays.contains(&var(&p, "b")));
        assert!(outer.mod_scalars.contains(&var(&p, "i")), "loop variable");
    }

    #[test]
    fn a_routine_nobody_calls_is_never_summarized() {
        // `fill` is called; the main unit and `dead` are not. Both write
        // `a`, so a computed summary of either would be non-opaque.
        let p = parse_program(
            "program t
             integer i, a(8)
             call fill
             a(1) = 0
             end
             subroutine fill
             integer i, a(8)
             do i = 1, 8
               a(i) = i
             enddo
             end
             subroutine dead
             integer a(8)
             a(2) = 0
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let budget = AnalysisBudget::limited(Some(1_000), None);
        let sa = SummaryAnalysis::new_budgeted(&ctx, Some(&budget));
        for name in ["t", "dead"] {
            let s = sa.summary(pid(&p, name));
            assert!(s.opaque, "`{name}` has no call site");
            assert!(s.mod_arrays.is_empty(), "`{name}` was never walked");
        }
        let fill = sa.summary(pid(&p, "fill"));
        assert!(!fill.opaque && fill.may_write_array(var(&p, "a")));
        assert!(fill.establishes.contains_key(&var(&p, "a")));
        // Only `fill` was charged: 1 + its two statements.
        assert_eq!(budget.fuel_left(), 1_000 - 3);
    }

    #[test]
    fn a_call_free_program_spends_no_summary_fuel() {
        let p = parse_program(
            "program t
             integer i, a(8)
             do i = 1, 8
               a(i) = i
             enddo
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let budget = AnalysisBudget::limited(Some(10), None);
        let sa = SummaryAnalysis::new_budgeted(&ctx, Some(&budget));
        assert_eq!(budget.fuel_left(), 10);
        assert!(sa.summary(p.main()).opaque);
    }

    #[test]
    fn recursion_makes_the_whole_cycle_opaque() {
        let p = parse_program(
            "program t
             call a
             end
             subroutine a
             call b
             end
             subroutine b
             call a
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let sa = SummaryAnalysis::new(&ctx);
        assert!(sa.summary(pid(&p, "a")).opaque);
        assert!(sa.summary(pid(&p, "b")).opaque);
        assert!(
            sa.summary(pid(&p, "t")).opaque,
            "caller of an opaque routine is opaque"
        );
    }

    #[test]
    fn mod_sections_aggregate_loop_writes() {
        let p = parse_program(
            "program t
             call fill
             end
             subroutine fill
             integer i, a(8)
             do i = 1, 8
               a(i) = 0
             enddo
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let sa = SummaryAnalysis::new(&ctx);
        let fill = sa.summary(pid(&p, "fill"));
        let sec = fill.mod_section(var(&p, "a"));
        let env = RangeEnv::new();
        let probe = Section::point(vec![SymExpr::int(9)]);
        assert!(
            sec.provably_disjoint(&probe, &env),
            "write section [1:8] excludes element 9, got {sec:?}"
        );
        assert!(!sec.provably_disjoint(&Section::point(vec![SymExpr::int(8)]), &env));
    }

    #[test]
    fn early_return_drops_establishes_but_keeps_mod_sets() {
        let p = parse_program(
            "program t
             call f
             end
             subroutine f
             integer i, n, a(8)
             if (n > 0) then
               return
             endif
             do i = 1, 8
               a(i) = i
             enddo
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let sa = SummaryAnalysis::new(&ctx);
        let f = sa.summary(pid(&p, "f"));
        assert!(f.early_return);
        assert!(f.establishes.is_empty());
        assert!(f.may_write_array(var(&p, "a")));
    }

    #[test]
    fn establishes_composes_producer_shapes_across_nested_calls() {
        // The prefix sum in `ptrs` only composes because the walk of
        // `ptrs` applies the already-computed summary of `lens`.
        let p = parse_program(
            "program t
             call ptrs
             end
             subroutine ptrs
             integer i, n, len(8), ptr(9)
             call lens
             ptr(1) = 1
             do i = 1, 8
               ptr(i + 1) = ptr(i) + len(i)
             enddo
             end
             subroutine lens
             integer i, len(8)
             do i = 1, 8
               len(i) = 1
             enddo
             end",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let sa = SummaryAnalysis::new(&ctx);
        let ptrs = sa.summary(pid(&p, "ptrs"));
        let pf = ptrs
            .establishes
            .get(&var(&p, "ptr"))
            .expect("prefix-sum fact established across the nested call");
        assert!(pf.chain.is_some());
        assert!(ptrs.establishes.contains_key(&var(&p, "len")));
    }
}
