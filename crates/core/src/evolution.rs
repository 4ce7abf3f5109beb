//! Value-evolution analysis of index-array producer loops.
//!
//! The property lattice in [`property`](crate::property) answers
//! queries about an index array *at the loop that consumes it*; when
//! the array's defining statements are opaque the query fails and the
//! driver falls back to a runtime inspector. But the producer loops of
//! the sparse kernels build `ptr`/`idx` arrays in a handful of
//! recurrence shapes whose properties follow *by construction*
//! (Bhosale & Eigenmann, *Compile-time Parallelization of Subscripted
//! Subscript Patterns*): a prefix sum over a nonnegative length array
//! is monotone nondecreasing and satisfies the offset–length equation
//! the runtime inspector would re-check element by element; an affine
//! fill with nonzero slope is injective.
//!
//! This module walks each procedure body once, in order, evolving a
//! per-array fact set:
//!
//! - **affine fill** `x(i + c) = a*i + b` (`b` loop-invariant):
//!   injective when `a != 0`, strictly increasing when `a >= 1`,
//!   nonnegative/positive when provable at the range endpoints;
//! - **prefix sum** `x(i+1) = x(i) + d(i)` with `d` known
//!   nonnegative over the traversed range: `x` is monotone
//!   nondecreasing and carries the *chain* fact
//!   `x(k+1) == x(k) + d(k)` for `k` in the loop range — exactly the
//!   predicate the executor's index scan (`irr_exec::IndexFacts::scan`)
//!   re-derives at run time — strictly increasing (hence injective)
//!   when `d` is positive;
//! - **accumulate** `x(e) = x(e) + c` with constant `c >= 0` (the
//!   histogram loop that counts segment lengths): preserves an
//!   existing nonnegativity fact and nothing else — in particular a
//!   zero-trip or duplicate-free histogram never upgrades the later
//!   prefix sum to *strictly* increasing, only `d >= 1` does.
//!
//! Any other write invalidates: a statement (or loop, or branch) that
//! writes array `x` kills the facts about `x`, kills every chain fact
//! whose length array is `x`, and kills facts whose symbolic ranges
//! mention `x`; assigning a scalar kills facts whose ranges mention
//! it. A `call` kills everything *unless* the analysis was built
//! [`with_summaries`](EvolutionAnalysis::with_summaries): then a call
//! to a summarized (non-opaque, no-early-return) routine is composed
//! flow-sensitively by walking the callee body under the call-site
//! facts — preserving facts the callee provably leaves alone and
//! establishing the facts its own producer loops create — and a call
//! to an early-returning routine applies only the summary's MOD kill
//! sets. Facts that survive or arise at a call are tagged
//! [`interproc`](EvoFacts::interproc) so the driver can attribute the
//! promotion to interprocedural reasoning.
//!
//! Facts are snapshotted at every loop entry (including loops nested
//! in other loops — the snapshot already excludes everything the
//! enclosing loop writes), where the driver queries them to discharge
//! residual guard checks statically: a discharged check is one the
//! runtime no longer needs to inspect.

use crate::budget::AnalysisBudget;
use crate::ctx::{AnalysisCtx, BodyTable};
use crate::summaries::SummaryAnalysis;
use irr_frontend::{BinOp, Expr, LValue, StmtId, StmtKind, VarId};
use irr_symbolic::{expr_to_sym, prove_ge0, prove_gt0, prove_le, Atom, RangeEnv, SymExpr};
use std::collections::{HashMap, HashSet};

/// Monotonicity of an index array's values over its covered range.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Monotonicity {
    /// No ordering fact.
    Unknown,
    /// `x(k+1) >= x(k)` on the covered range.
    NonDecreasing,
    /// `x(k+1) > x(k)` on the covered range (hence injective).
    Increasing,
}

/// Facts proven about one array's values, valid over the inclusive
/// symbolic index range `covered`.
#[derive(Clone, Debug)]
pub struct EvoFacts {
    /// Inclusive index range the element facts hold over.
    pub covered: (SymExpr, SymExpr),
    /// Value ordering across adjacent covered indices.
    pub monotone: Monotonicity,
    /// Distinct covered indices hold distinct values.
    pub injective: bool,
    /// Every covered element is `>= 0`.
    pub nonneg: bool,
    /// Every covered element is `>= 1`.
    pub positive: bool,
    /// `(d, k_lo, k_hi)`: `x(k+1) == x(k) + d(k)` for every `k` in
    /// `[k_lo, k_hi]` — the offset–length recurrence, seed value
    /// irrelevant.
    pub chain: Option<(VarId, SymExpr, SymExpr)>,
    /// Which producer shape established the fact (for diagnostics).
    pub origin: &'static str,
    /// The fact survived, or was established, across a `call` via
    /// procedure summaries — its use is an interprocedural promotion.
    pub interproc: bool,
}

/// Field-wise equality, ignoring provenance (`origin`, `interproc`).
fn same_fact(a: &EvoFacts, b: &EvoFacts) -> bool {
    a.covered == b.covered
        && a.monotone == b.monotone
        && a.injective == b.injective
        && a.nonneg == b.nonneg
        && a.positive == b.positive
        && a.chain == b.chain
}

/// Per-loop snapshots of the array facts live at loop entry.
pub struct EvolutionAnalysis {
    at_loop: HashMap<StmtId, HashMap<VarId, EvoFacts>>,
}

impl EvolutionAnalysis {
    /// Walks every procedure of the (post-pass) program once, treating
    /// every `call` as clobbering all facts.
    pub fn new(ctx: &AnalysisCtx<'_>) -> EvolutionAnalysis {
        Self::budgeted(ctx, None, None)
    }

    /// Like [`new`](Self::new), but composes facts across calls using
    /// the per-routine summaries: calls to summarized routines
    /// preserve and establish facts instead of clobbering them.
    pub fn with_summaries(ctx: &AnalysisCtx<'_>, summaries: &SummaryAnalysis) -> EvolutionAnalysis {
        Self::budgeted(ctx, Some(summaries), None)
    }

    /// The fully general constructor: optional summaries, optional
    /// [`AnalysisBudget`]. When the budget runs dry mid-walk the
    /// remaining loops simply get no snapshots (and the live fact set
    /// is dropped), so every discharge question they would be asked
    /// answers "unknown" — weaker verdicts, never unsound ones.
    /// Snapshots recorded *before* exhaustion were computed from a
    /// complete walk up to that point and stay valid.
    pub fn budgeted(
        ctx: &AnalysisCtx<'_>,
        summaries: Option<&SummaryAnalysis>,
        budget: Option<&AnalysisBudget>,
    ) -> EvolutionAnalysis {
        let mut evo = EvolutionAnalysis {
            at_loop: HashMap::new(),
        };
        for proc in &ctx.program.procedures {
            let mut facts: HashMap<VarId, EvoFacts> = HashMap::new();
            evo.walk_body(ctx, &proc.body, &mut facts, summaries, budget);
        }
        evo
    }

    /// An analysis that never ran: no loop has a snapshot, so every
    /// discharge question answers "unknown". The evolution-off rung of
    /// the degradation ladder compiles against this.
    pub fn disabled() -> EvolutionAnalysis {
        EvolutionAnalysis {
            at_loop: HashMap::new(),
        }
    }

    /// The facts live at entry to `loop_stmt`, if the loop was reached
    /// by the walk.
    pub fn facts_at(&self, loop_stmt: StmtId) -> Option<&HashMap<VarId, EvoFacts>> {
        self.at_loop.get(&loop_stmt)
    }

    /// Whether the facts at `loop_stmt` imply what the runtime
    /// offset–length inspector would verify over `[lo, hi]`:
    /// `len(k) >= 0` and `ptr(k+1) == ptr(k) + len(k)` for every `k`.
    pub fn proves_offset_length(
        &self,
        loop_stmt: StmtId,
        ptr: VarId,
        len: VarId,
        lo: &SymExpr,
        hi: &SymExpr,
        env: &RangeEnv,
    ) -> bool {
        // Empty inspection range: the inspector passes vacuously.
        if prove_gt0(&lo.sub(hi), env) {
            return true;
        }
        let Some(facts) = self.at_loop.get(&loop_stmt) else {
            return false;
        };
        let Some((chain_len, k_lo, k_hi)) = facts.get(&ptr).and_then(|f| f.chain.as_ref()) else {
            return false;
        };
        if *chain_len != len {
            return false;
        }
        let Some(lf) = facts.get(&len) else {
            return false;
        };
        lf.nonneg
            && prove_le(k_lo, lo, env)
            && prove_le(hi, k_hi, env)
            && prove_le(&lf.covered.0, lo, env)
            && prove_le(hi, &lf.covered.1, env)
    }

    /// Whether the facts at `loop_stmt` imply injectivity of
    /// `arr(lo..=hi)` — what the runtime injectivity inspector would
    /// verify.
    pub fn proves_injective(
        &self,
        loop_stmt: StmtId,
        arr: VarId,
        lo: &SymExpr,
        hi: &SymExpr,
        env: &RangeEnv,
    ) -> bool {
        if prove_gt0(&lo.sub(hi), env) {
            return true;
        }
        let Some(f) = self.at_loop.get(&loop_stmt).and_then(|m| m.get(&arr)) else {
            return false;
        };
        f.injective && prove_le(&f.covered.0, lo, env) && prove_le(hi, &f.covered.1, env)
    }

    /// Whether the fact about `var` live at `loop_stmt` was carried or
    /// established across a call (an interprocedural promotion when
    /// used to discharge a check).
    pub fn fact_interproc(&self, loop_stmt: StmtId, var: VarId) -> bool {
        self.at_loop
            .get(&loop_stmt)
            .and_then(|m| m.get(&var))
            .is_some_and(|f| f.interproc)
    }

    fn walk_body(
        &mut self,
        ctx: &AnalysisCtx<'_>,
        body: &[StmtId],
        facts: &mut HashMap<VarId, EvoFacts>,
        summaries: Option<&SummaryAnalysis>,
        budget: Option<&AnalysisBudget>,
    ) {
        let program = ctx.program;
        for &s in body {
            if budget.is_some_and(|b| !b.spend(1)) {
                // Dry meter: stop producing facts. Clearing first keeps
                // the walk conservative — nothing recorded from here on
                // can claim a property the completed prefix didn't
                // establish.
                facts.clear();
                return;
            }
            match &program.stmt(s).kind {
                StmtKind::Assign { lhs, .. } => match lhs {
                    LValue::Scalar(v) => {
                        let ks = HashSet::from([*v]);
                        apply_kills(facts, &ks, &HashSet::new());
                    }
                    LValue::Element(a, _) => {
                        let ka = HashSet::from([*a]);
                        apply_kills(facts, &HashSet::new(), &ka);
                    }
                },
                StmtKind::Do { .. } => self.handle_do(ctx, s, facts, summaries, budget),
                StmtKind::While { .. } => {
                    kill_for_subtree(ctx.loop_table(s), facts, summaries);
                }
                StmtKind::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    let both: Vec<StmtId> =
                        then_body.iter().chain(else_body.iter()).copied().collect();
                    kill_for_subtree(&BodyTable::of(program, &both), facts, summaries);
                }
                StmtKind::Call { proc } => {
                    match summaries.map(|sa| sa.summary(*proc)) {
                        Some(sum) if !sum.opaque => {
                            if sum.early_return {
                                // Exit state is not the state after the
                                // last statement: apply only the
                                // (may-)MOD kill sets.
                                let (ks, ka) = sum.kill_sets();
                                apply_kills(facts, &ks, &ka);
                            } else {
                                // Flow-sensitive transformer
                                // application: compose the callee's
                                // kills and establishments over the
                                // call-site facts by walking its body.
                                // Bottom-up summary construction
                                // guarantees the callee's own calls are
                                // already summarized and acyclic.
                                let callee_body = &program.procedure(*proc).body;
                                self.walk_body(ctx, callee_body, facts, summaries, budget);
                            }
                            for f in facts.values_mut() {
                                f.interproc = true;
                            }
                        }
                        _ => facts.clear(),
                    }
                }
                StmtKind::Print { .. } | StmtKind::Return => {}
            }
        }
    }

    fn handle_do(
        &mut self,
        ctx: &AnalysisCtx<'_>,
        loop_stmt: StmtId,
        facts: &mut HashMap<VarId, EvoFacts>,
        summaries: Option<&SummaryAnalysis>,
        budget: Option<&AnalysisBudget>,
    ) {
        let program = ctx.program;
        let StmtKind::Do { var, body, .. } = &program.stmt(loop_stmt).kind else {
            unreachable!("handle_do on a non-do statement");
        };
        let loop_var = *var;
        let table = ctx.loop_table(loop_stmt);
        // The kill-set and producer analyses below walk the whole
        // subtree: charge proportionally, and record nothing when dry
        // (no snapshot ⇒ `facts_at` is `None` ⇒ every discharge fails).
        if budget.is_some_and(|b| !b.spend(1 + body.len() as u64)) {
            facts.clear();
            return;
        }
        let pre = facts.clone();
        let kills = kill_sets(table, summaries).map(|(mut ks, ka, via_call)| {
            ks.insert(loop_var);
            (ks, ka, via_call)
        });
        match &kills {
            None => facts.clear(),
            Some((ks, ka, via_call)) => {
                apply_kills(facts, ks, ka);
                if *via_call {
                    // Survival across the loop relied on callee
                    // summaries bounding what its calls write.
                    for f in facts.values_mut() {
                        f.interproc = true;
                    }
                }
            }
        }
        // The surviving facts exclude everything this loop writes, so
        // they hold at entry to the loop and to every loop nested in
        // it.
        self.snapshot(loop_stmt, facts);
        for &s in &table.stmts {
            if matches!(program.stmt(s).kind, StmtKind::Do { .. }) {
                self.snapshot(s, facts);
            }
        }
        if let Some((ks, ka, _)) = &kills {
            if let Some((arr, f)) =
                recognize_producer(ctx, loop_stmt, loop_var, body, facts, &pre, ks, ka)
            {
                facts.insert(arr, f);
            }
        }
    }

    /// Records the facts live at entry to `s`. A loop inside a callee
    /// is reached once per call site (plus the standalone walk of its
    /// procedure), so on a revisit the snapshot is the *intersection*:
    /// only facts identical across every visit survive, which keeps
    /// the per-loop answer valid for every dynamic execution.
    fn snapshot(&mut self, s: StmtId, facts: &HashMap<VarId, EvoFacts>) {
        use std::collections::hash_map::Entry;
        match self.at_loop.entry(s) {
            Entry::Vacant(e) => {
                e.insert(facts.clone());
            }
            Entry::Occupied(mut e) => {
                e.get_mut().retain(|arr, f| match facts.get(arr) {
                    Some(g) if same_fact(f, g) => {
                        f.interproc |= g.interproc;
                        true
                    }
                    _ => false,
                });
            }
        }
    }
}

/// `(scalars assigned, arrays written, any-of-it-via-call)` anywhere
/// under the walked body, or `None` when the subtree contains a call to
/// an unsummarized or opaque routine (kill everything).
fn kill_sets(
    table: &BodyTable<'_>,
    summaries: Option<&SummaryAnalysis>,
) -> Option<(HashSet<VarId>, HashSet<VarId>, bool)> {
    let mut scalars: HashSet<VarId> = table.assigned_scalars.iter().copied().collect();
    let mut arrays: HashSet<VarId> = table.written_arrays.iter().copied().collect();
    for proc in &table.callees {
        match summaries.map(|sa| sa.summary(*proc)) {
            Some(sum) if !sum.opaque => {
                scalars.extend(sum.mod_scalars.iter().copied());
                arrays.extend(sum.mod_arrays.iter().copied());
            }
            _ => return None,
        }
    }
    Some((scalars, arrays, !table.callees.is_empty()))
}

fn kill_for_subtree(
    table: &BodyTable<'_>,
    facts: &mut HashMap<VarId, EvoFacts>,
    summaries: Option<&SummaryAnalysis>,
) {
    match kill_sets(table, summaries) {
        None => facts.clear(),
        Some((ks, ka, via_call)) => {
            apply_kills(facts, &ks, &ka);
            if via_call {
                for f in facts.values_mut() {
                    f.interproc = true;
                }
            }
        }
    }
}

/// The exit fact set of `body` entered with no facts, composing calls
/// via the (possibly still partial, conservatively opaque) summary
/// table — used by summary construction for the *establishes*
/// component.
pub(crate) fn facts_at_exit(
    ctx: &AnalysisCtx<'_>,
    body: &[StmtId],
    summaries: &SummaryAnalysis,
) -> HashMap<VarId, EvoFacts> {
    let mut evo = EvolutionAnalysis {
        at_loop: HashMap::new(),
    };
    let mut facts = HashMap::new();
    evo.walk_body(ctx, body, &mut facts, Some(summaries), None);
    facts
}

/// Whether the symbolic material of a fact references a killed scalar
/// or array (its index ranges or its chain become stale).
fn refs_killed(f: &EvoFacts, ks: &HashSet<VarId>, ka: &HashSet<VarId>) -> bool {
    let stale = |e: &SymExpr| {
        ks.iter().any(|&s| e.mentions_var(s)) || ka.iter().any(|&a| e.mentions_array(a))
    };
    if stale(&f.covered.0) || stale(&f.covered.1) {
        return true;
    }
    match &f.chain {
        Some((d, k_lo, k_hi)) => ka.contains(d) || stale(k_lo) || stale(k_hi),
        None => false,
    }
}

fn apply_kills(facts: &mut HashMap<VarId, EvoFacts>, ks: &HashSet<VarId>, ka: &HashSet<VarId>) {
    facts.retain(|arr, f| !ka.contains(arr) && !refs_killed(f, ks, ka));
}

/// Tries to recognize the loop as one of the three producer shapes.
/// `facts` is the post-kill set (loop-invariant w.r.t. this loop);
/// `pre` the pre-kill set, used only by the accumulate shape to carry
/// nonnegativity over the self-update.
#[allow(clippy::too_many_arguments)]
fn recognize_producer(
    ctx: &AnalysisCtx<'_>,
    loop_stmt: StmtId,
    loop_var: VarId,
    body: &[StmtId],
    facts: &HashMap<VarId, EvoFacts>,
    pre: &HashMap<VarId, EvoFacts>,
    ks: &HashSet<VarId>,
    ka: &HashSet<VarId>,
) -> Option<(VarId, EvoFacts)> {
    if body.len() != 1 {
        return None;
    }
    let (lhs, rhs) = ctx.assign_parts(body[0])?;
    let LValue::Element(x, subs) = lhs else {
        return None;
    };
    let x = *x;
    if subs.len() != 1 {
        return None;
    }
    let (var, lo, hi) = ctx.do_bounds_sym(loop_stmt)?;
    debug_assert_eq!(var, loop_var);
    let env = ctx.range_env_at(loop_stmt);

    // ---- accumulate: x(e) = x(e) + c, c >= 0 -----------------------------
    // Tried first: `e` may be an arbitrary (subscripted-subscript)
    // expression the shift computation below cannot normalize.
    if let Expr::Bin(BinOp::Add, a, b) = rhs {
        let addend = match (&**a, &**b) {
            (Expr::Element(ax, asubs), other) if *ax == x && asubs == subs => Some(other),
            (other, Expr::Element(bx, bsubs)) if *bx == x && bsubs == subs => Some(other),
            _ => None,
        };
        if let Some(c) = addend.and_then(expr_to_sym).and_then(|c| c.as_int()) {
            if c < 0 {
                return None;
            }
            let f = pre.get(&x)?;
            if !f.nonneg || refs_killed(f, ks, ka) {
                return None;
            }
            return Some((
                x,
                EvoFacts {
                    covered: f.covered.clone(),
                    monotone: Monotonicity::Unknown,
                    injective: false,
                    nonneg: true,
                    positive: false,
                    chain: None,
                    origin: "accumulate",
                    interproc: false,
                },
            ));
        }
    }

    let se = expr_to_sym(&subs[0])?;
    if se.den() != 1 {
        return None;
    }
    // Subscript shift: the loop writes x(i + dc) for i in [lo, hi].
    let dc = se.sub(&SymExpr::var(loop_var)).as_int()?;

    // ---- prefix sum: x(i+1) = x(i) + d(i) --------------------------------
    if dc == 1 {
        if let Some(d) = prefix_sum_distance(rhs, x, loop_var) {
            if d != x && !ka.contains(&d) {
                if let Some(df) = facts.get(&d) {
                    if df.nonneg
                        && prove_le(&df.covered.0, &lo, env)
                        && prove_le(&hi, &df.covered.1, env)
                    {
                        let strict = df.positive;
                        return Some((
                            x,
                            EvoFacts {
                                covered: (lo.clone(), hi.add(&SymExpr::int(1))),
                                monotone: if strict {
                                    Monotonicity::Increasing
                                } else {
                                    Monotonicity::NonDecreasing
                                },
                                injective: strict,
                                nonneg: false,
                                positive: false,
                                chain: Some((d, lo, hi)),
                                origin: "prefix-sum",
                                interproc: false,
                            },
                        ));
                    }
                }
            }
        }
    }

    // ---- affine fill: x(i + dc) = a*i + b, b loop-invariant --------------
    let rs = expr_to_sym(rhs)?;
    if rs.den() != 1 || rs.mentions_array(x) {
        return None;
    }
    let (a, den) = rs.coeff_of_atom(&Atom::Var(loop_var));
    if den != 1 {
        return None;
    }
    let b = rs.sub(&SymExpr::var(loop_var).scale(a));
    if b.mentions_var(loop_var) {
        return None;
    }
    let at_lo = rs.subst(loop_var, &lo);
    let at_hi = rs.subst(loop_var, &hi);
    let nonneg = prove_ge0(&at_lo, env) && prove_ge0(&at_hi, env);
    let positive = prove_gt0(&at_lo, env) && prove_gt0(&at_hi, env);
    let shift = SymExpr::int(dc);
    Some((
        x,
        EvoFacts {
            covered: (lo.add(&shift), hi.add(&shift)),
            monotone: if a >= 1 {
                Monotonicity::Increasing
            } else if a == 0 {
                Monotonicity::NonDecreasing
            } else {
                Monotonicity::Unknown
            },
            injective: a != 0,
            nonneg,
            positive,
            chain: None,
            origin: "affine-fill",
            interproc: false,
        },
    ))
}

/// Matches `rhs == x(i) + d(i)` (either operand order) and returns `d`.
fn prefix_sum_distance(rhs: &Expr, x: VarId, i: VarId) -> Option<VarId> {
    let rs = expr_to_sym(rhs)?;
    let x_at_i = SymExpr::elem(x, vec![SymExpr::var(i)]);
    let diff = rs.sub(&x_at_i);
    if diff.mentions_array(x) {
        return None;
    }
    match diff.as_single_atom()? {
        Atom::Elem(d, dsubs) if dsubs.len() == 1 && dsubs[0] == SymExpr::var(i) => Some(*d),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_frontend::parse_program;

    fn analyze(src: &str) -> (irr_frontend::Program, Vec<StmtId>) {
        let p = parse_program(src).expect("test program parses");
        let loops: Vec<StmtId> = p
            .stmts_in(&p.procedures[0].body)
            .into_iter()
            .filter(|&s| matches!(p.stmt(s).kind, StmtKind::Do { .. }))
            .collect();
        (p, loops)
    }

    fn var(p: &irr_frontend::Program, name: &str) -> VarId {
        p.symbols.lookup(name).unwrap()
    }

    #[test]
    fn positive_fill_then_prefix_sum_is_strictly_increasing() {
        let (p, loops) = analyze(
            "program t
             integer i, n, len(8), ptr(9)
             real x(16)
             n = 8
             do i = 1, n
               len(i) = 1
             enddo
             ptr(1) = 1
             do i = 1, n
               ptr(i + 1) = ptr(i) + len(i)
             enddo
             do 100 i = 1, n
               x(ptr(i)) = 0.0
         100 continue
             end",
        );
        let ctx = AnalysisCtx::new(&p);
        let evo = EvolutionAnalysis::new(&ctx);
        let consumer = *loops.last().unwrap();
        let facts = evo.facts_at(consumer).unwrap();
        let pf = &facts[&var(&p, "ptr")];
        assert_eq!(pf.monotone, Monotonicity::Increasing);
        assert!(pf.injective);
        let (d, _, _) = pf.chain.as_ref().unwrap();
        assert_eq!(*d, var(&p, "len"));
        let (one, n) = (SymExpr::int(1), SymExpr::var(var(&p, "n")));
        let env = ctx.range_env_at(consumer);
        assert!(evo.proves_offset_length(consumer, var(&p, "ptr"), var(&p, "len"), &one, &n, env));
        assert!(evo.proves_injective(consumer, var(&p, "ptr"), &one, &n, env));
    }

    #[test]
    fn histogram_prefix_sum_is_nondecreasing_not_strict() {
        // The satellite-3 shape: lengths come from a histogram, so
        // they are only >= 0 (an all-empty histogram is legal) — the
        // prefix sum must NOT claim strict monotonicity/injectivity.
        let (p, loops) = analyze(
            "program t
             integer i, k, n, nnz, len(8), ptr(9), seg(16)
             real x(16)
             n = 8
             nnz = 16
             do i = 1, n
               len(i) = 0
             enddo
             do k = 1, nnz
               len(seg(k)) = len(seg(k)) + 1
             enddo
             ptr(1) = 1
             do i = 1, n
               ptr(i + 1) = ptr(i) + len(i)
             enddo
             do 100 i = 1, n
               x(ptr(i)) = 0.0
         100 continue
             end",
        );
        let ctx = AnalysisCtx::new(&p);
        let evo = EvolutionAnalysis::new(&ctx);
        let consumer = *loops.last().unwrap();
        let facts = evo.facts_at(consumer).unwrap();
        let pf = &facts[&var(&p, "ptr")];
        assert_eq!(pf.monotone, Monotonicity::NonDecreasing);
        assert!(!pf.injective);
        assert!(pf.chain.is_some());
        let lf = &facts[&var(&p, "len")];
        assert!(lf.nonneg && !lf.positive);
        let (one, n) = (SymExpr::int(1), SymExpr::var(var(&p, "n")));
        let env = ctx.range_env_at(consumer);
        assert!(evo.proves_offset_length(consumer, var(&p, "ptr"), var(&p, "len"), &one, &n, env));
        assert!(!evo.proves_injective(consumer, var(&p, "ptr"), &one, &n, env));
    }

    #[test]
    fn affine_reversal_fill_is_injective() {
        // Constant bounds, as the driver's constant propagation leaves
        // them in the sparse kernels.
        let (p, loops) = analyze(
            "program t
             integer k, perm(16)
             real y(16)
             do k = 1, 16
               perm(k) = 17 - k
             enddo
             do 200 k = 1, 16
               y(perm(k)) = 1.0
         200 continue
             end",
        );
        let ctx = AnalysisCtx::new(&p);
        let evo = EvolutionAnalysis::new(&ctx);
        let consumer = *loops.last().unwrap();
        let f = &evo.facts_at(consumer).unwrap()[&var(&p, "perm")];
        assert!(f.injective);
        assert!(f.positive, "values run 16 down to 1");
        let (one, nnz) = (SymExpr::int(1), SymExpr::int(16));
        let env = ctx.range_env_at(consumer);
        assert!(evo.proves_injective(consumer, var(&p, "perm"), &one, &nnz, env));
    }

    #[test]
    fn zero_trip_producer_still_discharges_vacuous_ranges() {
        let (p, loops) = analyze(
            "program t
             integer i, perm(8)
             real y(8)
             do i = 1, 0
               perm(i) = i
             enddo
             do 100 i = 1, 0
               y(perm(i)) = 1.0
         100 continue
             end",
        );
        let ctx = AnalysisCtx::new(&p);
        let evo = EvolutionAnalysis::new(&ctx);
        let consumer = *loops.last().unwrap();
        let env = ctx.range_env_at(consumer);
        let (one, zero) = (SymExpr::int(1), SymExpr::int(0));
        assert!(evo.proves_injective(consumer, var(&p, "perm"), &one, &zero, env));
    }

    #[test]
    fn rewriting_the_length_array_kills_the_chain() {
        let (p, loops) = analyze(
            "program t
             integer i, n, len(8), ptr(9)
             n = 8
             do i = 1, n
               len(i) = 1
             enddo
             do i = 1, n
               ptr(i + 1) = ptr(i) + len(i)
             enddo
             do i = 1, n
               len(i) = 2
             enddo
             do 100 i = 1, n
               len(i) = ptr(i)
         100 continue
             end",
        );
        let ctx = AnalysisCtx::new(&p);
        let evo = EvolutionAnalysis::new(&ctx);
        let consumer = *loops.last().unwrap();
        let (one, n) = (SymExpr::int(1), SymExpr::var(var(&p, "n")));
        let env = ctx.range_env_at(consumer);
        assert!(!evo.proves_offset_length(consumer, var(&p, "ptr"), var(&p, "len"), &one, &n, env));
    }

    #[test]
    fn assigning_a_range_scalar_kills_dependent_facts() {
        let (p, loops) = analyze(
            "program t
             integer k, nnz, perm(16)
             real y(16)
             nnz = 16
             do k = 1, nnz
               perm(k) = k
             enddo
             nnz = 8
             do 200 k = 1, nnz
               y(perm(k)) = 1.0
         200 continue
             end",
        );
        let ctx = AnalysisCtx::new(&p);
        let evo = EvolutionAnalysis::new(&ctx);
        let consumer = *loops.last().unwrap();
        let env = ctx.range_env_at(consumer);
        let (one, nnz) = (SymExpr::int(1), SymExpr::var(var(&p, "nnz")));
        assert!(!evo.proves_injective(consumer, var(&p, "perm"), &one, &nnz, env));
    }

    #[test]
    fn a_call_kills_everything_without_summaries() {
        let (p, loops) = analyze(UNRELATED_CALL_SRC);
        let ctx = AnalysisCtx::new(&p);
        let evo = EvolutionAnalysis::new(&ctx);
        let consumer = *loops.last().unwrap();
        let env = ctx.range_env_at(consumer);
        let (one, nnz) = (SymExpr::int(1), SymExpr::var(var(&p, "nnz")));
        assert!(!evo.proves_injective(consumer, var(&p, "perm"), &one, &nnz, env));
    }

    const UNRELATED_CALL_SRC: &str = "program t
             integer k, nnz, perm(16), other(4)
             real y(16)
             nnz = 16
             do k = 1, nnz
               perm(k) = k
             enddo
             call clobber
             do 200 k = 1, nnz
               y(perm(k)) = 1.0
         200 continue
             end
             subroutine clobber
             integer j, other(4)
             do j = 1, 4
               other(j) = 0
             enddo
             end";

    #[test]
    fn unrelated_call_preserves_facts_with_summaries() {
        // Satellite: the callee writes only `j` and `other`, neither of
        // which the `perm` fact depends on — with summaries the fact
        // survives the call and is tagged interprocedural.
        let (p, loops) = analyze(UNRELATED_CALL_SRC);
        let ctx = AnalysisCtx::new(&p);
        let sa = crate::summaries::SummaryAnalysis::new(&ctx);
        let evo = EvolutionAnalysis::with_summaries(&ctx, &sa);
        let consumer = *loops.last().unwrap();
        let env = ctx.range_env_at(consumer);
        let (one, nnz) = (SymExpr::int(1), SymExpr::var(var(&p, "nnz")));
        assert!(evo.proves_injective(consumer, var(&p, "perm"), &one, &nnz, env));
        assert!(evo.fact_interproc(consumer, var(&p, "perm")));
    }

    #[test]
    fn recursive_call_conservatively_kills_even_with_summaries() {
        let (p, loops) = analyze(
            "program t
             integer k, nnz, perm(16)
             real y(16)
             nnz = 16
             do k = 1, nnz
               perm(k) = k
             enddo
             call spin
             do 200 k = 1, nnz
               y(perm(k)) = 1.0
         200 continue
             end
             subroutine spin
             integer j
             j = j - 1
             if (j > 0) then
               call spin
             endif
             end",
        );
        let ctx = AnalysisCtx::new(&p);
        let sa = crate::summaries::SummaryAnalysis::new(&ctx);
        assert!(sa.summary(irr_frontend::ProcId(1)).opaque);
        let evo = EvolutionAnalysis::with_summaries(&ctx, &sa);
        let consumer = *loops.last().unwrap();
        let env = ctx.range_env_at(consumer);
        let (one, nnz) = (SymExpr::int(1), SymExpr::var(var(&p, "nnz")));
        assert!(!evo.proves_injective(consumer, var(&p, "perm"), &one, &nnz, env));
    }

    #[test]
    fn zero_trip_producer_inside_a_callee() {
        // The callee's producer loop never runs; its fact covers the
        // empty range [1, 0]. A vacuous consumer range still passes
        // (the inspector would too), a real range must not.
        let (p, loops) = analyze(
            "program t
             integer k, perm(8)
             real y(8)
             call zt
             do 200 k = 1, 0
               y(perm(k)) = 1.0
         200 continue
             end
             subroutine zt
             integer i, perm(8)
             do i = 1, 0
               perm(i) = i
             enddo
             end",
        );
        let ctx = AnalysisCtx::new(&p);
        let sa = crate::summaries::SummaryAnalysis::new(&ctx);
        let evo = EvolutionAnalysis::with_summaries(&ctx, &sa);
        let consumer = *loops.last().unwrap();
        let env = ctx.range_env_at(consumer);
        let (one, zero, eight) = (SymExpr::int(1), SymExpr::int(0), SymExpr::int(8));
        assert!(evo.proves_injective(consumer, var(&p, "perm"), &one, &zero, env));
        assert!(!evo.proves_injective(consumer, var(&p, "perm"), &one, &eight, env));
    }

    #[test]
    fn call_structured_producer_chain_promotes_only_with_summaries() {
        // The whole producer chain lives in a subroutine; the consumer
        // stays in the caller. Without summaries the call clobbers the
        // chain fact; with summaries the offset–length inspection is
        // discharged across the call.
        let (p, loops) = analyze(
            "program t
             integer i, n, len(8), ptr(9)
             real x(16)
             n = 8
             call build
             do 400 i = 1, n
               x(ptr(i)) = 0.0
         400 continue
             end
             subroutine build
             integer i, n, len(8), ptr(9)
             do i = 1, n
               len(i) = 1
             enddo
             ptr(1) = 1
             do i = 1, n
               ptr(i + 1) = ptr(i) + len(i)
             enddo
             end",
        );
        let ctx = AnalysisCtx::new(&p);
        let consumer = *loops.last().unwrap();
        let (one, n) = (SymExpr::int(1), SymExpr::var(var(&p, "n")));
        let env = ctx.range_env_at(consumer);
        let (ptr, len) = (var(&p, "ptr"), var(&p, "len"));

        let cold = EvolutionAnalysis::new(&ctx);
        assert!(!cold.proves_offset_length(consumer, ptr, len, &one, &n, env));

        let sa = crate::summaries::SummaryAnalysis::new(&ctx);
        let evo = EvolutionAnalysis::with_summaries(&ctx, &sa);
        assert!(evo.proves_offset_length(consumer, ptr, len, &one, &n, env));
        assert!(evo.proves_injective(consumer, ptr, &one, &n, env));
        assert!(evo.fact_interproc(consumer, ptr));
    }
}
