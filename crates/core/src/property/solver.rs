//! The demand-driven query solver (§3.2, Figs. 5–12).
//!
//! A query `(node, section)` asks whether the index array's elements in
//! `section` have the property when control reaches the point *after*
//! `node`. The solver propagates the query **backwards** over the HCG:
//!
//! - [`QuerySolver`](ArrayPropertyAnalysis::check) — a priority worklist
//!   in reverse topological order with early termination (Fig. 5);
//! - per-node reverse propagation computes `(Kill, Gen)` and the
//!   *remaining* section (Fig. 6);
//! - whole sections (loop bodies, procedure bodies) are summarized
//!   backwards with a MUST-intersecting worklist (Fig. 9,
//!   `SummarizeProgSection`);
//! - queries crossing a loop header from inside aggregate the effect of
//!   the preceding iterations (Fig. 10);
//! - a `call` node recursively solves inside the callee (Fig. 11), and a
//!   procedure entry splits the query to every call site (Fig. 12).

use crate::budget::AnalysisBudget;
use crate::ctx::AnalysisCtx;
use crate::property::{checkers::PropertyChecker, Property, PropertyQuery, ITER_VAR};
use crate::summaries::{section_mentions_array, SummaryAnalysis};
use irr_frontend::{FxHashMap, LValue, ProcId, StmtId, StmtKind, VarId};
use irr_graph::{HcgNodeId, HcgNodeKind, SectionId, SectionKind};
use irr_symbolic::{expr_to_sym, AggMode, RangeEnv, Section, SymExpr};

/// Tunable solver behavior (the ablation knobs of DESIGN.md §6).
#[derive(Clone, Copy, Debug)]
pub struct SolverOptions {
    /// Terminate the whole query as soon as any element is killed
    /// (Fig. 5 line 11). Disabling only costs time, never changes the
    /// answer.
    pub early_termination: bool,
    /// Order the worklist in reverse topological order (§3.2.2). With
    /// `false` a FIFO queue is used, which may process nodes several
    /// times.
    pub rtop_priority: bool,
    /// Allow queries to cross procedure boundaries (Figs. 11–12). The
    /// Fig. 15(a) phase organization — analyses running per program unit
    /// — corresponds to `false`.
    pub interprocedural: bool,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            early_termination: true,
            rtop_priority: true,
            interprocedural: true,
        }
    }
}

/// Counters describing the work a solver instance performed.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryStats {
    /// Queries checked.
    pub queries: u64,
    /// Worklist pops across all section solves.
    pub nodes_visited: u64,
    /// Statement/loop summarizations performed.
    pub summarizations: u64,
    /// Early terminations taken.
    pub early_terminations: u64,
    /// Wall-clock time spent answering queries.
    pub total_time: std::time::Duration,
}

/// The property analysis engine. One instance caches section and loop
/// summaries across queries (the "independent tool invoked on demand" of
/// §5.1.3).
pub struct ArrayPropertyAnalysis<'c, 'p> {
    ctx: &'c AnalysisCtx<'p>,
    opts: SolverOptions,
    /// Per-routine MOD/REF summaries: when present, a query reaching a
    /// `call` node may step over it instead of recursively solving (or
    /// failing on recursion), whenever the summary proves the callee
    /// leaves the queried elements and the query bounds untouched.
    summaries: Option<&'c SummaryAnalysis>,
    /// Cooperative resource meter: when it runs dry, every in-flight and
    /// subsequent query answers "could not be verified" (which is always
    /// sound — see `budget`'s module docs).
    budget: Option<&'c AnalysisBudget>,
    /// `(loop stmt, array, property) -> (Kill, Gen)`.
    loop_cache: FxHashMap<(StmtId, VarId, Property), (Section, Section)>,
    /// `(section, array, property) -> (Kill, Gen)`.
    section_cache: FxHashMap<(SectionId, VarId, Property), (Section, Section)>,
    /// Statistics.
    pub stats: QueryStats,
}

/// Result of solving within one section.
enum SectionOutcome {
    /// Some queried element was (possibly) killed: answer is false.
    Killed,
    /// Every queried element was verified inside the section.
    Resolved,
    /// Part of the query survived to the section entry.
    ReachedEntry(Section),
}

impl<'c, 'p> ArrayPropertyAnalysis<'c, 'p> {
    /// Creates an engine with default options.
    pub fn new(ctx: &'c AnalysisCtx<'p>) -> Self {
        Self::with_options(ctx, SolverOptions::default())
    }

    /// Creates an engine with explicit options.
    pub fn with_options(ctx: &'c AnalysisCtx<'p>, opts: SolverOptions) -> Self {
        ArrayPropertyAnalysis {
            ctx,
            opts,
            summaries: None,
            budget: None,
            loop_cache: FxHashMap::default(),
            section_cache: FxHashMap::default(),
            stats: QueryStats::default(),
        }
    }

    /// Supplies per-routine summaries for stepping over calls. Must be
    /// set before the first query: the summary-aware answers share the
    /// section caches.
    pub fn set_summaries(&mut self, summaries: &'c SummaryAnalysis) {
        self.summaries = Some(summaries);
    }

    /// Meters this engine's worklists against `budget`. Once the meter
    /// runs dry the engine keeps answering, but always conservatively
    /// ("could not be verified").
    pub fn set_budget(&mut self, budget: &'c AnalysisBudget) {
        self.budget = Some(budget);
    }

    /// One unit of worklist work; `false` means the meter is dry and the
    /// caller must bail conservatively.
    fn tick(&self) -> bool {
        self.budget.is_none_or(|b| b.spend(1))
    }

    /// Whether the summary of `callee` proves a query on `chk.array`
    /// with bounds material in `set` passes through the call unchanged:
    /// the callee must not write the queried elements (whole array
    /// untouched, or MOD section provably disjoint) nor anything the
    /// query bounds mention (which would make the bounds denote
    /// pre-call values).
    fn summary_passes_call(&self, chk: &PropertyChecker, callee: ProcId, set: &Section) -> bool {
        let Some(sum) = self.summaries.map(|sa| sa.summary(callee)) else {
            return false;
        };
        if sum.opaque || sum.mod_scalars.iter().any(|&v| set.mentions_var(v)) {
            return false;
        }
        if sum
            .mod_arrays
            .iter()
            .any(|&a| section_mentions_array(set, a))
        {
            return false;
        }
        !sum.may_write_array(chk.array)
            || sum
                .mod_section(chk.array)
                .provably_disjoint(set, &RangeEnv::new())
    }

    /// Answers a property query: `true` means *verified*; `false` means
    /// "could not be verified" (never "disproved").
    pub fn check(&mut self, query: &PropertyQuery) -> bool {
        let start = std::time::Instant::now();
        self.stats.queries += 1;
        let result = (|| {
            if query.section.is_empty() {
                return true;
            }
            if self.budget.is_some_and(|b| b.exhausted().is_some()) {
                return false; // dry meter: unverified, not disproved
            }
            let Some(node) = self.ctx.hcg().node_of_stmt(query.at_stmt) else {
                return false;
            };
            let chk = PropertyChecker::new(query.array, query.property.clone());
            let mut visited_procs = Vec::new();
            self.resolve_upward(
                &chk,
                vec![(node, query.section.clone())],
                &mut visited_procs,
            )
        })();
        self.stats.total_time += start.elapsed();
        result
    }

    /// Propagates a query frontier upwards through nested sections until
    /// it is resolved, killed, or splits across call sites.
    fn resolve_upward(
        &mut self,
        chk: &PropertyChecker,
        frontier: Vec<(HcgNodeId, Section)>,
        visited_procs: &mut Vec<ProcId>,
    ) -> bool {
        let mut frontier = frontier;
        loop {
            if frontier.is_empty() {
                return true;
            }
            let sec = self.ctx.hcg().section_of(frontier[0].0);
            debug_assert!(frontier
                .iter()
                .all(|(n, _)| self.ctx.hcg().section_of(*n) == sec));
            match self.solve_section(chk, sec, frontier, visited_procs) {
                SectionOutcome::Killed => return false,
                SectionOutcome::Resolved => return true,
                SectionOutcome::ReachedEntry(remaining) => {
                    match self.ctx.hcg().section(sec).kind {
                        SectionKind::LoopBody(loop_stmt) => {
                            // Case 2 (Fig. 10): account for the preceding
                            // iterations, then continue above the loop.
                            let Some(rem) =
                                self.loop_header_case(chk, loop_stmt, &remaining, visited_procs)
                            else {
                                return false;
                            };
                            if rem.is_empty() {
                                return true;
                            }
                            let Some(loop_node) = self.ctx.hcg().node_of_stmt(loop_stmt) else {
                                return false;
                            };
                            frontier = self
                                .ctx
                                .hcg()
                                .preds(loop_node)
                                .iter()
                                .map(|p| (*p, rem.clone()))
                                .collect();
                        }
                        SectionKind::ProcBody(pid) => {
                            let env = RangeEnv::new();
                            if remaining.provably_empty(&env) {
                                return true;
                            }
                            if self.ctx.program.procedures[pid.index()].is_main {
                                // Fig. 12: at the program entry with a
                                // non-empty query the answer is false.
                                return false;
                            }
                            // Query splitting (Fig. 12): every call site
                            // must verify the remaining query.
                            if !self.opts.interprocedural {
                                return false;
                            }
                            if visited_procs.contains(&pid) {
                                return false; // recursion: give up
                            }
                            visited_procs.push(pid);
                            let sites: Vec<HcgNodeId> = self.ctx.hcg().call_sites(pid).to_vec();
                            if sites.is_empty() {
                                return false; // unreachable procedure
                            }
                            for site in sites {
                                let preds: Vec<(HcgNodeId, Section)> = self
                                    .ctx
                                    .hcg()
                                    .preds(site)
                                    .iter()
                                    .map(|p| (*p, remaining.clone()))
                                    .collect();
                                if !self.resolve_upward(chk, preds, visited_procs) {
                                    visited_procs.pop();
                                    return false;
                                }
                            }
                            visited_procs.pop();
                            return true;
                        }
                    }
                }
            }
        }
    }

    /// Fig. 5's `QuerySolver` restricted to one section: pops queries in
    /// reverse topological order, summarizes each node (Fig. 6), and
    /// propagates the remaining section to predecessors.
    fn solve_section(
        &mut self,
        chk: &PropertyChecker,
        sec: SectionId,
        init: Vec<(HcgNodeId, Section)>,
        visited_procs: &mut Vec<ProcId>,
    ) -> SectionOutcome {
        let hcg = self.ctx.hcg();
        let entry = hcg.section(sec).entry;
        let env_base = self.section_env(sec);
        // Worklist: node -> pending query section; ordering per options.
        let mut pending: FxHashMap<HcgNodeId, Section> = FxHashMap::default();
        let mut fifo: std::collections::VecDeque<HcgNodeId> = Default::default();
        let mut visits: FxHashMap<HcgNodeId, u32> = FxHashMap::default();
        for (n, s) in init {
            match pending.entry(n) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let merged = e.get().union_may(&s, env_base);
                    e.insert(merged);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(s);
                    fifo.push_back(n);
                }
            }
        }
        let mut entry_remaining = Section::Empty;
        let mut killed = false;
        while !pending.is_empty() {
            // Pop: max topological index (reverse topological) or FIFO.
            let n = if self.opts.rtop_priority {
                *pending
                    .keys()
                    .max_by_key(|n| hcg.topo_index(**n))
                    .expect("pending nonempty")
            } else {
                loop {
                    let cand = fifo.pop_front().expect("fifo tracks pending");
                    if pending.contains_key(&cand) {
                        break cand;
                    }
                }
            };
            let set = pending.remove(&n).expect("popped key");
            self.stats.nodes_visited += 1;
            if !self.tick() {
                killed = true; // out of budget: report unverified
                break;
            }
            let vcount = visits.entry(n).or_insert(0);
            *vcount += 1;
            if *vcount > 8 {
                // FIFO mode can revisit; bound the work conservatively.
                killed = true;
                break;
            }
            if set.is_empty() {
                continue;
            }
            if n == entry {
                entry_remaining = entry_remaining.union_may(&set, env_base);
                continue;
            }
            let outcome = self.propagate_through(chk, n, &set, env_base, visited_procs);
            let remaining = match outcome {
                Ok(r) => r,
                Err(()) => {
                    killed = true;
                    if self.opts.early_termination {
                        self.stats.early_terminations += 1;
                        break;
                    }
                    continue;
                }
            };
            if remaining.is_empty() {
                continue;
            }
            for &m in hcg.preds(n) {
                match pending.entry(m) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let merged = e.get().union_may(&remaining, env_base);
                        e.insert(merged);
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(remaining.clone());
                        fifo.push_back(m);
                    }
                }
            }
        }
        if killed {
            SectionOutcome::Killed
        } else if entry_remaining.is_empty() {
            SectionOutcome::Resolved
        } else {
            SectionOutcome::ReachedEntry(entry_remaining)
        }
    }

    /// Fig. 6: the effect of one node on a query. `Ok(remaining)` or
    /// `Err(())` when the property may be killed / cannot be tracked.
    fn propagate_through(
        &mut self,
        chk: &PropertyChecker,
        n: HcgNodeId,
        set: &Section,
        env: &RangeEnv,
        visited_procs: &mut Vec<ProcId>,
    ) -> Result<Section, ()> {
        match self.ctx.hcg().kind(n) {
            HcgNodeKind::Entry(_) => Ok(set.clone()),
            HcgNodeKind::Exit(_) | HcgNodeKind::Join(_) | HcgNodeKind::Branch(_) => Ok(set.clone()),
            HcgNodeKind::Simple(stmt) => {
                self.stats.summarizations += 1;
                let (kill, gen) = chk.summarize_stmt(self.ctx, stmt);
                let stmt_env = self.ctx.range_env_at(stmt);
                // Gen wins over Kill for the same element (Gen is the
                // MUST state at the node's exit), so subtract it first.
                let remaining = self.apply_gen(chk, set, &gen, stmt_env)?;
                if !kill.provably_disjoint(&remaining, stmt_env) {
                    return Err(());
                }
                // Backward renaming: a scalar in the query bounds that is
                // assigned here must be rewritten in terms of the
                // pre-state.
                self.rename_backward(stmt, &remaining)
            }
            HcgNodeKind::Call { callee, .. } => {
                // Summary bypass (Bhosale & Eigenmann): when the callee
                // provably leaves the queried elements alone, the query
                // steps over the call — notably rescuing recursive call
                // chains and `interprocedural = false` runs, which
                // otherwise fail here.
                if self.summary_passes_call(chk, callee, set) {
                    return Ok(set.clone());
                }
                if !self.opts.interprocedural || visited_procs.contains(&callee) {
                    return Err(());
                }
                visited_procs.push(callee);
                let callee_sec = self.ctx.hcg().proc_section(callee);
                let callee_exit = self.ctx.hcg().section(callee_sec).exit;
                let out = self.solve_section(
                    chk,
                    callee_sec,
                    vec![(callee_exit, set.clone())],
                    visited_procs,
                );
                visited_procs.pop();
                match out {
                    SectionOutcome::Killed => Err(()),
                    SectionOutcome::Resolved => Ok(Section::Empty),
                    SectionOutcome::ReachedEntry(rem) => Ok(rem),
                }
            }
            HcgNodeKind::Loop { stmt, .. } => {
                // Summarization recursion is guarded independently of the
                // query-splitting ancestry: a query that *originated*
                // inside a procedure may still need that procedure's
                // effects summarized.
                let mut sum_guard = Vec::new();
                let (kill, gen) = self.summarize_loop(chk, stmt, &mut sum_guard);
                let env2 = env.clone();
                let remaining = self.apply_gen(chk, set, &gen, &env2)?;
                if !kill.provably_disjoint(&remaining, &env2) {
                    return Err(());
                }
                // Bounds that depend on scalars recomputed inside the
                // loop cannot be tracked across it — unless the loop's
                // Gen already resolved them.
                if !remaining.is_empty() {
                    let loop_var = match &self.ctx.program.stmt(stmt).kind {
                        StmtKind::Do { var, .. } => Some(*var),
                        _ => None,
                    };
                    for &v in &self.ctx.loop_table(stmt).assigned_scalars {
                        if Some(v) != loop_var && remaining.mentions_var(v) {
                            return Err(());
                        }
                    }
                }
                Ok(remaining)
            }
        }
    }

    /// Subtracts a Gen from a query section, honoring the
    /// full-coverage requirement of set-global properties.
    fn apply_gen(
        &self,
        chk: &PropertyChecker,
        set: &Section,
        gen: &Section,
        env: &RangeEnv,
    ) -> Result<Section, ()> {
        if gen.is_empty() {
            return Ok(set.clone());
        }
        if chk.property.requires_full_coverage() {
            if gen.provably_contains(set, env) {
                return Ok(Section::Empty);
            }
            if gen.provably_disjoint(set, env) {
                return Ok(set.clone());
            }
            // Partial overlap mixes definition sites: unsound to split.
            return Err(());
        }
        Ok(set.subtract_under(gen, env))
    }

    /// Rewrites query bounds across a scalar assignment (backwards).
    fn rename_backward(&self, stmt: StmtId, set: &Section) -> Result<Section, ()> {
        if set.is_empty() {
            return Ok(set.clone());
        }
        if let Some((LValue::Scalar(v), rhs)) = self.ctx.assign_parts(stmt) {
            if set.mentions_var(*v) {
                return match expr_to_sym(rhs) {
                    Some(r) => Ok(set.subst(*v, &r)),
                    None => Err(()),
                };
            }
        }
        Ok(set.clone())
    }

    /// Case 2 of the node classes (Fig. 10): a query arriving at a loop
    /// header from *inside* iteration `I`. The preceding iterations'
    /// Kill must not touch the query; their Gen is subtracted; what is
    /// left is aggregated over all iterations and handed to the loop's
    /// predecessors.
    fn loop_header_case(
        &mut self,
        chk: &PropertyChecker,
        loop_stmt: StmtId,
        set: &Section,
        _visited_procs: &mut Vec<ProcId>,
    ) -> Option<Section> {
        let body_sec = self.ctx.hcg().loop_section(loop_stmt)?;
        let mut sum_guard = Vec::new();
        let (kill_b, gen_b) = self.summarize_section(chk, body_sec, &mut sum_guard);
        match self.ctx.do_bounds_sym(loop_stmt) {
            Some((var, lo, hi)) => {
                let mut env = self.ctx.range_env_at(loop_stmt).clone();
                env.set_var_range(var, lo.clone(), hi.clone());
                let prev_hi = SymExpr::var(var).sub(&SymExpr::int(1));
                // Aggregate earlier iterations (j in [lo, i-1]) with a
                // placeholder for j.
                let kill_earlier = kill_b.subst(var, &SymExpr::var(ITER_VAR)).aggregate(
                    ITER_VAR,
                    &lo,
                    &prev_hi,
                    &env,
                    AggMode::May,
                );
                // Fig. 10 line 4: earlier iterations must not kill any
                // queried element. (Checking against the full set — not
                // the post-Gen remainder — is required here: a Gen from
                // iteration j may itself be killed by an iteration
                // between j and the current one.)
                if !kill_earlier.provably_disjoint(set, &env) {
                    return None;
                }
                let gen_earlier = gen_b.subst(var, &SymExpr::var(ITER_VAR)).aggregate(
                    ITER_VAR,
                    &lo,
                    &prev_hi,
                    &env,
                    AggMode::Must,
                );
                let rem_i = self.apply_gen(chk, set, &gen_earlier, &env).ok()?;
                // The query for the loop's predecessors covers all
                // iterations.
                let rem = rem_i.aggregate(var, &lo, &hi, &env, AggMode::May);
                // Scalars assigned in the body make the bounds untrackable.
                for &v in &self.ctx.loop_table(loop_stmt).assigned_scalars {
                    if v != var && rem.mentions_var(v) {
                        return None;
                    }
                }
                Some(rem)
            }
            None => {
                // While loop: previous iterations may kill anything they
                // write; require the body to be kill-free, and take no
                // credit for its Gen.
                let env = self.ctx.range_env_at(loop_stmt);
                if !kill_b.is_empty() && !kill_b.provably_empty(env) {
                    return None;
                }
                let _ = gen_b;
                // The query bounds must survive the body's scalar
                // assignments.
                if matches!(
                    self.ctx.program.stmt(loop_stmt).kind,
                    StmtKind::While { .. }
                ) {
                    for &v in &self.ctx.loop_table(loop_stmt).assigned_scalars {
                        if set.mentions_var(v) {
                            return None;
                        }
                    }
                }
                Some(set.clone())
            }
        }
    }

    /// Case 1: the aggregate `(Kill, Gen)` of executing a whole loop
    /// (§3.2.5), with the checker's whole-loop patterns tried first.
    fn summarize_loop(
        &mut self,
        chk: &PropertyChecker,
        loop_stmt: StmtId,
        visited_procs: &mut Vec<ProcId>,
    ) -> (Section, Section) {
        let key = (loop_stmt, chk.array, chk.property.clone());
        if let Some(hit) = self.loop_cache.get(&key) {
            return hit.clone();
        }
        self.stats.summarizations += 1;
        let result = self.summarize_loop_uncached(chk, loop_stmt, visited_procs);
        self.loop_cache.insert(key, result.clone());
        result
    }

    fn summarize_loop_uncached(
        &mut self,
        chk: &PropertyChecker,
        loop_stmt: StmtId,
        visited_procs: &mut Vec<ProcId>,
    ) -> (Section, Section) {
        if let Some(pat) = chk.summarize_loop(self.ctx, loop_stmt) {
            return pat;
        }
        let Some(body_sec) = self.ctx.hcg().loop_section(loop_stmt) else {
            return (Section::Universal, Section::Empty);
        };
        let (kill_b, gen_b) = self.summarize_section(chk, body_sec, visited_procs);
        let assigned = &self.ctx.loop_table(loop_stmt).assigned_scalars;
        match self.ctx.do_bounds_sym(loop_stmt) {
            Some((var, lo, hi)) => {
                let env = self.ctx.range_env_at(loop_stmt);
                let kill_stale = assigned
                    .iter()
                    .any(|v| *v != var && kill_b.mentions_var(*v));
                let kill = if kill_stale {
                    Section::Universal
                } else {
                    kill_b.aggregate(var, &lo, &hi, env, AggMode::May)
                };
                let gen_stale = assigned.iter().any(|v| *v != var && gen_b.mentions_var(*v));
                let gen = if gen_stale || gen_b.is_empty() {
                    Section::Empty
                } else {
                    // Gen_i survives only if not killed by later
                    // iterations (the Aggregate formula of §3.2.5).
                    let mut iter_env = env.clone();
                    iter_env.set_var_range(var, lo.clone(), hi.clone());
                    let next_lo = SymExpr::var(var).add(&SymExpr::int(1));
                    let kill_later = kill_b.subst(var, &SymExpr::var(ITER_VAR)).aggregate(
                        ITER_VAR,
                        &next_lo,
                        &hi,
                        &iter_env,
                        AggMode::May,
                    );
                    let gen_i = gen_b.subtract_may(&kill_later, &iter_env);
                    gen_i.aggregate(var, &lo, &hi, env, AggMode::Must)
                };
                (kill, gen)
            }
            None => {
                // While loop (or non-unit step): unknown trip count.
                let env = self.ctx.range_env_at(loop_stmt);
                let kill = if kill_b.is_empty() || kill_b.provably_empty(env) {
                    Section::Empty
                } else {
                    Section::Universal
                };
                (kill, Section::Empty)
            }
        }
    }

    /// Fig. 9, `SummarizeProgSection`: backward `(Kill, Gen)`
    /// summarization of a section, with MUST-intersection at merges and
    /// early termination when Kill saturates.
    fn summarize_section(
        &mut self,
        chk: &PropertyChecker,
        sec: SectionId,
        visited_procs: &mut Vec<ProcId>,
    ) -> (Section, Section) {
        let key = (sec, chk.array, chk.property.clone());
        if let Some(hit) = self.section_cache.get(&key) {
            return hit.clone();
        }
        let result = self.summarize_section_uncached(chk, sec, visited_procs);
        self.section_cache.insert(key, result.clone());
        result
    }

    fn summarize_section_uncached(
        &mut self,
        chk: &PropertyChecker,
        sec: SectionId,
        visited_procs: &mut Vec<ProcId>,
    ) -> (Section, Section) {
        let hcg = self.ctx.hcg();
        let info = hcg.section(sec);
        let (entry, exit) = (info.entry, info.exit);
        let env = self.section_env(sec);
        let mut pending: FxHashMap<HcgNodeId, Section> = FxHashMap::default();
        pending.insert(exit, Section::Empty);
        let mut kill_acc = Section::Empty;
        // MUST-gen of nodes dominating the exit, used if we terminate
        // early (Fig. 9 line 20).
        let mut gen_dom = Section::Empty;
        let mut final_gen: Option<Section> = None;
        while !pending.is_empty() {
            let n = *pending
                .keys()
                .max_by_key(|n| hcg.topo_index(**n))
                .expect("pending nonempty");
            let gen_t = pending.remove(&n).expect("popped key");
            self.stats.nodes_visited += 1;
            if !self.tick() {
                // Out of budget: "may kill everything, generates nothing"
                // is the top of the summary lattice.
                return (Section::Universal, Section::Empty);
            }
            if n == entry {
                final_gen = Some(gen_t);
                break;
            }
            let (kill, gen) = match hcg.kind(n) {
                HcgNodeKind::Simple(stmt) => {
                    self.stats.summarizations += 1;
                    chk.summarize_stmt(self.ctx, stmt)
                }
                HcgNodeKind::Loop { stmt, .. } => self.summarize_loop(chk, stmt, visited_procs),
                HcgNodeKind::Call { callee, .. } => {
                    // SummarizeProcedure: the callee body's summary. A
                    // MOD/REF summary proving the callee never writes the
                    // array gives `(Kill, Gen) = (Empty, Empty)` without
                    // descending (and regardless of recursion).
                    if self
                        .summaries
                        .is_some_and(|sa| !sa.summary(callee).may_write_array(chk.array))
                    {
                        (Section::Empty, Section::Empty)
                    } else if !self.opts.interprocedural || visited_procs.contains(&callee) {
                        (Section::Universal, Section::Empty)
                    } else {
                        visited_procs.push(callee);
                        let callee_sec = hcg.proc_section(callee);
                        let r = self.summarize_section(chk, callee_sec, visited_procs);
                        visited_procs.pop();
                        r
                    }
                }
                _ => (Section::Empty, Section::Empty),
            };
            if kill.is_universal() && self.opts.early_termination {
                self.stats.early_terminations += 1;
                kill_acc = Section::Universal;
                final_gen = Some(gen_dom.clone());
                break;
            }
            // Kill at exit excludes elements re-generated afterwards.
            let kill_after = kill_acc.clone();
            kill_acc = kill_acc.union_may(&kill.subtract_under(&gen_t, env), env);
            // Gen of n survives to the exit if not killed later.
            let gen_surviving = gen.subtract_may(&kill_after, env);
            if hcg.dominates_exit(n) {
                gen_dom = gen_dom.union_must(&gen_surviving, env);
            }
            let mut new_gen = gen_t.union_must(&gen_surviving, env);
            // Backward renaming across scalar assignments.
            if let HcgNodeKind::Simple(stmt) = hcg.kind(n) {
                if let Some((LValue::Scalar(v), rhs)) = self.ctx.assign_parts(stmt) {
                    if new_gen.mentions_var(*v) {
                        new_gen = match expr_to_sym(rhs) {
                            Some(r) => new_gen.subst(*v, &r),
                            None => Section::Empty,
                        };
                    }
                    if kill_acc.mentions_var(*v) {
                        kill_acc = match expr_to_sym(rhs) {
                            Some(r) => kill_acc.subst(*v, &r),
                            None => Section::Universal,
                        };
                    }
                }
            }
            for &m in hcg.preds(n) {
                match pending.entry(m) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let merged = e.get().intersect_must(&new_gen, env);
                        e.insert(merged);
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(new_gen.clone());
                    }
                }
            }
        }
        (kill_acc, final_gen.unwrap_or(gen_dom))
    }

    /// The base range environment of a section: the enclosing loops'
    /// variable ranges.
    fn section_env(&self, sec: SectionId) -> &'c RangeEnv {
        match self.ctx.hcg().section(sec).kind {
            SectionKind::LoopBody(stmt) => self.ctx.range_env_at(stmt),
            SectionKind::ProcBody(_) => self.ctx.no_ranges(),
        }
    }
}

// The tests for the solver exercise whole-program scenarios and live in
// `crates/core/tests/property_analysis.rs`.
