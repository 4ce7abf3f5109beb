//! The parallelizing-compiler driver: Fig. 15's phase pipeline plus
//! per-loop parallelization verdicts.
//!
//! Three configurations reproduce the paper's comparisons (Fig. 16):
//!
//! - **Polaris + IAA** — the full pipeline with the irregular array
//!   access analyses enabled (the paper's contribution);
//! - **Polaris** — the same pipeline with IAA disabled (traditional
//!   privatization and dependence tests only);
//! - **APO** — an SGI-`-apo`-like baseline: no inlining, no
//!   interprocedural analysis, affine tests only.
//!
//! The phase *organization* is also selectable (Fig. 15(a) vs (b)): the
//! "original" per-unit organization restricts the array property
//! analysis to intraprocedural queries, which is exactly why the paper
//! reorganizes the pipeline.

pub mod compiled;
pub mod emit;
pub mod ladder;
pub mod strategy;

pub use compiled::{derive_compiled_plan, CompiledPlan};
pub use emit::emit_annotated;
pub use irr_deptest::ResidualCheck;
pub use irr_passes::ReductionOp;
pub use ladder::DegradeLevel;
pub use strategy::{
    derive_concat_shape, derive_in_place_facts, InPlaceTarget, StrategyFacts, WriteShape,
};

use irr_core::property::{ArrayPropertyAnalysis, SolverOptions};
use irr_core::{AnalysisBudget, AnalysisCtx, EvolutionAnalysis};
use irr_deptest::DependenceTester;
use irr_frontend::{parse_program, LValue, ParseError, ProcId, Program, StmtId, StmtKind, VarId};
use irr_passes::{
    eliminate_dead_code, forward_substitute, inline_small_procedures, normalize_loops,
    propagate_constants, recognize_reductions, substitute_induction_variables,
};
use irr_privatize::Privatizer;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Phase organization (Fig. 15).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PhaseOrder {
    /// Fig. 15(a): per-unit transformation and analysis — the array
    /// property analysis cannot cross procedure boundaries.
    Original,
    /// Fig. 15(b): all units are normalized before any analysis runs —
    /// interprocedural queries work.
    Reorganized,
}

/// Driver configuration.
#[derive(Clone, Copy, Debug)]
pub struct DriverOptions {
    /// Enable the irregular array access analyses (§2–§4).
    pub enable_iaa: bool,
    /// APO-like baseline: no inlining, intraprocedural only, no IAA.
    pub baseline_apo: bool,
    /// Phase organization.
    pub phase_order: PhaseOrder,
    /// Inlining threshold in statements (Polaris default: 50 lines).
    pub inline_limit: usize,
    /// Compute per-routine property summaries and use them to carry
    /// evolution facts and property queries across non-inlined calls.
    /// Has no effect under `baseline_apo` or with IAA disabled.
    pub enable_summaries: bool,
    /// Run the value-evolution walk over producer loops and use its
    /// facts to retire residual checks. Disabling it (the ladder's
    /// evolution-off rung) keeps every verdict sound: loops that would
    /// have been promoted stay runtime-guarded instead.
    pub enable_evolution: bool,
}

impl Default for DriverOptions {
    fn default() -> Self {
        DriverOptions {
            enable_iaa: true,
            baseline_apo: false,
            phase_order: PhaseOrder::Reorganized,
            inline_limit: 50,
            enable_summaries: true,
            enable_evolution: true,
        }
    }
}

impl DriverOptions {
    /// The full configuration (Polaris + IAA).
    pub fn with_iaa() -> Self {
        DriverOptions::default()
    }

    /// Polaris without the irregular analyses.
    pub fn without_iaa() -> Self {
        DriverOptions {
            enable_iaa: false,
            ..DriverOptions::default()
        }
    }

    /// The APO-like baseline.
    pub fn apo() -> Self {
        DriverOptions {
            enable_iaa: false,
            baseline_apo: true,
            ..DriverOptions::default()
        }
    }

    /// Full IAA but no interprocedural summaries — the ablation that
    /// shows what the summary pass buys on call-structured kernels.
    pub fn without_summaries() -> Self {
        DriverOptions {
            enable_summaries: false,
            ..DriverOptions::default()
        }
    }

    /// Full IAA but no value-evolution walk (implies no summaries,
    /// since their payload is evolution facts crossing calls).
    pub fn without_evolution() -> Self {
        DriverOptions {
            enable_summaries: false,
            enable_evolution: false,
            ..DriverOptions::default()
        }
    }
}

/// The inspections a hybrid runtime must pass — against the live store,
/// with the loop's evaluated bounds — before this loop may legally run
/// in parallel. Every check corresponds to one property the compile-time
/// solver left unknown.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GuardPlan {
    /// One group per blocked array. The dependence tester emits every
    /// residual check that would *alone* establish that array's
    /// independence, so the groups compose as a conjunction of
    /// disjunctions: the loop may run parallel when, for every group,
    /// at least one of its checks passes. (Flattening the groups into
    /// a single all-must-pass list would be wrong: the tester's
    /// symmetric offset–length candidates include swapped `(len, ptr)`
    /// checks that legitimately fail while the `(ptr, len)` check
    /// passes.)
    pub groups: Vec<Vec<ResidualCheck>>,
}

impl GuardPlan {
    /// Every check across all groups, flattened — for display and for
    /// version-keying the arrays the inspectors read.
    pub fn all_checks(&self) -> impl Iterator<Item = &ResidualCheck> {
        self.groups.iter().flatten()
    }
}

/// How the executor should dispatch a loop — the three-tier outcome of
/// the hybrid compile-time/run-time strategy.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DispatchTier {
    /// Proven parallel at compile time: no run-time checks needed.
    CompileTimeParallel,
    /// Unknown at compile time, but every blocker reduces to a
    /// run-time-checkable property: inspect, then dispatch per result.
    RuntimeGuarded(GuardPlan),
    /// Proven or presumed sequential; no inspection can clear it.
    Sequential,
}

impl DispatchTier {
    /// The guard plan, when this tier is runtime-guarded.
    pub fn guard(&self) -> Option<&GuardPlan> {
        match self {
            DispatchTier::RuntimeGuarded(g) => Some(g),
            _ => None,
        }
    }
}

/// Why a loop was rejected or how each written array was cleared.
#[derive(Clone, Debug)]
pub struct LoopVerdict {
    /// The loop statement (in the *transformed* program).
    pub loop_stmt: StmtId,
    /// `PROC/do140`-style label.
    pub label: String,
    /// The procedure containing the loop.
    pub proc: ProcId,
    /// Whether the loop can be executed in parallel.
    pub parallel: bool,
    /// Arrays proven dependence-free, with the test used.
    pub independent_arrays: Vec<(VarId, &'static str)>,
    /// Arrays privatized, with the evidence tag.
    pub privatized_arrays: Vec<(VarId, &'static str)>,
    /// Scalars privatized.
    pub privatized_scalars: Vec<VarId>,
    /// Reduction scalars with their operators.
    pub reductions: Vec<(VarId, irr_passes::ReductionOp)>,
    /// `(index array name, property tag)` pairs verified on the way.
    pub properties_used: Vec<(String, &'static str)>,
    /// Human-readable blockers when not parallel.
    pub blockers: Vec<String>,
    /// Residual checks the value-evolution analysis discharged
    /// statically: the runtime inspections this loop no longer needs.
    /// Non-empty on loops promoted past (or partially relieved of)
    /// runtime guarding by producer-loop facts.
    pub retired_checks: Vec<ResidualCheck>,
    /// Some retired check was discharged by a fact that crossed a
    /// `call` via the interprocedural summaries: the promotion needed
    /// interprocedural reasoning.
    pub promoted_interproc: bool,
    /// How a hybrid runtime should dispatch this loop.
    pub tier: DispatchTier,
    /// Proven facts a runtime can turn into a zero-merge execution
    /// strategy (in-place disjoint writes, positional concatenation).
    pub strategy_facts: StrategyFacts,
    /// Advisory plan for the compiled (bytecode) execution tier: the
    /// summary of the nest's lowered body, `Some` exactly when
    /// [`compiled::lower_do_loop`] accepts the nest. The executor lowers
    /// again at dispatch and never trusts it; the lint layer re-derives
    /// it to catch tampering.
    pub compiled: Option<CompiledPlan>,
}

impl LoopVerdict {
    /// The scalars and arrays the verdict privatizes: per-worker scratch
    /// of a parallel execution of this loop.
    pub fn privatized_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        let arrays = self.privatized_arrays.iter().map(|(a, _)| *a);
        self.privatized_scalars.iter().copied().chain(arrays)
    }
}

/// Timings and counters for Table 2.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompileStats {
    /// Whole compilation time.
    pub total_time: Duration,
    /// Time spent in the scalar pass pipeline.
    pub pass_time: Duration,
    /// Time spent inside array property analysis queries.
    pub property_time: Duration,
    /// Number of property queries issued.
    pub property_queries: u64,
    /// Nodes visited by the query solver.
    pub solver_nodes: u64,
}

/// The result of compiling a program.
#[derive(Clone, Debug)]
pub struct CompilationReport {
    /// The transformed program (after the pass pipeline).
    pub program: Program,
    /// One verdict per `do` loop, program pre-order.
    pub verdicts: Vec<LoopVerdict>,
    /// Timings.
    pub stats: CompileStats,
}

impl CompilationReport {
    /// The verdict for the loop labeled `label` (e.g. `"INTGRL/do140"`).
    pub fn verdict(&self, label: &str) -> Option<&LoopVerdict> {
        self.verdicts.iter().find(|v| v.label == label)
    }

    /// Labels of all loops found parallel.
    pub fn parallel_labels(&self) -> Vec<&str> {
        self.verdicts
            .iter()
            .filter(|v| v.parallel)
            .map(|v| v.label.as_str())
            .collect()
    }

    /// Every variable some verdict privatizes. The compiler only
    /// privatizes values that are dead after their loop, and a parallel
    /// commit leaves them out, so their final values are unobservable
    /// and legitimately differ between ways of running the program.
    pub fn privatized_vars(&self) -> HashSet<VarId> {
        self.verdicts
            .iter()
            .flat_map(LoopVerdict::privatized_vars)
            .collect()
    }
}

/// Parses and compiles a source program.
///
/// # Errors
///
/// Returns the parse error if `src` is not a valid program.
pub fn compile_source(src: &str, opts: DriverOptions) -> Result<CompilationReport, ParseError> {
    Ok(compile(parse_program(src)?, opts))
}

/// Runs the pass pipeline and the parallelization analysis.
pub fn compile(program: Program, opts: DriverOptions) -> CompilationReport {
    compile_budgeted(program, opts, None)
}

/// [`compile`] under an optional [`AnalysisBudget`]: the summary
/// fixpoint, the evolution walk, and every property query cooperate
/// with the meter. When it runs dry, in-flight analyses bail
/// conservatively and the remaining loops get weaker (but sound)
/// verdicts — typically `RuntimeGuarded` or `Sequential` where an
/// unmetered compile would have proven `CompileTimeParallel`.
pub fn compile_budgeted(
    mut program: Program,
    opts: DriverOptions,
    budget: Option<&AnalysisBudget>,
) -> CompilationReport {
    let t0 = Instant::now();
    // ---- Fig. 15 pass pipeline -----------------------------------------
    let tp = Instant::now();
    if !opts.baseline_apo {
        inline_small_procedures(&mut program, opts.inline_limit);
    }
    propagate_constants(&mut program);
    // Constant propagation's output is its own fixpoint, so it reruns
    // only on a program the loop rewrites reshaped.
    if normalize_loops(&mut program) + substitute_induction_variables(&mut program) > 0 {
        propagate_constants(&mut program);
    }
    forward_substitute(&mut program);
    eliminate_dead_code(&mut program);
    let pass_time = tp.elapsed();

    // ---- analyses --------------------------------------------------------
    let mut verdicts = Vec::new();
    let property_time;
    let property_queries;
    let solver_nodes;
    {
        let ctx = AnalysisCtx::new(&program);
        let solver_opts = SolverOptions {
            interprocedural: opts.phase_order == PhaseOrder::Reorganized && !opts.baseline_apo,
            ..SolverOptions::default()
        };
        // Interprocedural property summaries: bottom-up over the call
        // graph, then threaded into both the query solver (stepping
        // over calls the summary proves harmless) and the evolution
        // walk (composing producer facts across calls).
        let summaries = (opts.enable_summaries && opts.enable_iaa && !opts.baseline_apo)
            .then(|| irr_core::SummaryAnalysis::new_budgeted(&ctx, budget));
        let mut apa = ArrayPropertyAnalysis::with_options(&ctx, solver_opts);
        if let Some(b) = budget {
            apa.set_budget(b);
        }
        // Producer-loop value evolution: one walk per procedure, the
        // per-loop snapshots discharge residual checks in judge_loop.
        let evo = if opts.enable_iaa && opts.enable_evolution {
            match &summaries {
                Some(sa) => {
                    apa.set_summaries(sa);
                    EvolutionAnalysis::budgeted(&ctx, Some(sa), budget)
                }
                None => EvolutionAnalysis::budgeted(&ctx, None, budget),
            }
        } else {
            if let Some(sa) = &summaries {
                apa.set_summaries(sa);
            }
            EvolutionAnalysis::disabled()
        };
        for (pi, proc) in program.procedures.iter().enumerate() {
            let proc_id = ProcId(pi as u32);
            for s in program.stmts_in(&proc.body) {
                if matches!(program.stmt(s).kind, StmtKind::Do { .. }) {
                    verdicts.push(judge_loop(&ctx, &mut apa, &evo, &opts, proc_id, s));
                }
            }
        }
        property_time = apa.stats.total_time;
        property_queries = apa.stats.queries;
        solver_nodes = apa.stats.nodes_visited;
    }
    CompilationReport {
        program,
        verdicts,
        stats: CompileStats {
            total_time: t0.elapsed(),
            pass_time,
            property_time,
            property_queries,
            solver_nodes,
        },
    }
}

/// The terminal rung of the degradation ladder: no pass pipeline, no
/// analysis — every `do` loop gets a `Sequential` verdict with a
/// reason-coded blocker. Running everything sequentially is trivially
/// sound, and building this report costs only the loop enumeration, so
/// it can never itself exhaust a budget.
pub fn parse_only_report(program: Program) -> CompilationReport {
    let t0 = Instant::now();
    let mut verdicts = Vec::new();
    for (pi, proc) in program.procedures.iter().enumerate() {
        let proc_id = ProcId(pi as u32);
        for s in program.stmts_in(&proc.body) {
            if matches!(program.stmt(s).kind, StmtKind::Do { .. }) {
                // Parse-only degradation never claims a plan; the
                // conservative direction (tree-walk) is always safe.
                let mut v = sequential_verdict(&program, proc_id, s, None);
                v.blockers
                    .push("analysis skipped (parse-only degradation)".into());
                verdicts.push(v);
            }
        }
    }
    CompilationReport {
        program,
        verdicts,
        stats: CompileStats {
            total_time: t0.elapsed(),
            ..CompileStats::default()
        },
    }
}

/// A `Sequential` verdict on `loop_stmt` that records no fact and no
/// blocker yet: where both the judge and the parse-only rung start.
fn sequential_verdict(
    program: &Program,
    proc: ProcId,
    loop_stmt: StmtId,
    compiled: Option<CompiledPlan>,
) -> LoopVerdict {
    LoopVerdict {
        loop_stmt,
        label: program.loop_label(proc, loop_stmt),
        proc,
        parallel: false,
        independent_arrays: Vec::new(),
        privatized_arrays: Vec::new(),
        privatized_scalars: Vec::new(),
        reductions: Vec::new(),
        properties_used: Vec::new(),
        blockers: Vec::new(),
        retired_checks: Vec::new(),
        promoted_interproc: false,
        tier: DispatchTier::Sequential,
        strategy_facts: StrategyFacts::None,
        compiled,
    }
}

/// Decides whether one `do` loop is parallel.
fn judge_loop<'c, 'p>(
    ctx: &'c AnalysisCtx<'p>,
    apa: &mut ArrayPropertyAnalysis<'c, 'p>,
    evo: &EvolutionAnalysis,
    opts: &DriverOptions,
    proc: ProcId,
    loop_stmt: StmtId,
) -> LoopVerdict {
    let program = ctx.program;
    let compiled = derive_compiled_plan(program, loop_stmt);
    let mut v = sequential_verdict(program, proc, loop_stmt, compiled);
    let StmtKind::Do { var, .. } = &program.stmt(loop_stmt).kind else {
        v.blockers.push("not a do loop".into());
        return v;
    };
    let loop_var = *var;
    let table = ctx.loop_table(loop_stmt);

    // Calls inside the loop: only tolerated when the callee is pure
    // w.r.t. nothing — conservatively reject (the inliner flattened the
    // eligible ones already).
    if !table.callees.is_empty() {
        v.blockers.push("call inside loop".into());
        return v;
    }
    // Print statements force sequential execution.
    if table.has_io {
        v.blockers.push("i/o inside loop".into());
        return v;
    }

    // Whether every blocker so far can be discharged by a run-time
    // inspection; scalar dependences and unanalyzable arrays cannot.
    let mut guardable = true;
    let mut guard_groups: Vec<Vec<ResidualCheck>> = Vec::new();

    // ---- scalars ----------------------------------------------------------
    let reductions = recognize_reductions(program, loop_stmt);
    for r in &reductions {
        v.reductions.push((r.var, r.op));
    }
    let reduction_vars: Vec<VarId> = reductions.iter().map(|r| r.var).collect();
    for &scalar in &table.assigned_scalars {
        if scalar == loop_var || reduction_vars.contains(&scalar) {
            continue;
        }
        if scalar_privatizable(ctx, loop_stmt, scalar) {
            v.privatized_scalars.push(scalar);
        } else {
            guardable = false;
            v.blockers.push(format!(
                "scalar `{}` carries a dependence",
                program.symbols.name(scalar)
            ));
        }
    }

    // ---- arrays -----------------------------------------------------------
    for &array in &table.written_arrays {
        // Dependence test first.
        let mut dt = DependenceTester::new(ctx, apa);
        dt.enable_property_queries = opts.enable_iaa;
        let dep = dt.analyze_array(loop_stmt, array);
        if dep.independent {
            let tag = dep.test.map(|t| t.tag()).unwrap_or("NONE");
            v.independent_arrays.push((array, tag));
            for (a, t) in dep.properties_used {
                v.properties_used
                    .push((program.symbols.name(a).to_string(), t));
            }
            continue;
        }
        let mut pv = Privatizer::new(ctx, apa);
        pv.enable_iaa = opts.enable_iaa;
        let priv_res = pv.analyze_array(loop_stmt, array);
        // Privatization is accepted only for scratch arrays — never read
        // outside this loop's body — so no copy-out is needed.
        if priv_res.privatizable && ctx.reads_confined_to(array, loop_stmt) {
            let tag = priv_res.evidence.map(|e| e.tag()).unwrap_or("REG");
            v.privatized_arrays.push((array, tag));
            for (a, t) in priv_res.properties_used {
                v.properties_used
                    .push((program.symbols.name(a).to_string(), t));
            }
            continue;
        }
        if dep.residual.is_empty() {
            guardable = false;
            v.blockers.push(format!(
                "array `{}` may carry a dependence",
                program.symbols.name(array)
            ));
        } else if let Some(rc) = (opts.enable_iaa && opts.enable_evolution)
            .then(|| evolution_discharge(ctx, evo, loop_stmt, &dep.residual))
            .flatten()
        {
            // The value-evolution facts of the producer loops imply
            // one of the residual checks outright: the array is
            // independent with no runtime inspection needed, and the
            // check is recorded as retired so the runtime can count
            // the inspections it no longer runs.
            v.independent_arrays.push((array, "EVO"));
            match &rc {
                ResidualCheck::Injective { array: p } => v
                    .properties_used
                    .push((program.symbols.name(*p).to_string(), "EVO-INJ")),
                ResidualCheck::OffsetLength { ptr, .. } => v
                    .properties_used
                    .push((program.symbols.name(*ptr).to_string(), "EVO-OFFLEN")),
            }
            v.promoted_interproc |= match &rc {
                ResidualCheck::Injective { array } => evo.fact_interproc(loop_stmt, *array),
                ResidualCheck::OffsetLength { ptr, len } => {
                    evo.fact_interproc(loop_stmt, *ptr) || evo.fact_interproc(loop_stmt, *len)
                }
            };
            v.retired_checks.push(rc);
        } else {
            // The dependence is Unknown, not disproven — but the tester
            // identified the exact missing facts. Surface them both as a
            // readable blocker and as a machine-usable guard plan.
            let needed: Vec<String> = dep
                .residual
                .iter()
                .map(|rc| match rc {
                    ResidualCheck::Injective { array } => {
                        format!("injectivity of `{}`", program.symbols.name(*array))
                    }
                    ResidualCheck::OffsetLength { ptr, len } => format!(
                        "offset-length of `{}`/`{}`",
                        program.symbols.name(*ptr),
                        program.symbols.name(*len)
                    ),
                })
                .collect();
            v.blockers.push(format!(
                "array `{}` unknown at compile time (runtime-checkable, any of: {})",
                program.symbols.name(array),
                needed.join(", ")
            ));
            // One disjunction group per blocked array: each residual the
            // tester emitted would alone clear the array, so the runtime
            // needs any one of them to pass.
            let mut group: Vec<ResidualCheck> = Vec::new();
            for rc in dep.residual {
                if !group.contains(&rc) {
                    group.push(rc);
                }
            }
            if !guard_groups.contains(&group) {
                guard_groups.push(group);
            }
        }
    }
    v.parallel = v.blockers.is_empty();
    // Product reductions are not mergeable by the chunked executor, so
    // such loops stay sequential at run time regardless of the verdict.
    let mergeable_reductions = !v
        .reductions
        .iter()
        .any(|(_, op)| matches!(op, irr_passes::ReductionOp::Product));
    v.tier = if v.parallel && mergeable_reductions {
        DispatchTier::CompileTimeParallel
    } else if !v.parallel && guardable && !guard_groups.is_empty() && mergeable_reductions {
        DispatchTier::RuntimeGuarded(GuardPlan {
            groups: guard_groups,
        })
    } else {
        DispatchTier::Sequential
    };
    // Strategy facts: with the tier fixed, look for a proof that lets
    // the runtime skip the write-log transaction entirely.
    let privatized: Vec<VarId> = v.privatized_vars().collect();
    let mergeable_vars: Vec<VarId> = v
        .reductions
        .iter()
        .filter(|(_, op)| !matches!(op, irr_passes::ReductionOp::Product))
        .map(|(r, _)| *r)
        .collect();
    v.strategy_facts = match &v.tier {
        DispatchTier::CompileTimeParallel | DispatchTier::RuntimeGuarded(_) => {
            strategy::in_place_facts(ctx, loop_stmt, &privatized, &mergeable_vars, v.tier.guard())
        }
        DispatchTier::Sequential if opts.enable_iaa => {
            let independent: Vec<VarId> = v.independent_arrays.iter().map(|(a, _)| *a).collect();
            strategy::derive_concat_facts(
                ctx,
                loop_stmt,
                &privatized,
                &mergeable_vars,
                &independent,
            )
        }
        _ => StrategyFacts::None,
    };
    v
}

/// Finds a residual check that the value-evolution facts at the loop
/// imply over the loop's own (symbolic) inspection range — the same
/// bounds the runtime would evaluate and hand to the inspector.
fn evolution_discharge(
    ctx: &AnalysisCtx<'_>,
    evo: &EvolutionAnalysis,
    loop_stmt: StmtId,
    residual: &[ResidualCheck],
) -> Option<ResidualCheck> {
    let (_, lo, hi) = ctx.do_bounds_sym(loop_stmt)?;
    let env = ctx.range_env_at(loop_stmt);
    residual
        .iter()
        .find(|rc| match rc {
            ResidualCheck::Injective { array } => {
                evo.proves_injective(loop_stmt, *array, &lo, &hi, env)
            }
            ResidualCheck::OffsetLength { ptr, len } => {
                evo.proves_offset_length(loop_stmt, *ptr, *len, &lo, &hi, env)
            }
        })
        .cloned()
}

/// A scalar is privatizable for the loop when, in each iteration, every
/// read sees a value written earlier in the *same* iteration. On the
/// loop's flat CFG this is exactly: no path from the loop header reaches
/// a node that reads the scalar without first passing a node that writes
/// it — a bounded DFS with `fbound` = writes, `ffailed` = reads
/// (statements like `v = v + 1` read before writing and correctly fail).
/// Reductions are handled separately.
fn scalar_privatizable(ctx: &AnalysisCtx<'_>, loop_stmt: StmtId, scalar: VarId) -> bool {
    use irr_graph::bdfs::{bounded_dfs, BdfsOutcome};
    use irr_graph::{CfgNodeId, CfgNodeKind};
    let cfg = ctx.loop_cfg(loop_stmt);
    let program = ctx.program;
    let reads_scalar =
        |n: CfgNodeId| -> bool { ctx.node_exprs(&cfg, n).iter().any(|e| e.mentions(scalar)) };
    let writes_scalar = |n: CfgNodeId| -> bool {
        match cfg.kind(n) {
            CfgNodeKind::Stmt(s) => matches!(
                &program.stmt(s).kind,
                StmtKind::Assign { lhs: LValue::Scalar(w), .. } if *w == scalar
            ),
            CfgNodeKind::LoopHead(s) => {
                // An inner do header assigns its induction variable
                // (after evaluating the bounds, which `reads_scalar`
                // checks first through the failed-set ordering).
                matches!(&program.stmt(s).kind,
                    StmtKind::Do { var, .. } if *var == scalar && s != loop_stmt)
            }
            _ => false,
        }
    };
    let head = cfg
        .nodes_where(|k| matches!(k, CfgNodeKind::LoopHead(s) if s == loop_stmt))
        .into_iter()
        .next();
    let Some(head) = head else { return false };
    bounded_dfs(
        &cfg,
        head,
        |n| writes_scalar(n) && !reads_scalar(n),
        reads_scalar,
    ) == BdfsOutcome::Succeeded
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG1A: &str = "program t
         integer i, j, k, n, p, link(100, 10)
         real x(100), y(100), z(10, 100)
         n = 10
         do k = 1, n
           p = 0
           i = link(1, k)
           while (i /= 0)
             p = p + 1
             x(p) = y(i)
             i = link(i, k)
           endwhile
           do j = 1, p
             z(k, j) = x(j)
           enddo
         enddo
         end";

    #[test]
    fn fig1a_parallel_with_iaa_only() {
        let with = compile_source(FIG1A, DriverOptions::with_iaa()).unwrap();
        let k_loop = &with.verdicts[0];
        assert!(k_loop.label.contains("do@"));
        assert!(k_loop.parallel, "{k_loop:?}");
        assert!(k_loop.privatized_arrays.iter().any(|(_, tag)| *tag == "CW"));
        let without = compile_source(FIG1A, DriverOptions::without_iaa()).unwrap();
        assert!(!without.verdicts[0].parallel);
    }

    #[test]
    fn scalar_dependence_blocks() {
        let src = "program t
             integer i, n
             real s, x(100)
             s = 0
             do i = 1, n
               x(i) = s
               s = s * 2 + 1
             enddo
             end";
        let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
        assert!(!rep.verdicts[0].parallel);
        assert!(rep.verdicts[0]
            .blockers
            .iter()
            .any(|b| b.contains("scalar `s`")));
    }

    #[test]
    fn reductions_are_recognized() {
        let src = "program t
             integer i, n
             real s, x(100)
             s = 0
             do i = 1, n
               s = s + x(i)
             enddo
             print s
             end";
        let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
        assert!(rep.verdicts[0].parallel, "{:?}", rep.verdicts[0]);
        assert_eq!(rep.verdicts[0].reductions.len(), 1);
    }

    #[test]
    fn regular_parallel_loop() {
        let src = "program t
             integer i, n
             real x(100), y(100)
             n = 100
             do i = 1, n
               x(i) = y(i) * 2
             enddo
             end";
        let rep = compile_source(src, DriverOptions::apo()).unwrap();
        assert!(rep.verdicts[0].parallel);
    }

    #[test]
    fn phase_order_matters_for_interprocedural_queries() {
        // The index array is defined in a big (non-inlinable) subroutine
        // and used in the main loop; only the reorganized order verifies
        // the property. Make the subroutine big enough to survive
        // inlining.
        let mut filler = String::new();
        for k in 0..60 {
            filler.push_str(&format!("dummy({}) = {k}\n", k + 1));
        }
        let src = format!(
            "program t
             integer k2, q, ind(100), dummy(100)
             real z(100), x(100)
             call setup
             do k2 = 1, q
               z(ind(k2)) = x(k2)
             enddo
             print z(1)
             end
             subroutine setup
             integer i
             {filler}
             q = 0
             do i = 1, 100
               if (x(i) > 0) then
                 q = q + 1
                 ind(q) = i
               endif
             enddo
             end"
        );
        let reorganized = compile_source(&src, DriverOptions::with_iaa()).unwrap();
        let main_loop = reorganized
            .verdicts
            .iter()
            .find(|v| v.label.starts_with("T/"))
            .unwrap();
        assert!(main_loop.parallel, "{main_loop:?}");
        let original = compile_source(
            &src,
            DriverOptions {
                phase_order: PhaseOrder::Original,
                ..DriverOptions::with_iaa()
            },
        )
        .unwrap();
        let main_loop_orig = original
            .verdicts
            .iter()
            .find(|v| v.label.starts_with("T/"))
            .unwrap();
        assert!(!main_loop_orig.parallel, "{main_loop_orig:?}");
    }

    #[test]
    fn stats_are_populated() {
        let rep = compile_source(FIG1A, DriverOptions::with_iaa()).unwrap();
        assert!(rep.stats.total_time >= rep.stats.pass_time);
    }

    #[test]
    fn labeled_loops_get_paper_style_names() {
        let src = "program trfd
             integer i
             real x(10)
             do 140 i = 1, 10
               x(i) = 1
 140         continue
             end";
        let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
        assert_eq!(rep.verdicts[0].label, "TRFD/do140");
        assert!(rep.verdict("TRFD/do140").is_some());
        assert_eq!(rep.parallel_labels(), vec!["TRFD/do140"]);
    }

    /// A CRS-style program that builds its own `rowptr` by histogram +
    /// prefix sum before the offset–length consumer loop.
    const CRS_PRODUCER: &str = "program t
         integer i, j, k, n, nnz, rowof(16), rowlen(8), rowptr(9)
         real aval(16), front(16)
         n = 8
         nnz = 16
         do i = 1, n
           rowlen(i) = 0
         enddo
         do k = 1, nnz
           rowlen(rowof(k)) = rowlen(rowof(k)) + 1
         enddo
         rowptr(1) = 1
         do i = 1, n
           rowptr(i + 1) = rowptr(i) + rowlen(i)
         enddo
         do 400 i = 1, n
           do j = 1, rowlen(i)
             front(rowptr(i) + j - 1) = front(rowptr(i) + j - 1) * 0.98
           enddo
 400     continue
         print front(1)
         end";

    #[test]
    fn producer_loops_promote_offset_length_consumer() {
        let rep = compile_source(CRS_PRODUCER, DriverOptions::with_iaa()).unwrap();
        let v = rep.verdict("T/do400").unwrap();
        assert!(matches!(v.tier, DispatchTier::CompileTimeParallel), "{v:?}");
        assert_eq!(v.retired_checks.len(), 1, "{v:?}");
        assert!(matches!(
            v.retired_checks[0],
            ResidualCheck::OffsetLength { .. }
        ));
        assert!(v.independent_arrays.iter().any(|(_, tag)| *tag == "EVO"));
        assert!(v
            .properties_used
            .iter()
            .any(|(a, t)| a == "rowptr" && *t == "EVO-OFFLEN"));
    }

    // The CRS producer chain hidden in a subroutine the inliner skips
    // (labeled loops make it ineligible): only the interprocedural
    // summaries can carry the producer facts to the consumer.
    pub(crate) const CALL_STRUCTURED_CRS: &str = "program t
         integer i, j, n, rowof(16), rowlen(8), rowptr(9)
         real front(16)
         n = 8
         call crsbld
         do 400 i = 1, n
           do j = 1, rowlen(i)
             front(rowptr(i) + j - 1) = front(rowptr(i) + j - 1) * 0.98
           enddo
 400     continue
         print front(1)
         end
         subroutine crsbld
         integer i, k, rowof(16), rowlen(8), rowptr(9)
         do 310 i = 1, 8
           rowlen(i) = 0
 310     continue
         do 320 k = 1, 16
           rowlen(rowof(k)) = rowlen(rowof(k)) + 1
 320     continue
         rowptr(1) = 1
         do 330 i = 1, 8
           rowptr(i + 1) = rowptr(i) + rowlen(i)
 330     continue
         end";

    // `permute_callchain`'s shape: the reversal fill that makes `perm`
    // injective sits behind a call the inliner skips.
    const CALL_STRUCTURED_PERMUTE: &str = "program t
         integer k, nnz, perm(16)
         real aval(16), pval(16)
         nnz = 16
         call permbld
         do 800 k = 1, nnz
           pval(perm(k)) = aval(k) * 2.0
 800     continue
         print pval(1)
         end
         subroutine permbld
         integer k, perm(16)
         do 710 k = 1, 16
           perm(k) = 16 + 1 - k
 710     continue
         end";

    /// The two interprocedural promotions of the sparse suite
    /// (`lufront_callchain`, `permute_callchain`), pinned to the exact
    /// check each retires: both need the summary of a routine that is
    /// only ever *called*, so an under-demanded summary pass loses them.
    #[test]
    fn call_structured_producer_promotes_only_with_summaries() {
        type Retired = fn(&dyn Fn(&str) -> VarId) -> ResidualCheck;
        let cases: [(&str, &str, Retired); 2] = [
            (CALL_STRUCTURED_CRS, "T/do400", |var| {
                ResidualCheck::OffsetLength {
                    ptr: var("rowptr"),
                    len: var("rowlen"),
                }
            }),
            (CALL_STRUCTURED_PERMUTE, "T/do800", |var| {
                ResidualCheck::Injective { array: var("perm") }
            }),
        ];
        for (src, label, retired) in cases {
            let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
            let v = rep.verdict(label).unwrap();
            assert!(matches!(v.tier, DispatchTier::CompileTimeParallel), "{v:?}");
            assert!(v.promoted_interproc, "{v:?}");
            let var = |name: &str| rep.program.symbols.lookup(name).unwrap();
            assert_eq!(v.retired_checks, [retired(&var)], "{v:?}");

            let cold = compile_source(src, DriverOptions::without_summaries()).unwrap();
            let cv = cold.verdict(label).unwrap();
            assert!(matches!(cv.tier, DispatchTier::RuntimeGuarded(_)), "{cv:?}");
            assert!(!cv.promoted_interproc);
            assert!(cv.retired_checks.is_empty());
        }
    }

    #[test]
    fn verdicts_carry_advisory_compiled_plans() {
        let rep = compile_source(CRS_PRODUCER, DriverOptions::with_iaa()).unwrap();
        let v = rep.verdict("T/do400").unwrap();
        let plan = v.compiled.expect("straightline nest is lowerable");
        assert_eq!(Some(plan), derive_compiled_plan(&rep.program, v.loop_stmt));
        assert_eq!(plan.inner_loops, 1, "{plan:?}");
        // A loop with i/o in the body gets no plan.
        let src = "program t
             integer i
             real x(8)
             do i = 1, 8
               x(i) = 1.0
               print x(i)
             enddo
             end";
        let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
        assert!(rep.verdicts[0].compiled.is_none());
    }

    #[test]
    fn intraprocedural_promotions_are_not_flagged_interproc() {
        let rep = compile_source(CRS_PRODUCER, DriverOptions::with_iaa()).unwrap();
        let v = rep.verdict("T/do400").unwrap();
        assert!(matches!(v.tier, DispatchTier::CompileTimeParallel));
        assert!(!v.promoted_interproc, "{v:?}");
    }

    #[test]
    fn affine_fill_promotes_injective_consumer() {
        let src = "program t
             integer k, nnz, perm(16)
             real aval(16), pval(16)
             nnz = 16
             do k = 1, nnz
               perm(k) = nnz + 1 - k
             enddo
             do 800 k = 1, nnz
               pval(perm(k)) = aval(k) * 2.0
 800         continue
             print pval(1)
             end";
        let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
        let v = rep.verdict("T/do800").unwrap();
        assert!(matches!(v.tier, DispatchTier::CompileTimeParallel), "{v:?}");
        assert!(matches!(
            v.retired_checks[..],
            [ResidualCheck::Injective { .. }]
        ));
    }

    #[test]
    fn preset_only_index_arrays_stay_runtime_guarded() {
        // Without the producer loops the same consumer keeps its guard
        // plan: evolution facts must never materialize from thin air.
        let src = "program t
             integer i, j, n, rowlen(8), rowptr(9)
             real front(16)
             n = 8
             do 400 i = 1, n
               do j = 1, rowlen(i)
                 front(rowptr(i) + j - 1) = front(rowptr(i) + j - 1) * 0.98
               enddo
 400         continue
             print front(1)
             end";
        let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
        let v = rep.verdict("T/do400").unwrap();
        assert!(matches!(v.tier, DispatchTier::RuntimeGuarded(_)), "{v:?}");
        assert!(v.retired_checks.is_empty());
    }

    #[test]
    fn intervening_write_blocks_promotion() {
        // Rewriting one rowlen element between producer and consumer
        // invalidates the chain: the loop must stay runtime-guarded.
        let src = "program t
             integer i, j, n, rowlen(8), rowptr(9)
             real front(16)
             n = 8
             do i = 1, n
               rowlen(i) = 2
             enddo
             rowptr(1) = 1
             do i = 1, n
               rowptr(i + 1) = rowptr(i) + rowlen(i)
             enddo
             rowlen(3) = 5
             do 400 i = 1, n
               do j = 1, rowlen(i)
                 front(rowptr(i) + j - 1) = front(rowptr(i) + j - 1) * 0.98
               enddo
 400         continue
             print front(1)
             end";
        let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
        let v = rep.verdict("T/do400").unwrap();
        assert!(matches!(v.tier, DispatchTier::RuntimeGuarded(_)), "{v:?}");
        assert!(v.retired_checks.is_empty());
    }
}
