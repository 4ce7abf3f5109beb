//! The verdict auditor: replays programs under shadow-memory tracing
//! and cross-checks every [`LoopVerdict`] against the dependences the
//! runs actually exhibited.
//!
//! One audit performs `1 + inputs` interpreter runs of the compiled
//! program: run 0 on pristine (zero-initialized) data, runs `1..=inputs`
//! with every array the run allocates filled from SplitMix64 streams
//! seeded per run and per array (see `Interp::set_random_fill`),
//! perturbing data-dependent
//! access streams without changing extents or scalar state. Every `do`
//! loop with a verdict is traced; the [`DependenceTracer`] replays
//! runtime guards at each dynamic entry.
//!
//! Cross-checking applies the paper's own standard:
//!
//! - a [`CompileTimeParallel`](DispatchTier) loop — or a
//!   [`RuntimeGuarded`](DispatchTier) loop on an execution whose guard
//!   *passed* — must not exhibit any loop-carried dependence except on
//!   variables its verdict already exonerates (the induction variable,
//!   privatized scalars/arrays, and recognized reductions). Anything
//!   else is a **soundness violation**, reported with the minimized
//!   witness the tracer kept.
//! - a [`Sequential`](DispatchTier) loop that never exhibits an
//!   unexplained dependence across all sampled inputs (and iterated at
//!   least twice, so a dependence had a chance to manifest) is a
//!   **precision gap**: the verdict may be over-conservative. Loops
//!   blocked by I/O are skipped — no analysis can parallelize a `print`.
//!
//! Soundness mode reports only violations (the CI invariant); full mode
//! adds the precision gaps.

use crate::shadow::{DepWitness, DependenceTracer, TraceLog};
use irr_driver::{
    compile_source, CompilationReport, DispatchTier, DriverOptions, LoopVerdict, StrategyFacts,
};
use irr_exec::{Interp, TraceConfig};
use irr_frontend::{ParseError, StmtId, StmtKind, VarId};
use std::collections::HashSet;

/// The paper's worked figures live with the other programs; the audit's
/// callers keep finding them here.
pub use irr_programs::{figures, Figure};

/// What the auditor reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AuditMode {
    /// Only soundness violations (parallel verdicts contradicted by an
    /// observed dependence) — the CI-enforced invariant.
    Soundness,
    /// Violations plus precision gaps (sequential verdicts that never
    /// exhibited a dependence).
    Full,
}

/// Audit configuration.
#[derive(Clone, Copy, Debug)]
pub struct AuditConfig {
    /// Seed of the randomized-input stream (run `r` uses `seed + r`).
    pub seed: u64,
    /// Randomized runs in addition to the pristine run 0.
    pub inputs: u32,
    /// What to report.
    pub mode: AuditMode,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            seed: 0x1AA,
            inputs: 8,
            mode: AuditMode::Full,
        }
    }
}

/// The kind of an audit finding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FindingKind {
    /// A parallel verdict contradicted by an observed loop-carried
    /// dependence — executing this loop in parallel can produce wrong
    /// answers.
    SoundnessViolation,
    /// A sequential verdict that never exhibited a dependence on any
    /// sampled input — possibly analyzable, not an error.
    PrecisionGap,
}

/// One audit finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Violation or precision gap.
    pub kind: FindingKind,
    /// `PROC/do140`-style loop label from the verdict.
    pub label: String,
    /// The loop statement.
    pub loop_stmt: StmtId,
    /// For violations: the minimized dependence witness (smallest
    /// iteration distance, then smallest element, then earliest source
    /// iteration) among every contradicting dependence observed.
    pub witness: Option<DepWitness>,
    /// The run that exhibited the witness (0 = pristine data).
    pub run: u32,
    /// Human-readable description, rendered with variable names.
    pub detail: String,
}

/// The result of auditing one compiled program.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// All findings, violations first.
    pub findings: Vec<Finding>,
    /// Loop verdicts cross-checked.
    pub loops_audited: u64,
    /// Dynamic traced loop executions observed across all runs.
    pub executions_traced: u64,
    /// Runs that completed normally.
    pub runs_completed: u32,
    /// Runs aborted by an interpreter error under randomized data
    /// (their traces are discarded).
    pub runs_failed: u32,
}

impl AuditReport {
    /// Number of soundness violations.
    pub fn violations(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.kind == FindingKind::SoundnessViolation)
            .count()
    }

    /// Number of precision gaps.
    pub fn precision_gaps(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.kind == FindingKind::PrecisionGap)
            .count()
    }

    /// Whether every parallel verdict survived the audit.
    pub fn is_sound(&self) -> bool {
        self.violations() == 0
    }
}

/// Audits a compiled program: replays it under tracing on pristine and
/// randomized inputs and cross-checks every loop verdict.
pub fn audit_report(report: &CompilationReport, config: &AuditConfig) -> AuditReport {
    audit_report_seeded(report, config, &[])
}

/// [`audit_report`] with preset arrays installed before every replay —
/// the entry point for generated sparse workloads. A preset is its
/// array's storage for the whole run, so the randomized fill of runs
/// `1..=inputs` never touches it and every replay sees the same
/// generated index arrays (the data the guards inspect), while arrays
/// the program reads before writing still vary per run.
pub fn audit_report_seeded(
    report: &CompilationReport,
    config: &AuditConfig,
    presets: &[(VarId, irr_exec::ArrayData)],
) -> AuditReport {
    let program = &report.program;
    let audited: Vec<&LoopVerdict> = report
        .verdicts
        .iter()
        .filter(|v| matches!(program.stmt(v.loop_stmt).kind, StmtKind::Do { .. }))
        .collect();
    let traced_loops: HashSet<StmtId> = audited.iter().map(|v| v.loop_stmt).collect();

    let mut out = AuditReport {
        loops_audited: audited.len() as u64,
        ..AuditReport::default()
    };

    // ---- replay: 1 pristine + `inputs` randomized runs ------------------
    let mut logs: Vec<(u32, TraceLog)> = Vec::new();
    for run in 0..=config.inputs {
        let (tracer, handle) = DependenceTracer::from_report(report);
        let mut it = Interp::new(program);
        for (var, data) in presets {
            it.preset_array(*var, data.clone());
        }
        if run > 0 {
            it.set_random_fill(config.seed.wrapping_add(u64::from(run)));
        }
        it.attach_tracer(
            TraceConfig::only(traced_loops.iter().copied()),
            Box::new(tracer),
        );
        match it.run() {
            Ok(_) => {
                out.runs_completed += 1;
                logs.push((run, handle.borrow().clone()));
            }
            Err(_) => out.runs_failed += 1,
        }
    }
    out.executions_traced = logs.iter().map(|(_, l)| l.executions.len() as u64).sum();

    // ---- cross-check every verdict --------------------------------------
    for v in &audited {
        let exonerated = exonerated_vars(program, v);
        // Best contradicting witness per (kind, var) across all runs.
        let mut worst: Option<(DepWitness, u32)> = None;
        let mut unexplained = false;
        let mut max_iterations = 0u64;
        let mut evolution_contradicted: Option<u32> = None;
        for (run, log) in &logs {
            for exec in log.executions_of(v.loop_stmt) {
                max_iterations = max_iterations.max(exec.iterations);
                let held_parallel = match &v.tier {
                    DispatchTier::CompileTimeParallel => true,
                    DispatchTier::RuntimeGuarded(_) => exec.guard_passed == Some(true),
                    DispatchTier::Sequential => false,
                };
                // An evolution-promoted loop replays its retired checks
                // as a synthetic guard: the compile-time proof claims
                // they hold on every reachable input, so one observed
                // failure is a soundness bug even if no dependence
                // happened to manifest this run.
                if matches!(v.tier, DispatchTier::CompileTimeParallel)
                    && !v.retired_checks.is_empty()
                    && exec.guard_passed == Some(false)
                    && evolution_contradicted.is_none()
                {
                    evolution_contradicted = Some(*run);
                }
                for w in &exec.deps {
                    if exonerated.contains(&w.var) {
                        continue;
                    }
                    unexplained = true;
                    if held_parallel && worst.as_ref().is_none_or(|(best, _)| rank(w) < rank(best))
                    {
                        worst = Some((*w, *run));
                    }
                }
            }
        }
        if let Some((w, run)) = worst {
            out.findings.push(Finding {
                kind: FindingKind::SoundnessViolation,
                label: v.label.clone(),
                loop_stmt: v.loop_stmt,
                witness: Some(w),
                run,
                detail: format!(
                    "{}: verdict {}{} contradicted on run {run}: {}",
                    v.label,
                    tier_name(&v.tier),
                    strategy_suffix(&v.strategy_facts),
                    w.describe(program)
                ),
            });
            continue;
        }
        if let Some(run) = evolution_contradicted {
            out.findings.push(Finding {
                kind: FindingKind::SoundnessViolation,
                label: v.label.clone(),
                loop_stmt: v.loop_stmt,
                witness: None,
                run,
                detail: format!(
                    "{}: evolution-retired check failed on live data in run {run}: the \
                     compile-time promotion to {} is unsound for this input",
                    v.label,
                    tier_name(&v.tier),
                ),
            });
            continue;
        }
        // Precision gap: a sequential verdict that never once showed an
        // unexplained dependence, on a loop that iterated enough for one
        // to manifest. I/O-blocked loops can never be parallel.
        let io_blocked = v.blockers.iter().any(|b| b.contains("i/o"));
        if config.mode == AuditMode::Full
            && !v.parallel
            && matches!(v.tier, DispatchTier::Sequential)
            && !io_blocked
            && max_iterations >= 2
            && !unexplained
        {
            out.findings.push(Finding {
                kind: FindingKind::PrecisionGap,
                label: v.label.clone(),
                loop_stmt: v.loop_stmt,
                witness: None,
                run: 0,
                detail: format!(
                    "{}: sequential verdict, but no dependence observed on {} run(s); \
                     blockers: {}",
                    v.label,
                    out.runs_completed,
                    if v.blockers.is_empty() {
                        "(none recorded)".to_string()
                    } else {
                        v.blockers.join("; ")
                    }
                ),
            });
        }
    }
    out.findings
        .sort_by_key(|f| (f.kind == FindingKind::PrecisionGap, f.label.clone()));
    out
}

/// Compiles `src` and audits the result.
///
/// # Errors
///
/// Returns the parse error if `src` is not a valid program.
pub fn audit_source(
    src: &str,
    opts: DriverOptions,
    config: &AuditConfig,
) -> Result<AuditReport, ParseError> {
    Ok(audit_report(&compile_source(src, opts)?, config))
}

/// The variables whose loop-carried dependences `v` already explains:
/// the induction variable, privatized scalars and arrays, and recognized
/// reductions.
fn exonerated_vars(program: &irr_frontend::Program, v: &LoopVerdict) -> HashSet<VarId> {
    let mut set: HashSet<VarId> = v
        .privatized_vars()
        .chain(v.reductions.iter().map(|(r, _)| *r))
        .collect();
    if let StmtKind::Do { var, .. } = &program.stmt(v.loop_stmt).kind {
        set.insert(*var);
    }
    set
}

fn rank(w: &DepWitness) -> (u64, usize, i64) {
    (w.distance(), w.element.unwrap_or(usize::MAX), w.src_iter)
}

fn tier_name(tier: &DispatchTier) -> &'static str {
    match tier {
        DispatchTier::CompileTimeParallel => "CompileTimeParallel",
        DispatchTier::RuntimeGuarded(_) => "RuntimeGuarded (guard passed)",
        DispatchTier::Sequential => "Sequential",
    }
}

/// The execution strategy a falsified verdict would have selected, so a
/// violation witness attributes not just the wrong tier but the exact
/// commit path (in-place writes, positional concat) the lie would have
/// driven — and, for in-place facts, the write shape they claimed.
/// Names match [`irr_exec::ExecutionStrategy::name`] and
/// [`StrategyFacts::name`].
fn strategy_suffix(facts: &StrategyFacts) -> String {
    match facts {
        StrategyFacts::None => String::new(),
        StrategyFacts::InPlace { .. } => {
            format!(" (strategy in-place-disjoint, {})", facts.name())
        }
        StrategyFacts::ConsecutiveAppend { .. } => " (strategy privatize-concat)".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_driver::{compile_source, DriverOptions, InPlaceTarget, WriteShape};

    fn cfg(mode: AuditMode) -> AuditConfig {
        AuditConfig {
            seed: 7,
            inputs: 4,
            mode,
        }
    }

    #[test]
    fn independent_program_audits_clean() {
        let src = "program t
             integer i, n
             real x(32), y(32)
             n = 32
             do 10 i = 1, n
               x(i) = y(i) * 2.0
 10          continue
             print x(1)
             end";
        let rep = audit_source(src, DriverOptions::with_iaa(), &cfg(AuditMode::Full)).unwrap();
        assert!(rep.is_sound(), "{:?}", rep.findings);
        assert_eq!(rep.runs_completed, 5);
        assert_eq!(rep.runs_failed, 0);
        assert!(rep.executions_traced >= 5);
        // The loop is correctly parallel, so it is not a precision gap.
        assert_eq!(rep.precision_gaps(), 0, "{:?}", rep.findings);
    }

    #[test]
    fn dependent_sequential_loop_is_not_a_violation() {
        let src = "program t
             integer i, n
             real x(32)
             n = 32
             do 10 i = 2, n
               x(i) = x(i - 1) + 1.0
 10          continue
             print x(32)
             end";
        let rep = audit_source(src, DriverOptions::with_iaa(), &cfg(AuditMode::Full)).unwrap();
        assert!(rep.is_sound(), "{:?}", rep.findings);
        // The dependence is real and observed, so no precision gap
        // either.
        assert_eq!(rep.precision_gaps(), 0, "{:?}", rep.findings);
    }

    #[test]
    fn injected_broken_verdict_is_caught_with_witness() {
        let src = "program t
             integer i, n
             real x(32)
             n = 32
             do 10 i = 2, n
               x(i) = x(i - 1) + 1.0
 10          continue
             print x(32)
             end";
        let mut rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
        let v = rep
            .verdicts
            .iter_mut()
            .find(|v| v.label == "T/do10")
            .unwrap();
        assert!(!v.parallel);
        v.parallel = true;
        v.tier = DispatchTier::CompileTimeParallel;
        let audit = audit_report(&rep, &cfg(AuditMode::Soundness));
        assert_eq!(audit.violations(), 1, "{:?}", audit.findings);
        let f = &audit.findings[0];
        assert_eq!(f.kind, FindingKind::SoundnessViolation);
        assert_eq!(f.label, "T/do10");
        let w = f.witness.expect("concrete witness");
        assert_eq!(w.distance(), 1);
        assert!(f.detail.contains("flow dependence on `x`"), "{}", f.detail);
    }

    #[test]
    fn forged_disjointness_verdict_names_the_strategy_in_the_witness() {
        // A lying analysis claims the flow-dependent loop writes
        // disjoint affine windows — the fact that would license the
        // zero-merge in-place strategy. The audit must both catch the
        // contradiction and attribute the exact commit path the forged
        // proof would have driven.
        let src = "program t
             integer i, n
             real x(32)
             n = 32
             do 10 i = 2, n
               x(i) = x(i - 1) + 1.0
 10          continue
             print x(32)
             end";
        let mut rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
        let x = rep.program.symbols.lookup("x").unwrap();
        let v = rep
            .verdicts
            .iter_mut()
            .find(|v| v.label == "T/do10")
            .unwrap();
        assert!(!v.parallel);
        v.parallel = true;
        v.tier = DispatchTier::CompileTimeParallel;
        v.strategy_facts = StrategyFacts::InPlace {
            targets: vec![InPlaceTarget {
                array: x,
                shape: WriteShape::Affine { off: 0 },
                read: true,
                always_written: true,
            }],
        };
        let audit = audit_report(&rep, &cfg(AuditMode::Soundness));
        assert_eq!(audit.violations(), 1, "{:?}", audit.findings);
        let f = &audit.findings[0];
        assert_eq!(f.kind, FindingKind::SoundnessViolation);
        assert_eq!(f.label, "T/do10");
        assert!(
            f.detail
                .contains("(strategy in-place-disjoint, disjoint-affine)"),
            "witness must name the strategy and the shape: {}",
            f.detail
        );
        assert!(f.detail.contains("flow dependence on `x`"), "{}", f.detail);
        assert_eq!(f.witness.expect("concrete witness").distance(), 1);
    }

    #[test]
    fn precision_gap_reported_only_in_full_mode() {
        // A call inside the loop blocks the analysis outright, but the
        // callee only touches per-iteration elements: dynamically the
        // loop is independent on every input. The callee is padded past
        // the inlining threshold (dead statements behind `i < 0`) so the
        // call survives the pass pipeline.
        let mut filler = String::new();
        for k in 0..60 {
            filler.push_str(&format!("  dummy({}) = {k}\n", k + 1));
        }
        let src = format!(
            "program t
             integer i, n, dummy(64)
             real b(32), c(32)
             n = 32
             do 10 i = 1, n
               call work
 10          continue
             print c(1)
             end
             subroutine work
               c(i) = b(i) * 2.0
               if (i < 0) then
{filler}               endif
             end"
        );
        let rep = compile_source(&src, DriverOptions::with_iaa()).unwrap();
        let v = rep.verdict("T/do10").unwrap();
        assert!(!v.parallel, "{v:?}");
        assert!(matches!(v.tier, DispatchTier::Sequential));
        assert!(v.blockers.iter().any(|b| b.contains("call")), "{v:?}");
        let full = audit_report(&rep, &cfg(AuditMode::Full));
        assert!(full.is_sound());
        assert!(
            full.findings
                .iter()
                .any(|f| f.kind == FindingKind::PrecisionGap && f.label == "T/do10"),
            "{:?}",
            full.findings
        );
        let sound = audit_report(&rep, &cfg(AuditMode::Soundness));
        assert!(
            !sound
                .findings
                .iter()
                .any(|f| f.kind == FindingKind::PrecisionGap),
            "{:?}",
            sound.findings
        );
    }

    #[test]
    fn figures_audit_clean() {
        for fig in figures() {
            let rep = audit_source(
                fig.source,
                DriverOptions::with_iaa(),
                &cfg(AuditMode::Soundness),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", fig.name));
            assert!(rep.is_sound(), "{}: {:?}", fig.name, rep.findings);
            assert!(rep.runs_completed >= 1, "{}", fig.name);
        }
    }
}
