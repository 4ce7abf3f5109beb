//! The cross-checks, one function each: what `sanitizer-audit` runs
//! over its corpora and what the integration suites assert on theirs.
//!
//! Every check takes one [`Case`] and the [`AuditConfig`] and returns a
//! [`Checked`]: the line a report prints about the program, and what is
//! wrong with it, if anything. `sanitizer-audit` is a table of
//! `(sweep, corpus, checks)` rows over these functions; a test that
//! wants the same property on a smaller corpus calls the same function
//! and asserts [`Checked::violations`] is empty.
//!
//! | check | property | also asserted by |
//! |---|---|---|
//! | [`replay`] | every parallel verdict survives shadow replay on pristine and randomized inputs, no run fails | `tests/sparse_suite.rs::sanitizer_confirms_every_promotion` |
//! | [`chaos`] | under seeded fault schedules the hybrid run reproduces the sequential one ([`first_divergence`]) and every fault is attributed | `tests/chaos.rs::randomized_chaos_sweep_preserves_sequential_semantics` |
//! | [`promotion`], [`interproc_promotion`] | a consumer loop is compile-time parallel owing to retired checks (flagged `promoted_interproc`) | `tests/sparse_suite.rs::producer_kernels_promote_across_structures` |
//! | [`ladder`] | descending the degradation ladder never strengthens a verdict, every rung replays clean, the bottom rung claims nothing | `crates/service/tests/degradation.rs` |
//! | [`compiled`] | [`CompiledDispatch`] reproduces the tree-walk exactly, privatized scratch included | `tests/strategy_parity.rs` (its three corpus tests) |

use crate::audit::{audit_report_seeded, AuditConfig, AuditReport, FindingKind};
use crate::parity::{dispatched, first_divergence, sequential, store_divergence, Reals};
use irr_driver::ladder::{tier_rank, DegradeLevel};
use irr_driver::{compile_source, CompilationReport, DispatchTier, DriverOptions};
use irr_exec::{ArrayData, CompiledDispatch, FaultPlan};
use irr_frontend::VarId;
use irr_programs::Case;
use irr_runtime::{run_hybrid_seeded, HybridConfig, HybridDispatcher};
use std::collections::{HashMap, HashSet};

/// What one check found about one program.
#[derive(Clone, Debug, Default)]
pub struct Checked {
    /// What a report prints after the program's name.
    pub summary: String,
    /// Everything that is wrong, one line each; empty when the program
    /// passes the check.
    pub violations: Vec<String>,
    /// Precision gaps ([`crate::AuditMode::Full`] only): informational.
    pub gaps: Vec<String>,
    /// Whether the program gave the check anything to bite on (a traced
    /// loop execution, a fired fault, a typed loop entry, a promoted
    /// loop, a verdict the ladder weakened). A whole corpus that never
    /// does is a vacuous sweep: the mechanism under test has gone.
    pub exercised: bool,
}

/// The signature every check has.
pub type Check = fn(&Case, &AuditConfig) -> Checked;

type Presets = Vec<(VarId, ArrayData)>;

/// Most fault schedules [`chaos`] replays per program (fewer when the
/// configuration asks for fewer randomized inputs): every stall costs
/// wall-clock time.
const CHAOS_SCHEDULES: u32 = 5;
/// 40 % of dispatch sites draw a fault.
const FAULT_RATE_PER_MILLE: u32 = 400;
/// Stalls sleep well past the watchdog's deadline.
const STALL_MS: u64 = 150;

/// The thread count is pinned wherever a check counts or addresses
/// chunks (a fault schedule draws chunk indices below it), so the same
/// seed gives the same report on every host.
fn pinned() -> HybridConfig {
    HybridConfig {
        threads: 4,
        ..HybridConfig::default()
    }
}

/// Compiles the case with the full analysis. A source that does not
/// parse is the check's one violation.
fn compile(case: &Case) -> Result<(CompilationReport, Presets), Checked> {
    match compile_source(&case.source, DriverOptions::with_iaa()) {
        Ok(rep) => {
            let presets = case.resolve_presets(&rep.program);
            Ok((rep, presets))
        }
        Err(e) => Err(Checked {
            summary: "does not parse".into(),
            violations: vec![format!("parse error: {e}")],
            ..Checked::default()
        }),
    }
}

/// What a shadow replay contradicted, as violation lines: the
/// soundness findings, and the runs an interpreter error aborted.
fn replay_violations(audit: &AuditReport) -> Vec<String> {
    let failed =
        (audit.runs_failed > 0).then(|| format!("{} replay run(s) failed", audit.runs_failed));
    let contradicted = audit
        .findings
        .iter()
        .filter(|f| f.kind == FindingKind::SoundnessViolation);
    contradicted
        .map(|f| f.detail.clone())
        .chain(failed)
        .collect()
}

/// Shadow replay: the program's verdicts against the dependences its
/// runs exhibit, on pristine and randomized inputs
/// ([`audit_report_seeded`]). The summary ends with how one hybrid run
/// of the program committed its parallel dispatches — in place, by
/// concatenation, through the write-log: the running answer to "what
/// still needs the log".
pub fn replay(case: &Case, config: &AuditConfig) -> Checked {
    let (rep, presets) = match compile(case) {
        Ok(compiled) => compiled,
        Err(checked) => return checked,
    };
    let audit = audit_report_seeded(&rep, config, &presets);
    let commits = match run_hybrid_seeded(&rep, pinned(), &presets) {
        Ok(out) => {
            let t = out.telemetry;
            format!(
                "{} in place, {} concat, {} write-log, {} fallback(s)",
                t.strategy_in_place,
                t.strategy_concat,
                t.strategy_write_log,
                t.fallbacks()
            )
        }
        Err(e) => format!("hybrid run failed: {e}"),
    };
    let gaps = audit
        .findings
        .iter()
        .filter(|f| f.kind == FindingKind::PrecisionGap);
    Checked {
        summary: format!(
            "{} loop(s) audited, {} traced execution(s), {} run(s) ok, {} failed, \
             {} violation(s), {} precision gap(s); commits: {commits}",
            audit.loops_audited,
            audit.executions_traced,
            audit.runs_completed,
            audit.runs_failed,
            audit.violations(),
            audit.precision_gaps(),
        ),
        violations: replay_violations(&audit),
        gaps: gaps.map(|f| f.detail.clone()).collect(),
        exercised: audit.executions_traced > 0,
    }
}

/// Seeded chaos: the program through the hybrid runtime under up to
/// five randomized fault schedules (forged conflicts, worker panics,
/// stalls past the watchdog, inspector lies). Every run must complete
/// and reproduce the sequential run ([`first_divergence`], reals modulo
/// reassociation), and every fired fault must show up under its reason
/// code: panics exactly, stalls at least (an honest worker the OS
/// deschedules past the deadline is a legitimate extra timeout),
/// conflicts between the forged ones and forged plus lied (a lie about a
/// schedule that happened to be conflict-free costs nothing), and no
/// chunk-shape disagreement at all.
pub fn chaos(case: &Case, config: &AuditConfig) -> Checked {
    let (rep, presets) = match compile(case) {
        Ok(compiled) => compiled,
        Err(checked) => return checked,
    };
    let hybrid = HybridConfig {
        worker_deadline_ms: Some(50),
        quarantine_retries: 1,
        ..pinned()
    };
    let schedules = config.inputs.min(CHAOS_SCHEDULES);
    let mut checked = Checked::default();
    let mut fired = 0;
    let seq = match sequential(&rep, &presets) {
        Ok(seq) => seq,
        Err(e) => {
            checked
                .violations
                .push(format!("sequential run failed: {e}"));
            return checked;
        }
    };
    for i in 0..u64::from(schedules) {
        let seed = config.seed.wrapping_add(i).wrapping_mul(2).wrapping_add(1);
        let mut dispatcher = HybridDispatcher::new(&rep, hybrid);
        dispatcher.set_fault_plan(FaultPlan::randomized(seed, FAULT_RATE_PER_MILLE, STALL_MS));
        let got = match dispatched(&rep, &presets, &mut dispatcher) {
            Ok(got) => got,
            Err(e) => {
                let aborted = format!("chaos seed {seed}: run aborted: {e}");
                checked.violations.push(aborted);
                continue;
            }
        };
        let plan = dispatcher.take_fault_plan().expect("attached above");
        fired += plan.fired().len();
        let mut wrong = first_divergence(&rep, &seq, &got, Reals::Reassociated);
        let t = &dispatcher.telemetry;
        let count = |kind: &str| plan.fired_count(kind) as u64;
        let (forged, lied) = (count("forge-conflict"), count("lie-inspector"));
        if wrong.is_none()
            && (t.fallback_panic != count("panic-worker")
                || t.fallback_timeout < count("stall-worker")
                || !(forged..=forged + lied).contains(&t.fallback_conflict))
        {
            wrong = Some(format!("faults misattributed: {:?} vs {t:?}", plan.fired()));
        }
        checked
            .violations
            .extend(wrong.map(|w| format!("chaos seed {seed}: {w}")));
    }
    checked.summary = format!(
        "chaos, {schedules} schedule(s), {fired} fault(s) fired, {} parity break(s)",
        checked.violations.len()
    );
    checked.exercised = fired > 0;
    checked
}

/// The loops the value-evolution analysis promoted: compile-time
/// parallel with at least one residual check retired.
fn promotion_gate(case: &Case, interprocedural: bool) -> Checked {
    let (rep, _) = match compile(case) {
        Ok(compiled) => compiled,
        Err(checked) => return checked,
    };
    let promoted: Vec<_> = rep
        .verdicts
        .iter()
        .filter(|v| matches!(v.tier, DispatchTier::CompileTimeParallel))
        .filter(|v| !v.retired_checks.is_empty())
        .collect();
    let retired: usize = promoted.iter().map(|v| v.retired_checks.len()).sum();
    let mut checked = Checked {
        summary: format!(
            "{} loop(s) promoted, {retired} check(s) retired",
            promoted.len()
        ),
        exercised: !promoted.is_empty(),
        ..Checked::default()
    };
    if promoted.is_empty() {
        let why = "no loop promoted — every consumer is back on its runtime guard";
        checked.violations.push(why.into());
    }
    if interprocedural {
        let unflagged = promoted.iter().filter(|v| !v.promoted_interproc);
        checked.violations.extend(
            unflagged.map(|v| format!("{}: promotion not flagged promoted_interproc", v.label)),
        );
        checked.summary.push_str(", interprocedurally");
    }
    checked
}

/// The promotion gate for a producer-loop kernel: some loop of the
/// program must be compile-time parallel owing to checks the
/// value-evolution analysis retired — none means the analysis silently
/// regressed to runtime guarding. ([`replay`] then re-evaluates every
/// retired check against the live store.)
pub fn promotion(case: &Case, _: &AuditConfig) -> Checked {
    promotion_gate(case, false)
}

/// [`promotion`] for a call-structured kernel, whose producers live in
/// a subroutine the inliner never flattens: the consumer promotes only
/// through the interprocedural summaries, so every promotion must also
/// carry the `promoted_interproc` flag.
pub fn interproc_promotion(case: &Case, _: &AuditConfig) -> Checked {
    promotion_gate(case, true)
}

/// The degradation ladder: the program compiled at every rung (full →
/// summaries-off → evolution-off → parse-only). Descending a rung must
/// never move a loop *toward* parallel, every rung's report must still
/// replay dependence-clean (presets resolved against that rung's own
/// program), and the bottom rung, which analyses nothing, must claim
/// nothing.
pub fn ladder(case: &Case, config: &AuditConfig) -> Checked {
    let mut checked = Checked::default();
    let mut above: Option<(DegradeLevel, HashMap<String, u8>)> = None;
    for level in DegradeLevel::ALL {
        let program = match irr_frontend::parse_program(&case.source) {
            Ok(program) => program,
            Err(e) => {
                checked.violations.push(format!("parse error: {e}"));
                break;
            }
        };
        let rep = level.compile_at(program, DriverOptions::with_iaa(), None);
        let ranks: HashMap<String, u8> = rep
            .verdicts
            .iter()
            .map(|v| (v.label.clone(), tier_rank(&v.tier)))
            .collect();
        if let Some((upper, upper_ranks)) = &above {
            for (label, rank) in &ranks {
                let Some(upper_rank) = upper_ranks.get(label) else {
                    continue;
                };
                checked.exercised |= rank < upper_rank;
                if rank > upper_rank {
                    checked.violations.push(format!(
                        "{label} strengthened from rank {upper_rank} ({}) to rank {rank} ({})",
                        upper.name(),
                        level.name()
                    ));
                }
            }
        }
        if level == DegradeLevel::ParseOnly && rep.verdicts.iter().any(|v| v.parallel) {
            let claimed = "parse-only emitted a parallel verdict";
            checked.violations.push(claimed.into());
        }
        let audit = audit_report_seeded(&rep, config, &case.resolve_presets(&rep.program));
        let contradicted = replay_violations(&audit).into_iter();
        checked
            .violations
            .extend(contradicted.map(|v| format!("at {}: {v}", level.name())));
        let gaps = audit
            .findings
            .iter()
            .filter(|f| f.kind == FindingKind::PrecisionGap);
        checked
            .gaps
            .extend(gaps.map(|f| format!("at {}: {}", level.name(), f.detail)));
        above = Some((level, ranks));
    }
    checked.summary = format!(
        "{} rung(s), {} violation(s)",
        DegradeLevel::ALL.len(),
        checked.violations.len()
    );
    checked
}

/// The compiled tier against the tree-walk: the program once on the
/// sequential tree-walk and once with every dynamic loop entry forced
/// through [`CompiledDispatch`] (the typed loop where the nest lowers
/// and types, reason-coded fallback to the tree-walk where it does
/// not). The tier's contract is exact replay, so there is no tolerance
/// ([`Reals::Exact`]) and no exemption: both runs are sequential, so
/// even the scratch the verdicts privatize must agree. The summary says
/// how many entries the typed loop ran, how many fell back, and how
/// many loop entries — inner ones included — a stream fast-forwarded
/// over how many iterations, so a nest sliding off the typed loop or
/// off its stream shows in the log.
pub fn compiled(case: &Case, _: &AuditConfig) -> Checked {
    let (rep, presets) = match compile(case) {
        Ok(compiled) => compiled,
        Err(checked) => return checked,
    };
    let mut dispatch = CompiledDispatch::new();
    let runs = (
        sequential(&rep, &presets),
        dispatched(&rep, &presets, &mut dispatch),
    );
    let (streamed, iters) = runs.1.as_ref().map_or((0, 0), |comp| {
        (comp.stats.stream_entries, comp.stats.stream_iters)
    });
    let diverged = match runs {
        (Ok(seq), Ok(comp)) => first_divergence(&rep, &seq, &comp, Reals::Exact).or_else(|| {
            let none = HashSet::new();
            store_divergence(&rep.program, &none, &seq.store, &comp.store, Reals::Exact)
        }),
        (Err(e), _) => Some(format!("sequential run failed: {e}")),
        (_, Err(e)) => Some(format!("compiled run failed: {e}")),
    };
    Checked {
        summary: format!(
            "{} loop entr(ies) typed, {} fallback(s), {streamed} streamed over {iters} iteration(s), {}",
            dispatch.compiled,
            dispatch.fallback_count(),
            if diverged.is_none() {
                "byte-identical"
            } else {
                "DIVERGED"
            }
        ),
        violations: diverged.into_iter().collect(),
        gaps: Vec::new(),
        exercised: dispatch.compiled > 0,
    }
}
