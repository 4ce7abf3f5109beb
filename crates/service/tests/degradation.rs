//! Degradation-monotonicity property: on every sparse kernel, every
//! benchmark and every figure, each rung of the ladder is at least as
//! conservative as the one above it — a degraded verdict only ever
//! moves toward Sequential, never from Sequential toward parallel —
//! and the degraded reports still replay dependence-clean; a starved
//! analysis budget obeys the same rule.

use irr_core::AnalysisBudget;
use irr_programs::sparse::{kernels, producer_kernels, SparseScale};
use irr_programs::{paper_cases, Case, Scale};
use irr_sanitizer::{checks, AuditConfig, AuditMode};
use irr_service::{tier_rank, CompilationReport, DegradeLevel, DriverOptions};
use irr_sparse::Structure;
use std::collections::HashMap;

fn cases() -> Vec<Case> {
    let scale = SparseScale::test(Structure::Uniform, 0xdecaf);
    let sparse = kernels(&scale).into_iter().chain(producer_kernels(&scale));
    let mut out: Vec<Case> = sparse.map(|k| Case::from(&k)).collect();
    out.extend(paper_cases(Scale::Test));
    out
}

fn ranks(report: &CompilationReport) -> HashMap<String, u8> {
    report
        .verdicts
        .iter()
        .map(|v| (v.label.clone(), tier_rank(&v.tier)))
        .collect()
}

/// The check `sanitizer-audit`'s `ladder` sweep runs
/// (`irr_sanitizer::checks::ladder`): each rung at least as
/// conservative as the one above, the bottom rung claiming nothing,
/// and every rung's report replaying dependence-clean under shadow
/// tracing — the weaker verdicts are still sound, not merely different.
#[test]
fn every_rung_is_more_conservative_and_replays_dependence_clean() {
    let config = AuditConfig {
        inputs: 2,
        mode: AuditMode::Soundness,
        ..AuditConfig::default()
    };
    for case in cases() {
        let checked = checks::ladder(&case, &config);
        assert!(checked.violations.is_empty(), "{}: {checked:#?}", case.name);
    }
}

#[test]
fn starved_budgets_never_strengthen_a_verdict() {
    for case in cases() {
        let compile = |budget: Option<&AnalysisBudget>| {
            let program = irr_frontend::parse_program(&case.source).expect("case parses");
            DegradeLevel::Full.compile_at(program, DriverOptions::with_iaa(), budget)
        };
        let full = ranks(&compile(None));
        for fuel in [0, 64, 4096] {
            let budget = AnalysisBudget::limited(Some(fuel), None);
            let starved = compile(Some(&budget));
            for (label, rank) in ranks(&starved) {
                let Some(&full_rank) = full.get(&label) else {
                    continue;
                };
                assert!(
                    rank <= full_rank,
                    "{} (fuel {fuel}): {label} strengthened from {full_rank} to {rank}",
                    case.name
                );
            }
        }
    }
}
