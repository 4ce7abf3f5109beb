//! Shared code reproducing the paper's evaluation (Tables 2–3,
//! Fig. 16).
//!
//! The flow for every benchmark × compiler configuration:
//!
//! 1. compile the kernel with [`irr_driver::compile`] (verdicts name the
//!    parallel loops);
//! 2. pick the *outermost dynamically-disjoint* set of parallel loops
//!    (a loop inside another parallel loop — statically or through a
//!    call — executes within its parent's parallel region);
//! 3. interpret the transformed program, recording per-iteration costs
//!    of the chosen loops;
//! 4. feed the measured profile to the machine model.

use irr_driver::{CompilationReport, DriverOptions};
use irr_exec::{Interp, MachineModel, ProgramProfile};
use irr_frontend::{ProcId, Program, StmtId, StmtKind};
use std::collections::HashSet;

/// A compiler configuration of Fig. 16.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Config {
    /// Polaris + irregular array access analysis (the paper).
    WithIaa,
    /// Polaris without IAA.
    WithoutIaa,
    /// The SGI `-apo`-like baseline.
    Apo,
}

impl Config {
    /// All three configurations, strongest first.
    pub fn all() -> [Config; 3] {
        [Config::WithIaa, Config::WithoutIaa, Config::Apo]
    }

    /// Driver options for the configuration.
    pub fn options(self) -> DriverOptions {
        match self {
            Config::WithIaa => DriverOptions::with_iaa(),
            Config::WithoutIaa => DriverOptions::without_iaa(),
            Config::Apo => DriverOptions::apo(),
        }
    }

    /// Display label (as in Fig. 16's legend).
    pub fn label(self) -> &'static str {
        match self {
            Config::WithIaa => "Polaris+IAA",
            Config::WithoutIaa => "Polaris",
            Config::Apo => "APO",
        }
    }
}

/// Procedures transitively callable from the statements of `body`.
fn reachable_procs(program: &Program, body: &[StmtId]) -> HashSet<ProcId> {
    let mut out: HashSet<ProcId> = HashSet::new();
    let mut work: Vec<ProcId> = Vec::new();
    for s in program.stmts_in(body) {
        if let StmtKind::Call { proc } = &program.stmt(s).kind {
            if out.insert(*proc) {
                work.push(*proc);
            }
        }
    }
    while let Some(p) = work.pop() {
        for s in program.stmts_in(&program.procedures[p.index()].body) {
            if let StmtKind::Call { proc } = &program.stmt(s).kind {
                if out.insert(*proc) {
                    work.push(*proc);
                }
            }
        }
    }
    out
}

/// The set of parallel loops to actually run in parallel: parallel
/// verdicts whose loops are not dynamically enclosed by another chosen
/// parallel loop.
pub fn parallel_loop_set(report: &CompilationReport) -> Vec<StmtId> {
    let program = &report.program;
    let parallel: Vec<StmtId> = report
        .verdicts
        .iter()
        .filter(|v| v.parallel)
        .map(|v| v.loop_stmt)
        .collect();
    let mut chosen: Vec<StmtId> = Vec::new();
    for &s in &parallel {
        let enclosed = parallel.iter().any(|&outer| {
            if outer == s {
                return false;
            }
            let (StmtKind::Do { body, .. } | StmtKind::While { body, .. }) =
                &program.stmt(outer).kind
            else {
                return false;
            };
            // Statically nested?
            if program.stmts_in(body).contains(&s) {
                return true;
            }
            // Dynamically nested through calls?
            let reach = reachable_procs(program, body);
            reach.iter().any(|p| {
                program
                    .stmts_in(&program.procedures[p.index()].body)
                    .contains(&s)
            })
        });
        if !enclosed {
            chosen.push(s);
        }
    }
    chosen
}

/// A compiled-and-profiled benchmark under one configuration.
pub struct ProfiledRun {
    /// The compilation report.
    pub report: CompilationReport,
    /// The chosen parallel loop set.
    pub parallel: Vec<StmtId>,
    /// The measured profile.
    pub profile: ProgramProfile,
    /// The program's printed output.
    pub output: Vec<String>,
}

/// Compiles and profiles `source` under `config`.
///
/// # Panics
///
/// Panics if the source fails to parse or the program fails to execute —
/// benchmark kernels are trusted inputs.
pub fn profile_run(source: &str, config: Config) -> ProfiledRun {
    let report =
        irr_driver::compile_source(source, config.options()).expect("benchmark source parses");
    let parallel = parallel_loop_set(&report);
    let mut interp = Interp::new(&report.program);
    for &l in &parallel {
        interp.record_loops.insert(l);
    }
    let outcome = interp.run().expect("benchmark executes");
    let profile = ProgramProfile::from_stats(&outcome.stats, &parallel);
    ProfiledRun {
        report,
        parallel,
        profile,
        output: outcome.output,
    }
}

/// Speedup curve for the run on `machine` over the given processor
/// counts.
pub fn speedup_curve(run: &ProfiledRun, machine: &MachineModel, procs: &[usize]) -> Vec<f64> {
    procs
        .iter()
        .map(|&p| irr_exec::simulate_speedup(&run.profile, p, machine))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_programs::{all, Scale};

    #[test]
    fn parallel_set_excludes_nested_loops() {
        for b in all(Scale::Test) {
            let run = profile_run(&b.source, Config::WithIaa);
            let program = &run.report.program;
            // No chosen loop may contain another chosen loop.
            for &a in &run.parallel {
                for &c in &run.parallel {
                    if a == c {
                        continue;
                    }
                    let StmtKind::Do { body, .. } = &program.stmt(a).kind else {
                        continue;
                    };
                    assert!(
                        !program.stmts_in(body).contains(&c),
                        "{}: nested parallel loops chosen together",
                        b.name
                    );
                }
            }
        }
    }

    #[test]
    fn outputs_identical_across_configs() {
        for b in all(Scale::Test) {
            let outs: Vec<Vec<String>> = Config::all()
                .iter()
                .map(|c| profile_run(&b.source, *c).output)
                .collect();
            assert_eq!(outs[0], outs[1], "{}", b.name);
            assert_eq!(outs[0], outs[2], "{}", b.name);
        }
    }

    #[test]
    fn iaa_strictly_increases_coverage() {
        for b in all(Scale::Test) {
            let with = profile_run(&b.source, Config::WithIaa);
            let without = profile_run(&b.source, Config::WithoutIaa);
            assert!(
                with.profile.parallel_coverage() > without.profile.parallel_coverage(),
                "{}: coverage with IAA {} <= without {}",
                b.name,
                with.profile.parallel_coverage(),
                without.profile.parallel_coverage()
            );
        }
    }
}
