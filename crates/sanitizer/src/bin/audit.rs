//! `sanitizer-audit`: replay the benchmark suite and the paper figures
//! under shadow-memory tracing and cross-check every loop verdict.
//!
//! ```text
//! sanitizer-audit [--mode soundness|full] [--seed N] [--inputs N]
//!                 [--scale test|paper] [--only SUBSTR] [--chaos N]
//!                 [--sparse N] [--evolution] [--interproc]
//! ```
//!
//! `--chaos N` additionally replays every target under `N` seeded
//! random fault schedules (forged conflicts, worker panics, stalls,
//! inspector lies) through the hybrid runtime and checks that each run
//! still completes with sequential semantics; a parity break counts as
//! a violation.
//!
//! `--sparse N` additionally audits `N` generated sparse-kernel
//! programs (cycling kernels × matrix structures with per-sample
//! seeds), presetting each program's index arrays from the matrix
//! generator so the guards inspect real CRS/CCS structure.
//!
//! `--evolution` audits the producer-loop sparse kernels — programs
//! whose index arrays are built by in-program loops so the
//! value-evolution analysis promotes the consumers to compile-time
//! parallel. The shadow tracer replays every retired check against the
//! live store; a contradicted promotion is a soundness violation, and
//! so is a sweep in which *no* consumer promotes (the analysis has
//! silently regressed to runtime guarding).
//!
//! `--interproc` audits the call-structured kernels — producers that
//! live out of line in a subroutine, so only the interprocedural
//! summaries can promote the consumers. Same rules as `--evolution`,
//! plus each promotion must be flagged `promoted_interproc`; a sweep
//! with zero surviving interprocedural promotions is a violation.
//!
//! `--compiled` differentially audits the compiled execution tier:
//! every target (benchmarks, figures, a sparse-kernel sweep, and a
//! batch of SplitMix64-randomized loop programs) runs once on the
//! sequential tree-walk and once with every eligible loop forced
//! through the compiled tier's chunk entry. The two runs must be
//! **byte-identical** — same store bits, same printed output, same
//! fuel accounting per loop — and the typed loop must finish at least
//! one loop entry of the sweep, or the tier has silently regressed to
//! the tree-walk; typed and walked entries are printed per program.
//!
//! `--ladder` compiles every target (benchmarks, figures, and one
//! sparse-kernel sweep) at every rung of the service degradation
//! ladder (full → summaries-off → evolution-off → parse-only) and
//! checks two things per rung: the verdicts are monotone — descending
//! a rung never moves any loop *toward* parallel — and the degraded
//! report still replays dependence-clean under shadow tracing. A
//! strengthened verdict or a contradicted degraded verdict is a
//! violation.
//!
//! Every audited program's line ends with how one hybrid run of it
//! (four chunks) committed its parallel dispatches — in place, by
//! concatenation, through the write-log — and the kernel sweeps name
//! the main loop's strategy facts: the running answer to "what still
//! needs the log".
//!
//! Exits nonzero iff any soundness violation is found, so the command
//! doubles as a CI gate. Precision gaps (full mode) are informational.

use irr_driver::ladder::{tier_rank, DegradeLevel};
use irr_driver::{compile_source, CompilationReport, DispatchTier, DriverOptions, LoopVerdict};
use irr_exec::{CompiledDispatch, FaultPlan, Interp, SplitMix64, Store, Value};
use irr_programs::fuzz::random_loop_program;
use irr_programs::sparse::{
    interproc_kernels, kernels, producer_kernels, SparseProgram, SparseScale, STRUCTURES,
};
use irr_programs::{named_sources, Scale};
use irr_runtime::{run_hybrid_seeded, run_hybrid_with_faults, HybridConfig};
use irr_sanitizer::{
    audit_report, audit_report_seeded, AuditConfig, AuditMode, AuditReport, FindingKind,
};
use irr_sparse::Structure;

fn main() {
    let mut config = AuditConfig {
        mode: AuditMode::Soundness,
        ..AuditConfig::default()
    };
    let mut scale = Scale::Test;
    let mut only: Option<String> = None;
    let mut chaos = 0usize;
    let mut sparse = 0usize;
    let mut evolution = false;
    let mut interproc = false;
    let mut ladder = false;
    let mut compiled = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--mode" => {
                config.mode = match value("--mode").as_str() {
                    "soundness" => AuditMode::Soundness,
                    "full" => AuditMode::Full,
                    other => die(&format!("unknown mode `{other}`")),
                }
            }
            "--seed" => {
                config.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| die("--seed needs an integer"))
            }
            "--inputs" => {
                config.inputs = value("--inputs")
                    .parse()
                    .unwrap_or_else(|_| die("--inputs needs an integer"))
            }
            "--scale" => {
                scale = match value("--scale").as_str() {
                    "test" => Scale::Test,
                    "paper" => Scale::Paper,
                    other => die(&format!("unknown scale `{other}`")),
                }
            }
            "--only" => only = Some(value("--only")),
            "--chaos" => {
                chaos = value("--chaos")
                    .parse()
                    .unwrap_or_else(|_| die("--chaos needs an integer"))
            }
            "--sparse" => {
                sparse = value("--sparse")
                    .parse()
                    .unwrap_or_else(|_| die("--sparse needs an integer"))
            }
            "--evolution" => evolution = true,
            "--interproc" => interproc = true,
            "--ladder" => ladder = true,
            "--compiled" => compiled = true,
            "--help" | "-h" => {
                println!(
                    "sanitizer-audit [--mode soundness|full] [--seed N] [--inputs N] \
                     [--scale test|paper] [--only SUBSTR] [--chaos N] [--sparse N] \
                     [--evolution] [--interproc] [--ladder] [--compiled]"
                );
                return;
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }

    let mut targets = named_sources(scale);
    if let Some(filter) = &only {
        targets.retain(|(name, _)| name.contains(filter.as_str()));
    }

    let mode = match config.mode {
        AuditMode::Soundness => "soundness",
        AuditMode::Full => "full",
    };
    println!(
        "sanitizer-audit: mode {mode}, seed {}, 1 pristine + {} randomized input(s) per program",
        config.seed, config.inputs
    );
    let mut total_violations = 0usize;
    let mut total_gaps = 0usize;
    for (name, src) in &targets {
        let rep = match compile_source(src, DriverOptions::with_iaa()) {
            Ok(r) => r,
            Err(e) => die(&format!("{name}: parse error: {e}")),
        };
        let audit = audit_report(&rep, &config);
        println!(
            "{name}: {} loop(s) audited, {} traced execution(s), {} run(s) ok, {} failed, \
             {} violation(s), {} precision gap(s); commits: {}",
            audit.loops_audited,
            audit.executions_traced,
            audit.runs_completed,
            audit.runs_failed,
            audit.violations(),
            audit.precision_gaps(),
            commits(&rep, &[]),
        );
        print_findings(&audit);
        total_violations += audit.violations();
        total_gaps += audit.precision_gaps();
        if chaos > 0 {
            total_violations += chaos_sweep(name, &rep, config.seed, chaos);
        }
    }
    let mut audited = targets.len();
    let mut sweeps = Vec::new();
    if sparse > 0 {
        println!("sparse sweep: {sparse} generated kernel program(s)");
        sweeps.push(kernel_sweep(
            &config,
            "sparse",
            kernels,
            3,
            Some(sparse),
            None,
        ));
    }
    if evolution {
        println!(
            "evolution sweep: producer-loop kernels, {} structure(s)",
            STRUCTURES.len()
        );
        sweeps.push(kernel_sweep(
            &config,
            "evolution",
            producer_kernels,
            5,
            None,
            Some(&EVOLUTION_GATE),
        ));
    }
    if interproc {
        println!(
            "interproc sweep: call-structured kernels, {} structure(s)",
            STRUCTURES.len()
        );
        sweeps.push(kernel_sweep(
            &config,
            "interproc",
            interproc_kernels,
            7,
            None,
            Some(&INTERPROC_GATE),
        ));
    }
    if ladder {
        sweeps.push(ladder_sweep(&config, &targets));
    }
    for (sampled, violations, gaps) in sweeps {
        audited += sampled;
        total_violations += violations;
        total_gaps += gaps;
    }
    if compiled {
        let (sampled, violations) = compiled_sweep(&config, &targets);
        audited += sampled;
        total_violations += violations;
    }
    println!(
        "sanitizer-audit: {audited} program(s), {total_violations} violation(s), {total_gaps} \
         precision gap(s)"
    );
    if total_violations > 0 {
        std::process::exit(1);
    }
}

/// How one hybrid run of `rep` commits its parallel dispatches, per
/// strategy: what still goes through the write-log is what the
/// in-place shapes and the concat proof do not cover.
fn commits(
    rep: &CompilationReport,
    presets: &[(irr_frontend::VarId, irr_exec::ArrayData)],
) -> String {
    // Pinned like the chaos sweep's, so the line repeats on every host.
    let config = HybridConfig {
        threads: 4,
        ..HybridConfig::default()
    };
    match run_hybrid_seeded(rep, config, presets) {
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
    }
}

/// Prints one line per finding of an audit, tagged by kind.
fn print_findings(audit: &AuditReport) {
    for f in &audit.findings {
        let tag = match f.kind {
            FindingKind::SoundnessViolation => "VIOLATION",
            FindingKind::PrecisionGap => "precision-gap",
        };
        println!("  [{tag}] {}", f.detail);
    }
}

/// How a kernel sweep judges each kernel's consumer loop, and what a
/// sweep in which no consumer passes means. A sweep without a gate only
/// replays.
struct PromotionGate {
    /// Judges the consumer's verdict (`None` unless it is compile-time
    /// parallel), before the replay.
    judge: fn(Option<&LoopVerdict>) -> Promotion,
    /// A promotion only counts when its replay comes back clean.
    must_survive: bool,
    /// Suffix of the closing "N/M consumer loop(s) promoted" line.
    how: &'static str,
    /// What a sweep with zero promotions reports as regressed.
    regressed: &'static str,
}

/// One kernel's promotion, as its [`PromotionGate::judge`] sees it.
struct Promotion {
    /// Spliced into the kernel's report line.
    detail: String,
    /// A defect of the promotion itself.
    violation: Option<&'static str>,
    promoted: bool,
}

/// `--evolution`: every consumer loop the value-evolution analysis
/// promoted is replayed with its retired checks re-evaluated against
/// the live store; zero promotions means the analysis silently degraded
/// to runtime guards.
const EVOLUTION_GATE: PromotionGate = PromotionGate {
    judge: |consumer| {
        let retired = consumer.map_or(0, |v| v.retired_checks.len());
        Promotion {
            detail: format!("{retired} retired check(s), "),
            violation: None,
            promoted: retired > 0,
        }
    },
    must_survive: false,
    how: "",
    regressed: "no promotions — value-evolution analysis regressed",
};

/// `--interproc`: the index-array producers live in a subroutine the
/// inliner never flattens, so the consumer promotes *only* through the
/// interprocedural property summaries. Every promotion must carry the
/// `promoted_interproc` flag and survive the replay.
const INTERPROC_GATE: PromotionGate = PromotionGate {
    judge: |consumer| {
        let retired = consumer.map_or(0, |v| v.retired_checks.len());
        let flagged = consumer.is_some_and(|v| v.promoted_interproc);
        Promotion {
            detail: format!("{retired} retired check(s), interproc {flagged}, "),
            violation: (retired > 0 && !flagged)
                .then_some("promotion not flagged promoted_interproc"),
            promoted: retired > 0 && flagged,
        }
    },
    must_survive: true,
    how: " interprocedurally",
    regressed: "no surviving interprocedural promotions — the summary layer regressed",
};

/// Audits generated sparse-kernel programs from `kernels` across the
/// three matrix structures — one pass, or with `samples = Some(n)`
/// cycling the structures with a fresh generator seed per round until
/// `n` programs are sampled. Each program's index arrays are preset
/// from the generated matrix before every replay, so the traced runs
/// exercise the same CRS/CCS structure the runtime guards inspect.
/// Counts a violation for every contradicted verdict or failed run,
/// and under a `gate` for every defective promotion plus one if the
/// sweep produces *zero* promotions. Returns `(programs audited,
/// violations, precision gaps)`.
fn kernel_sweep(
    config: &AuditConfig,
    tag: &str,
    kernels: fn(&SparseScale) -> Vec<SparseProgram>,
    seed_mul: u64,
    samples: Option<usize>,
    gate: Option<&PromotionGate>,
) -> (usize, usize, usize) {
    let mut violations = 0usize;
    let mut gaps = 0usize;
    let mut sampled = 0usize;
    let mut promoted = 0usize;
    let rounds = if samples.is_some() {
        usize::MAX
    } else {
        STRUCTURES.len()
    };
    'rounds: for i in 0..rounds {
        let structure = STRUCTURES[i % STRUCTURES.len()];
        let seed = config.seed.wrapping_add(i as u64).wrapping_mul(seed_mul) | 1;
        for k in kernels(&SparseScale::test(structure, seed)) {
            if samples == Some(sampled) {
                break 'rounds;
            }
            let rep = match compile_source(&k.source, DriverOptions::with_iaa()) {
                Ok(r) => r,
                Err(e) => die(&format!("{tag} {}: parse error: {e}", k.name)),
            };
            let judged = gate.map(|g| {
                let consumer = rep
                    .verdict(&k.label)
                    .filter(|v| matches!(v.tier, DispatchTier::CompileTimeParallel));
                (g, (g.judge)(consumer))
            });
            if let Some(why) = judged.as_ref().and_then(|(_, p)| p.violation) {
                println!("  [VIOLATION] {tag} {}: {why}", k.name);
                violations += 1;
            }
            let presets = k.resolve_presets(&rep.program);
            let audit = audit_report_seeded(&rep, config, &presets);
            println!(
                "{tag} {} ({}, seed {seed}): {}{} loop(s) audited, {} run(s) ok, {} failed, \
                 {} violation(s), {} precision gap(s); facts {}, commits: {}",
                k.name,
                structure.tag(),
                judged.as_ref().map_or("", |(_, p)| p.detail.as_str()),
                audit.loops_audited,
                audit.runs_completed,
                audit.runs_failed,
                audit.violations(),
                audit.precision_gaps(),
                rep.verdict(&k.label)
                    .map_or("none", |v| v.strategy_facts.name()),
                commits(&rep, &presets),
            );
            print_findings(&audit);
            if audit.runs_failed > 0 {
                println!(
                    "  [VIOLATION] {tag} {}: {} run(s) failed",
                    k.name, audit.runs_failed
                );
                violations += audit.runs_failed as usize;
            }
            let clean = audit.violations() == 0 && audit.runs_failed == 0;
            if judged.is_some_and(|(g, p)| p.promoted && (clean || !g.must_survive)) {
                promoted += 1;
            }
            violations += audit.violations();
            gaps += audit.precision_gaps();
            sampled += 1;
        }
    }
    if let Some(g) = gate {
        println!(
            "{tag} sweep: {promoted}/{sampled} consumer loop(s) promoted{}",
            g.how
        );
        if promoted == 0 {
            println!("  [VIOLATION] {tag} sweep: {}", g.regressed);
            violations += 1;
        }
    }
    (sampled, violations, gaps)
}

/// Compiles every target plus one sparse-kernel set at every rung of
/// the service degradation ladder and checks, per rung:
///
/// - **monotonicity** — descending a rung never moves any loop's
///   dispatch tier toward parallel (Sequential stays Sequential, a
///   runtime-guarded loop may only stay or fall to Sequential);
/// - **soundness** — the degraded report still replays
///   dependence-clean under shadow tracing.
///
/// Returns `(programs audited, violations, precision gaps)` where one
/// program counts once regardless of rungs.
fn ladder_sweep(config: &AuditConfig, targets: &[(String, String)]) -> (usize, usize, usize) {
    type Presets = Vec<(irr_frontend::VarId, irr_exec::ArrayData)>;
    let mut cases: Vec<(String, String, Presets)> = Vec::new();
    let mut violations = 0usize;
    let mut gaps = 0usize;
    for (name, src) in targets {
        cases.push((name.clone(), src.clone(), Vec::new()));
    }
    let scale = SparseScale::test(Structure::Uniform, config.seed | 1);
    let mut sparse_presets: Vec<(String, irr_programs::sparse::SparseProgram)> = Vec::new();
    for k in kernels(&scale) {
        sparse_presets.push((format!("sparse/{}", k.name), k));
    }
    println!(
        "ladder sweep: {} program(s) x {} rung(s)",
        cases.len() + sparse_presets.len(),
        DegradeLevel::ALL.len()
    );

    let audit_rungs = |name: &str,
                       src: &str,
                       presets: &[(irr_frontend::VarId, irr_exec::ArrayData)]|
     -> (usize, usize) {
        let mut violations = 0usize;
        let mut gaps = 0usize;
        let mut prev: Option<(DegradeLevel, std::collections::HashMap<String, u8>)> = None;
        for level in DegradeLevel::ALL {
            let program = match irr_frontend::parse_program(src) {
                Ok(p) => p,
                Err(e) => die(&format!("ladder {name}: parse error: {e}")),
            };
            let rep = level.compile_at(program, DriverOptions::with_iaa(), None);
            let ranks: std::collections::HashMap<String, u8> = rep
                .verdicts
                .iter()
                .map(|v| (v.label.clone(), tier_rank(&v.tier)))
                .collect();
            if let Some((prev_level, prev_ranks)) = &prev {
                for (label, rank) in &ranks {
                    if let Some(prev_rank) = prev_ranks.get(label) {
                        if rank > prev_rank {
                            println!(
                                "  [VIOLATION] ladder {name}: {label} strengthened from rank \
                                 {prev_rank} ({}) to rank {rank} ({})",
                                prev_level.name(),
                                level.name()
                            );
                            violations += 1;
                        }
                    }
                }
            }
            let audit = audit_report_seeded(&rep, config, presets);
            if audit.violations() > 0 || audit.runs_failed > 0 {
                for f in &audit.findings {
                    if f.kind == FindingKind::SoundnessViolation {
                        println!(
                            "  [VIOLATION] ladder {name} at {}: {}",
                            level.name(),
                            f.detail
                        );
                    }
                }
                violations += audit.violations() + audit.runs_failed as usize;
            }
            gaps += audit.precision_gaps();
            prev = Some((level, ranks));
        }
        (violations, gaps)
    };

    for (name, src, presets) in &cases {
        let (v, g) = audit_rungs(name, src, presets);
        violations += v;
        gaps += g;
        println!(
            "ladder {name}: {} rung(s), {v} violation(s)",
            DegradeLevel::ALL.len()
        );
    }
    let mut sampled = cases.len();
    for (name, k) in &sparse_presets {
        let rep = match compile_source(&k.source, DriverOptions::with_iaa()) {
            Ok(r) => r,
            Err(e) => die(&format!("ladder {name}: parse error: {e}")),
        };
        let presets = k.resolve_presets(&rep.program);
        let (v, g) = audit_rungs(name, &k.source, &presets);
        violations += v;
        gaps += g;
        println!(
            "ladder {name}: {} rung(s), {v} violation(s)",
            DegradeLevel::ALL.len()
        );
        sampled += 1;
    }
    (sampled, violations, gaps)
}

/// Differentially audits the compiled execution tier. Every corpus
/// program — the CLI targets, one generated sparse-kernel set (index
/// arrays preset from the matrix generator), and a batch of
/// SplitMix64-randomized loop programs — runs once on the sequential
/// tree-walk and once with every dynamic loop entry forced through
/// [`CompiledDispatch`] (the typed loop where the nest lowers and
/// types, reason-coded fallback to the tree-walk where it does not).
/// The two runs must agree **byte for byte**: store bits, output
/// lines, total fuel, and per-loop statistics — the compiled tier's
/// contract is exact replay, so there is no tolerance. Each program's
/// line says how many entries the typed loop finished and how many
/// the chunk entry walked throughout, so a nest sliding from one to
/// the other shows in the log; a sweep in which the typed loop
/// finished *zero* entries is itself a violation: the tier has
/// silently regressed to the tree-walk. Returns `(programs audited,
/// violations)`.
fn compiled_sweep(config: &AuditConfig, targets: &[(String, String)]) -> (usize, usize) {
    const RANDOM_PROGRAMS: usize = 12;

    fn audit_one(
        name: &str,
        rep: &CompilationReport,
        presets: &[(irr_frontend::VarId, irr_exec::ArrayData)],
        typed_total: &mut u64,
    ) -> usize {
        let mut seq_it = Interp::new(&rep.program);
        let mut comp_it = Interp::new(&rep.program);
        for (var, data) in presets {
            seq_it.preset_array(*var, data.clone());
            comp_it.preset_array(*var, data.clone());
        }
        let seq = match seq_it.run() {
            Ok(o) => o,
            Err(e) => die(&format!("compiled {name}: sequential run failed: {e}")),
        };
        let mut dispatch = CompiledDispatch::new();
        let comp = match comp_it.run_dispatched(&mut dispatch) {
            Ok(o) => o,
            Err(e) => die(&format!("compiled {name}: compiled run failed: {e}")),
        };
        *typed_total += dispatch.typed;
        let mut bad = 0usize;
        if comp.output != seq.output {
            println!("  [VIOLATION] compiled {name}: output diverged");
            bad += 1;
        }
        if comp.store != seq.store {
            println!("  [VIOLATION] compiled {name}: store bits diverged");
            bad += 1;
        }
        if comp.stats.total_cost != seq.stats.total_cost {
            println!(
                "  [VIOLATION] compiled {name}: fuel diverged: {} vs {}",
                comp.stats.total_cost, seq.stats.total_cost
            );
            bad += 1;
        }
        for (stmt, want) in &seq.stats.loops {
            match comp.stats.loops.get(stmt) {
                Some(got)
                    if got.invocations == want.invocations && got.total_cost == want.total_cost => {
                }
                _ => {
                    println!("  [VIOLATION] compiled {name}: loop stats diverged at {stmt:?}");
                    bad += 1;
                }
            }
        }
        println!(
            "compiled {name}: {} loop entr(ies) typed, {} walked, {} fallback(s), {}",
            dispatch.typed,
            dispatch.compiled - dispatch.typed,
            dispatch.fallback_count(),
            if bad == 0 {
                "byte-identical"
            } else {
                "DIVERGED"
            }
        );
        bad
    }

    println!(
        "compiled sweep: {} target(s) + sparse kernels + {RANDOM_PROGRAMS} randomized program(s)",
        targets.len()
    );
    let mut violations = 0usize;
    let mut sampled = 0usize;
    let mut typed_total = 0u64;
    for (name, src) in targets {
        let rep = match compile_source(src, DriverOptions::with_iaa()) {
            Ok(r) => r,
            Err(e) => die(&format!("compiled {name}: parse error: {e}")),
        };
        violations += audit_one(name, &rep, &[], &mut typed_total);
        sampled += 1;
    }
    for k in kernels(&SparseScale::test(Structure::Uniform, config.seed | 1)) {
        let rep = match compile_source(&k.source, DriverOptions::with_iaa()) {
            Ok(r) => r,
            Err(e) => die(&format!("compiled sparse/{}: parse error: {e}", k.name)),
        };
        let presets = k.resolve_presets(&rep.program);
        let name = format!("sparse/{}", k.name);
        violations += audit_one(&name, &rep, &presets, &mut typed_total);
        sampled += 1;
    }
    let mut rng = SplitMix64::new(config.seed ^ 0xB17E_C0DE);
    for i in 0..RANDOM_PROGRAMS {
        let src = random_loop_program(&mut rng);
        let rep = match compile_source(&src, DriverOptions::with_iaa()) {
            Ok(r) => r,
            Err(e) => die(&format!("compiled random-{i}: parse error: {e}")),
        };
        let name = format!("random-{i}");
        violations += audit_one(&name, &rep, &[], &mut typed_total);
        sampled += 1;
    }
    println!("compiled sweep: {sampled} program(s), {typed_total} loop entr(ies) typed");
    if typed_total == 0 {
        println!(
            "  [VIOLATION] compiled sweep: the typed loop finished no entry — the compiled \
             tier regressed to the tree-walk"
        );
        violations += 1;
    }
    (sampled, violations)
}

/// Replays `rep` under `seeds` randomized fault schedules through the
/// hybrid runtime and checks every run completes with sequential
/// semantics. Returns the number of parity breaks (each is a soundness
/// violation: the recovery path corrupted an observable result).
fn chaos_sweep(name: &str, rep: &CompilationReport, base_seed: u64, seeds: usize) -> usize {
    const FAULT_RATE_PER_MILLE: u32 = 400;
    const STALL_MS: u64 = 150;
    // The fault schedule draws chunk indices below the thread count,
    // so the count is pinned: the same seed replays the same sweep on
    // every host.
    let config = HybridConfig {
        threads: 4,
        worker_deadline_ms: Some(50),
        quarantine_retries: 1,
        ..HybridConfig::default()
    };
    let seq = match Interp::new(&rep.program).run() {
        Ok(o) => o,
        Err(e) => die(&format!("{name}: sequential run failed: {e}")),
    };
    let mut breaks = 0usize;
    let mut faults_fired = 0usize;
    for i in 0..seeds {
        let seed = base_seed
            .wrapping_add(i as u64)
            .wrapping_mul(2)
            .wrapping_add(1);
        let plan = FaultPlan::randomized(seed, FAULT_RATE_PER_MILLE, STALL_MS);
        let (hybrid, plan) = match run_hybrid_with_faults(rep, config, plan) {
            Ok(r) => r,
            Err(e) => {
                println!("  [VIOLATION] chaos seed {seed}: run aborted: {e}");
                breaks += 1;
                continue;
            }
        };
        faults_fired += plan.fired().len();
        if let Some(detail) = parity_break(rep, &seq.output, &seq.store, &hybrid.outcome) {
            println!("  [VIOLATION] chaos seed {seed}: {detail}");
            breaks += 1;
        }
    }
    println!(
        "{name}: chaos sweep, {seeds} seed(s), {faults_fired} fault(s) fired, {breaks} parity \
         break(s)"
    );
    breaks
}

/// First observable divergence between the chaos run and the sequential
/// baseline, or `None` for parity. Reals compare with a relative
/// tolerance: a *successful* parallel reduction reassociates the sum
/// and may move the last ulp, which is not a recovery failure.
fn parity_break(
    rep: &CompilationReport,
    seq_output: &[String],
    seq_store: &Store,
    got: &irr_exec::ExecOutcome,
) -> Option<String> {
    fn reals_eq(a: f64, b: f64) -> bool {
        a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
    }
    if got.output.len() != seq_output.len() {
        return Some("output length differs".into());
    }
    for (have, want) in got.output.iter().zip(seq_output) {
        let close = match (have.parse::<f64>(), want.parse::<f64>()) {
            (Ok(h), Ok(w)) => reals_eq(h, w),
            _ => have == want,
        };
        if !close {
            return Some(format!("output differs: {have} vs {want}"));
        }
    }
    let privatized: std::collections::HashSet<_> = rep
        .verdicts
        .iter()
        .flat_map(|v| {
            v.privatized_scalars
                .iter()
                .copied()
                .chain(v.privatized_arrays.iter().map(|(a, _)| *a))
        })
        .collect();
    for (vid, info) in rep.program.symbols.iter() {
        if privatized.contains(&vid) {
            continue;
        }
        if info.is_array() {
            match (seq_store.array_as_reals(vid), got.store.array_as_reals(vid)) {
                (Some(want), Some(have)) if want.len() == have.len() => {
                    for (k, (w, h)) in want.iter().zip(&have).enumerate() {
                        if !reals_eq(*w, *h) {
                            return Some(format!(
                                "array {}({}) differs: {h} vs {w}",
                                info.name,
                                k + 1
                            ));
                        }
                    }
                }
                (w, h) if w == h => {}
                _ => return Some(format!("array {} materialization differs", info.name)),
            }
        } else {
            let (want, have) = (seq_store.scalar(vid), got.store.scalar(vid));
            let close = match (want, have) {
                (Value::Real(w), Value::Real(h)) => reals_eq(w, h),
                _ => want == have,
            };
            if !close {
                return Some(format!(
                    "scalar {} differs: {have:?} vs {want:?}",
                    info.name
                ));
            }
        }
    }
    None
}

fn die(msg: &str) -> ! {
    eprintln!("sanitizer-audit: {msg}");
    std::process::exit(2);
}
