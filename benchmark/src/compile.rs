//! `compile-corpus`: `compile_source(.., with_iaa())` over the five
//! paper benchmarks, the sparse kernel sources on two structures and a
//! seeded draw of random loop programs, on one thread. Frontend,
//! passes, core and driver do all the work; exec, runtime and service
//! do none — the control for every execution-side change. One operation
//! is one compile of one program.

use crate::host::Calibrator;
use crate::json::Json;
use crate::report::{summary_ms, Checks, EndToEnd, Layers, Measured};
use crate::trace::Tracer;
use crate::{stats, Size};
use irr_core::{AnalysisCtx, EvolutionAnalysis, SummaryAnalysis};
use irr_driver::{compile, compile_source, CompilationReport, DispatchTier, DriverOptions};
use irr_exec::SplitMix64;
use irr_frontend::{parse_program, Program};
use irr_passes::{
    eliminate_dead_code, forward_substitute, inline_small_procedures, normalize_loops,
    propagate_constants, substitute_induction_variables,
};
use irr_programs::fuzz::random_loop_program;
use irr_programs::sparse::{
    interproc_kernels, kernels, producer_kernels, ExpectedTier, SparseScale,
};
use irr_sparse::Structure;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One corpus entry with what its verdicts must be.
pub struct CorpusProgram {
    pub name: String,
    pub source: String,
    /// `(loop label, tier)` the driver must reach.
    expected_tier: Option<(String, ExpectedTier)>,
    /// Loops that must be parallel (the Table 3 loops).
    must_be_parallel: Vec<&'static str>,
}

/// Builds the corpus from the seed: the sparse kernels' structure seeds
/// and the random draws depend on it, the paper benchmarks do not.
pub fn corpus(size: &Size, seed: u64) -> Vec<CorpusProgram> {
    let mut out = Vec::new();
    for b in irr_programs::all(size.corpus_scale) {
        out.push(CorpusProgram {
            name: b.name.to_string(),
            source: b.source,
            expected_tier: None,
            must_be_parallel: b.irregular_labels,
        });
    }
    for structure in [Structure::Uniform, Structure::PowerLaw] {
        let scale = SparseScale::test(structure, seed);
        for k in kernels(&scale)
            .into_iter()
            .chain(producer_kernels(&scale))
            .chain(interproc_kernels(&scale))
        {
            out.push(CorpusProgram {
                name: format!("{}-{}", k.name, structure.tag()),
                source: k.source,
                expected_tier: Some((k.label, k.expected_tier)),
                must_be_parallel: Vec::new(),
            });
        }
    }
    let mut rng = SplitMix64::new(seed ^ 0x5eed_c0de);
    for i in 0..size.corpus_random {
        out.push(CorpusProgram {
            name: format!("random-{i:02}"),
            source: random_loop_program(&mut rng),
            expected_tier: None,
            must_be_parallel: Vec::new(),
        });
    }
    out
}

/// The counts a compile must reproduce exactly from the same source.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Counts {
    pub loops: u64,
    pub ctp: u64,
    pub guarded: u64,
    pub seq: u64,
    pub promoted_evolution: u64,
    pub promoted_interproc: u64,
    pub compiled_plans: u64,
    pub property_queries: u64,
    pub solver_nodes: u64,
}

impl Counts {
    pub fn of(rep: &CompilationReport) -> Counts {
        let mut c = Counts {
            loops: rep.verdicts.len() as u64,
            property_queries: rep.stats.property_queries,
            solver_nodes: rep.stats.solver_nodes,
            ..Counts::default()
        };
        for v in &rep.verdicts {
            match v.tier {
                DispatchTier::CompileTimeParallel => c.ctp += 1,
                DispatchTier::RuntimeGuarded(_) => c.guarded += 1,
                DispatchTier::Sequential => c.seq += 1,
            }
            c.promoted_evolution += u64::from(!v.retired_checks.is_empty());
            c.promoted_interproc += u64::from(v.promoted_interproc);
            c.compiled_plans += u64::from(v.compiled.is_some());
        }
        c
    }

    /// FNV-1a over the counts: what a client keeps of a response until
    /// it is verified.
    pub fn digest(&self) -> u64 {
        [
            self.loops,
            self.ctp,
            self.guarded,
            self.seq,
            self.promoted_evolution,
            self.promoted_interproc,
            self.compiled_plans,
            self.property_queries,
            self.solver_nodes,
        ]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, v| {
            (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    fn add(&mut self, o: &Counts) {
        self.loops += o.loops;
        self.ctp += o.ctp;
        self.guarded += o.guarded;
        self.seq += o.seq;
        self.promoted_evolution += o.promoted_evolution;
        self.promoted_interproc += o.promoted_interproc;
        self.compiled_plans += o.compiled_plans;
        self.property_queries += o.property_queries;
        self.solver_nodes += o.solver_nodes;
    }
}

pub fn tier_matches(tier: &DispatchTier, expected: ExpectedTier) -> bool {
    match expected {
        ExpectedTier::CompileTimeParallel => matches!(tier, DispatchTier::CompileTimeParallel),
        ExpectedTier::RuntimeGuarded => matches!(tier, DispatchTier::RuntimeGuarded(_)),
        ExpectedTier::Sequential => matches!(tier, DispatchTier::Sequential),
    }
}

impl CorpusProgram {
    /// The full check of one report: the independent lint pass raises no
    /// soundness diagnostic, the kernel reaches its expected tier, and
    /// the Table 3 loops are parallel.
    fn check_verdicts(&self, rep: &CompilationReport) -> Result<(), String> {
        if let Some(d) = irr_lint::lint_report(rep)
            .iter()
            .find(|d| d.code == "IRR-S001")
        {
            return Err(format!("{}: lint {}", self.name, d.line()));
        }
        if let Some((label, tier)) = &self.expected_tier {
            match rep.verdict(label) {
                Some(v) if tier_matches(&v.tier, *tier) => {}
                Some(v) => {
                    return Err(format!(
                        "{}: {label} is {:?}, expected {tier:?}",
                        self.name, v.tier
                    ))
                }
                None => return Err(format!("{}: no verdict for {label}", self.name)),
            }
        }
        for label in &self.must_be_parallel {
            if !rep.verdict(label).is_some_and(|v| v.parallel) {
                return Err(format!(
                    "{}: Table 3 loop {label} is not parallel",
                    self.name
                ));
            }
        }
        Ok(())
    }
}

fn compile_one(p: &CorpusProgram) -> CompilationReport {
    compile_source(&p.source, DriverOptions::with_iaa()).expect("corpus sources are well formed")
}

/// Warm-up: two discarded passes over the corpus.
pub fn warm_up(corpus: &[CorpusProgram]) {
    for _ in 0..2 {
        for p in corpus {
            black_box(compile_one(p));
        }
    }
}

/// Checks every program once (untimed) and returns the counts later
/// compiles must reproduce.
pub fn references(corpus: &[CorpusProgram], checks: &mut Checks) -> Vec<Counts> {
    corpus
        .iter()
        .map(|p| {
            let rep = compile_one(p);
            if let Err(msg) = p.check_verdicts(&rep) {
                checks.fail(msg);
            }
            Counts::of(&rep)
        })
        .collect()
}

/// The untraced, timed run: passes over the corpus until `seconds` is
/// up. Every compile is checked against the reference counts, so a
/// compile that is not deterministic fails.
pub fn measure(
    corpus: &[CorpusProgram],
    reference: &[Counts],
    size: &Size,
    seconds: f64,
) -> Measured<EndToEnd> {
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); corpus.len()];
    // A pass takes about as long as the host's speed holds, so one slice
    // before it scales all its samples to the reference speed.
    let mut pass_scale: Vec<f64> = Vec::new();
    let mut checks = Checks::default();
    let mut calibration = Calibrator::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes = 0;
    while passes < size.min_rounds || Instant::now() < deadline {
        pass_scale.push(calibration.scale_now(1));
        for (i, p) in corpus.iter().enumerate() {
            let t0 = Instant::now();
            let rep = black_box(compile_one(p));
            samples[i].push(t0.elapsed().as_nanos() as f64);
            checks.record(if Counts::of(&rep) == reference[i] {
                Ok(())
            } else {
                Err(format!("{}: verdict counts do not repeat", p.name))
            });
        }
        passes += 1;
    }
    let mut slowest: Vec<(usize, f64)> = samples
        .iter()
        .map(|s| stats::median_of(s))
        .enumerate()
        .collect();
    slowest.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN"));
    let detail = Json::obj([
        ("passes", Json::Num(passes as f64)),
        ("programs", Json::Num(corpus.len() as f64)),
        (
            "loops",
            Json::Num(reference.iter().map(|c| c.loops).sum::<u64>() as f64),
        ),
        (
            "slowest_programs_as_measured",
            Json::Arr(
                slowest
                    .iter()
                    .take(8)
                    .map(|(i, _)| {
                        Json::obj([
                            ("program", Json::str(corpus[*i].name.as_str())),
                            ("compile", summary_ms(&samples[*i])),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let scaled: Vec<Vec<f64>> = samples
        .iter()
        .map(|s| s.iter().zip(&pass_scale).map(|(ns, k)| ns * k).collect())
        .collect();
    Measured {
        metrics: EndToEnd::from_items(&samples),
        normalised: Some(EndToEnd::from_items(&scaled)),
        calibration,
        checks,
        detail,
    }
}

fn reachable_stmts(p: &Program) -> usize {
    p.procedures.iter().map(|q| p.stmts_in(&q.body).len()).sum()
}

/// Per-program medians of one span name, summed over the corpus (ms):
/// the same statistic as `work_ms`, so layer times add up to it.
struct LayerSamples {
    names: Vec<&'static str>,
    /// `[name][program] -> samples`
    samples: Vec<Vec<Vec<f64>>>,
}

impl LayerSamples {
    fn new(names: &[&'static str], programs: usize) -> LayerSamples {
        LayerSamples {
            names: names.to_vec(),
            samples: vec![vec![Vec::new(); programs]; names.len()],
        }
    }

    fn index(&self, name: &str) -> usize {
        self.names
            .iter()
            .position(|n| *n == name)
            .expect("known span name")
    }

    fn push(&mut self, name: &str, program: usize, ns: u64) {
        let i = self.index(name);
        self.samples[i][program].push(ns as f64);
    }

    fn sum_of_medians_ms(&self, name: &str) -> f64 {
        self.samples[self.index(name)]
            .iter()
            .map(|s| stats::median_of(s))
            .sum::<f64>()
            / 1e6
    }
}

const SPANS: [&str; 13] = [
    "untraced",
    "frontend.parse",
    "driver.compile",
    "passes.pipeline",
    "passes.inline",
    "passes.constprop",
    "passes.normalize",
    "passes.induction",
    "passes.forward_sub",
    "passes.dce",
    "core.ctx",
    "core.summaries",
    "core.evolution",
];

/// The traced run over `sources` (the corpus, or the sample of request
/// sources `service-cold` hands in): parse and compile under spans,
/// then the Fig. 15 pipeline and the core analyses replayed in driver
/// order through their public functions.
pub fn trace_sources(
    sources: &[(&str, &str)],
    rounds: (usize, usize),
    seconds: f64,
    tracer: &mut Tracer,
    layers: &mut Layers,
    checks: &mut Checks,
    calibration: &mut Calibrator,
) -> usize {
    let opts = DriverOptions::with_iaa();
    let mut ls = LayerSamples::new(&SPANS, sources.len());
    let mut counts = vec![Counts::default(); sources.len()];
    let (mut stmts_before, mut stmts_after, mut bytes) = (0, 0, 0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut done = 0;
    while done < rounds.0 || (done < rounds.1 && Instant::now() < deadline) {
        for (i, (name, src)) in sources.iter().enumerate() {
            calibration.tick();
            tracer.set_item(name);
            // The same compile without spans, for `trace.overhead_share`.
            // Whichever of the two goes second finds the source's data in
            // cache, so they take turns.
            let untraced = |ls: &mut LayerSamples| {
                let t0 = Instant::now();
                black_box(compile_source(src, opts).is_ok());
                ls.push("untraced", i, t0.elapsed().as_nanos() as u64);
            };
            if done % 2 == 0 {
                untraced(&mut ls);
            }
            let op = tracer.begin("driver.compile_source");
            let (parsed, ns) = tracer.time("frontend.parse", || parse_program(src));
            ls.push("frontend.parse", i, ns);
            let Ok(parsed) = parsed else {
                tracer.end(op);
                checks.fail(format!("{name}: does not parse"));
                continue;
            };
            let replay_input = parsed.clone();
            let (rep, ns) = tracer.time("driver.compile", || compile(parsed, opts));
            ls.push("driver.compile", i, ns);
            tracer.end(op);
            if done % 2 == 1 {
                untraced(&mut ls);
            }
            let now = Counts::of(&rep);
            if done > 0 && now != counts[i] {
                checks.fail(format!("{name}: verdict counts do not repeat"));
            }
            counts[i] = now;
            drop(rep);

            let replay = tracer.begin("driver.replay");
            let mut p = replay_input;
            if done == 0 {
                stmts_before += reachable_stmts(&p);
                bytes += src.len();
            }
            let pipeline = tracer.begin("passes.pipeline");
            let (_, ns) = tracer.time("passes.inline", || {
                inline_small_procedures(&mut p, opts.inline_limit)
            });
            ls.push("passes.inline", i, ns);
            let (_, a) = tracer.time("passes.constprop", || propagate_constants(&mut p));
            let (_, ns) = tracer.time("passes.normalize", || normalize_loops(&mut p));
            ls.push("passes.normalize", i, ns);
            let (_, ns) = tracer.time("passes.induction", || {
                substitute_induction_variables(&mut p)
            });
            ls.push("passes.induction", i, ns);
            let (_, b) = tracer.time("passes.constprop", || propagate_constants(&mut p));
            ls.push("passes.constprop", i, a + b);
            let (_, ns) = tracer.time("passes.forward_sub", || forward_substitute(&mut p));
            ls.push("passes.forward_sub", i, ns);
            let (_, ns) = tracer.time("passes.dce", || eliminate_dead_code(&mut p));
            ls.push("passes.dce", i, ns);
            ls.push("passes.pipeline", i, tracer.end(pipeline));
            if done == 0 {
                stmts_after += reachable_stmts(&p);
            }
            let (ctx, ns) = tracer.time("core.ctx", || AnalysisCtx::new(&p));
            ls.push("core.ctx", i, ns);
            let (summaries, ns) = tracer.time("core.summaries", || {
                SummaryAnalysis::new_budgeted(&ctx, None)
            });
            ls.push("core.summaries", i, ns);
            let (_, ns) = tracer.time("core.evolution", || {
                EvolutionAnalysis::budgeted(&ctx, Some(&summaries), None)
            });
            ls.push("core.evolution", i, ns);
            tracer.end(replay);
        }
        done += 1;
    }

    let ms = |name: &str| ls.sum_of_medians_ms(name);
    layers.set("frontend.parse_ms", ms("frontend.parse"));
    layers.set(
        "frontend.parse_mb_per_s",
        bytes as f64 / 1e6 / (ms("frontend.parse") / 1e3),
    );
    layers.set("frontend.stmts", stmts_before as f64);
    for (metric, span) in [
        ("passes.inline_ms", "passes.inline"),
        ("passes.constprop_ms", "passes.constprop"),
        ("passes.normalize_ms", "passes.normalize"),
        ("passes.induction_ms", "passes.induction"),
        ("passes.forward_sub_ms", "passes.forward_sub"),
        ("passes.dce_ms", "passes.dce"),
        ("passes.pipeline_ms", "passes.pipeline"),
        ("core.ctx_ms", "core.ctx"),
        ("core.summaries_ms", "core.summaries"),
        ("core.evolution_ms", "core.evolution"),
        ("driver.compile_ms", "driver.compile"),
    ] {
        layers.set(metric, ms(span));
    }
    layers.set("passes.stmts_after", stmts_after as f64);
    // The driver's self time: deptest, privatize and the property solver
    // live here until there are spans inside `compile`.
    layers.set(
        "driver.judge_ms",
        ms("driver.compile")
            - ms("passes.pipeline")
            - ms("core.ctx")
            - ms("core.summaries")
            - ms("core.evolution"),
    );
    let mut total = Counts::default();
    counts.iter().for_each(|c| total.add(c));
    layers.set("core.property_queries", total.property_queries as f64);
    layers.set("core.solver_nodes", total.solver_nodes as f64);
    layers.set("driver.loops", total.loops as f64);
    layers.set("driver.verdicts_ctp", total.ctp as f64);
    layers.set("driver.verdicts_guarded", total.guarded as f64);
    layers.set("driver.verdicts_seq", total.seq as f64);
    layers.set("driver.promoted_evolution", total.promoted_evolution as f64);
    layers.set("driver.promoted_interproc", total.promoted_interproc as f64);
    layers.set("driver.compiled_plans", total.compiled_plans as f64);
    let traced = ms("frontend.parse") + ms("driver.compile");
    layers.set(
        "trace.overhead_share",
        (traced - ms("untraced")) / ms("untraced"),
    );
    done
}

/// The traced run of `compile-corpus`.
pub fn trace(
    corpus: &[CorpusProgram],
    size: &Size,
    seconds: f64,
    tracer: &mut Tracer,
) -> Measured<Layers> {
    let mut layers = Layers::new();
    let mut checks = Checks::default();
    let mut calibration = Calibrator::new();
    let sources: Vec<(&str, &str)> = corpus
        .iter()
        .map(|p| (p.name.as_str(), p.source.as_str()))
        .collect();
    let rounds = trace_sources(
        &sources,
        size.replay_rounds,
        seconds,
        tracer,
        &mut layers,
        &mut checks,
        &mut calibration,
    );
    checks.attempted += (rounds * corpus.len()) as u64;
    let detail = Json::obj([
        ("rounds", Json::Num(rounds as f64)),
        ("programs", Json::Num(corpus.len() as f64)),
    ]);
    Measured {
        metrics: layers,
        normalised: None,
        calibration,
        checks,
        detail,
    }
}
