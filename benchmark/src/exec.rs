//! The two execution workloads: source → `compile_source` →
//! `run_hybrid_seeded`, checked against the native reference. One
//! operation is one compile-and-run of one row.
//!
//! `exec-large` runs sparse kernels large enough that the worker body,
//! the store snapshot and the commit dominate. `exec-reentry` runs the
//! same loop bodies at 4 096 nonzeros entered 200 times from a
//! sequential outer sweep, so the fixed cost of a dispatch dominates and
//! body work is negligible.

use crate::compile::tier_matches;
use crate::host::{self, Calibrator};
use crate::json::Json;
use crate::native::{Kernel, Reference};
use crate::report::{summary_ms, Checks, EndToEnd, Layers, Measured};
use crate::trace::Tracer;
use crate::{stats, Size};
use irr_driver::{compile_source, CompilationReport, DriverOptions};
use irr_exec::{
    inspect_injective, inspect_offset_length, lower_do_loop, ArrayData, CompiledDispatch, Interp,
    Value,
};
use irr_frontend::{StmtId, VarId};
use irr_programs::sparse::{self, ExpectedTier, SparseProgram, SparseScale};
use irr_runtime::{
    run_hybrid_seeded, CacheProbe, HybridConfig, HybridOutcome, ScheduleCache, ScheduleKey,
    Telemetry,
};
use irr_sparse::{generate, MatrixSpec, Structure};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One timed row: a source, its generated arrays and what to expect.
pub struct Row {
    pub name: String,
    kernel: Kernel,
    structure: Structure,
    source: String,
    presets: Vec<(&'static str, ArrayData)>,
    /// `PROG/doNN` label of the loop the runtime must dispatch.
    label: String,
    expected_tier: ExpectedTier,
    /// How many times the program enters that loop.
    entries: usize,
}

const SWEEP_PERMUTE: &str = include_str!("../sources/sweep_permute.f");
const SWEEP_SPMV: &str = include_str!("../sources/sweep_spmv.f");
const SWEEP_SCALE: &str = include_str!("../sources/sweep_scale.f");

/// Length of the generated array `name`, 0 if the kernel has none.
fn preset_len(presets: &[(&'static str, ArrayData)], name: &str) -> usize {
    presets
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, d)| d.len())
}

fn scale_of(nnz: usize, structure: Structure, seed: u64) -> SparseScale {
    SparseScale {
        n: (nnz / 16).max(1),
        nnz,
        structure,
        seed,
    }
}

/// `exec-large`: both parallel tiers, all three commit strategies, and
/// one skewed structure.
pub fn large_rows(size: &Size, seed: u64) -> Vec<Row> {
    let row = |kernel: Kernel, structure: Structure| {
        let scale = scale_of(size.exec_nnz, structure, seed);
        let k: SparseProgram = match kernel {
            Kernel::Spmv => sparse::spmv(&scale),
            Kernel::Scale => sparse::scale_kernel(&scale),
            Kernel::Colscale => sparse::colscale(&scale),
            Kernel::Permute => sparse::permute(&scale),
            Kernel::Rowgather => sparse::rowgather(&scale),
        };
        Row {
            name: format!("{}-{}", k.name, structure.tag()),
            kernel,
            structure,
            source: k.source,
            presets: k.presets,
            label: k.label,
            expected_tier: k.expected_tier,
            entries: 1,
        }
    };
    vec![
        row(Kernel::Spmv, Structure::Uniform),
        row(Kernel::Scale, Structure::Uniform),
        row(Kernel::Colscale, Structure::Uniform),
        row(Kernel::Permute, Structure::Uniform),
        row(Kernel::Rowgather, Structure::Uniform),
        row(Kernel::Spmv, Structure::PowerLaw),
        row(Kernel::Colscale, Structure::PowerLaw),
    ]
}

/// `exec-reentry`: the benchmark's own sweep sources around the
/// `permute`, `spmv` and `scale` loop bodies, with the kernel library's
/// generated arrays.
pub fn reentry_rows(size: &Size, seed: u64) -> Vec<Row> {
    let scale = scale_of(size.reentry_nnz, Structure::Uniform, seed);
    let row = |kernel: Kernel, k: SparseProgram, template: &str, inner: &str| {
        let len = |name: &str| preset_len(&k.presets, name);
        let (e, r) = (len("aval"), len("rowlen"));
        let source = template
            .replace("@SWEEPS@", &size.sweeps.to_string())
            .replace("@ME@", &(e / 2).max(1).to_string())
            .replace("@MR@", &(r / 2).max(1).to_string())
            .replace("@RP@", &(r + 1).to_string())
            .replace("@E@", &e.to_string())
            .replace("@R@", &r.to_string())
            .replace("@C@", &len("x").to_string());
        Row {
            name: format!("sweep-{}", k.name),
            kernel,
            structure: Structure::Uniform,
            source,
            presets: k.presets,
            label: inner.to_string(),
            expected_tier: k.expected_tier,
            entries: size.sweeps,
        }
    };
    vec![
        row(
            Kernel::Permute,
            sparse::permute(&scale),
            SWEEP_PERMUTE,
            "SWPERMUTE/do800",
        ),
        row(
            Kernel::Spmv,
            sparse::spmv(&scale),
            SWEEP_SPMV,
            "SWSPMV/do100",
        ),
        row(
            Kernel::Scale,
            sparse::scale_kernel(&scale),
            SWEEP_SCALE,
            "SWSCALE/do700",
        ),
    ]
}

/// Calibration slices before every timed sample: 2 ms, a few per cent
/// of the samples they scale.
const SLICES_PER_SAMPLE: usize = 8;

fn hybrid_config(threads: usize) -> HybridConfig {
    HybridConfig {
        threads,
        ..HybridConfig::default()
    }
}

impl Row {
    fn compile(&self) -> CompilationReport {
        compile_source(&self.source, DriverOptions::with_iaa())
            .expect("benchmark sources are well formed")
    }

    /// The end-to-end operation: what a user of the system does with a
    /// source and its arrays.
    fn run(&self, config: HybridConfig) -> (CompilationReport, Result<HybridOutcome, String>) {
        let rep = self.compile();
        let presets = self.resolve(&rep);
        let out = run_hybrid_seeded(&rep, config, &presets).map_err(|e| e.to_string());
        (rep, out)
    }

    fn resolve(&self, rep: &CompilationReport) -> Vec<(VarId, ArrayData)> {
        self.presets
            .iter()
            .map(|(name, data)| {
                let var = rep
                    .program
                    .symbols
                    .lookup(name)
                    .unwrap_or_else(|| panic!("{}: preset `{name}` not in symbols", self.name));
                (var, data.clone())
            })
            .collect()
    }

    fn interp<'p>(&self, rep: &'p CompilationReport) -> Interp<'p> {
        let mut it = Interp::new(&rep.program);
        for (var, data) in self.resolve(rep) {
            it.preset_array(var, data);
        }
        it
    }

    fn loop_stmt(&self, rep: &CompilationReport) -> Option<StmtId> {
        rep.verdict(&self.label).map(|v| v.loop_stmt)
    }

    /// Verdict, telemetry, final store and printed output of one run
    /// against the expectations and the native reference.
    fn check(
        &self,
        rep: &CompilationReport,
        out: &Result<HybridOutcome, String>,
        reference: &Reference,
    ) -> Result<(), String> {
        let fail = |what: String| Err(format!("{}: {what}", self.name));
        let Some(v) = rep.verdict(&self.label) else {
            return fail(format!("no verdict for {}", self.label));
        };
        if !tier_matches(&v.tier, self.expected_tier) {
            return fail(format!("verdict drifted to {:?}", v.tier));
        }
        let out = match out {
            Ok(out) => out,
            Err(e) => return fail(format!("execution error: {e}")),
        };
        // The workload must keep exercising its path: every entry of the
        // loop is one committed parallel dispatch, and a guarded loop
        // inspects once and then hits the schedule cache.
        let t = &out.telemetry;
        let entries = self.entries as u64;
        if t.parallel_dispatches() != entries || t.fallbacks() != 0 {
            return fail(format!(
                "{} parallel dispatches and {} fallbacks, expected {entries} and 0",
                t.parallel_dispatches(),
                t.fallbacks()
            ));
        }
        if self.expected_tier == ExpectedTier::RuntimeGuarded
            && (t.inspections_run != 1 || t.cache_hits != entries - 1)
        {
            return fail(format!(
                "{} inspections and {} schedule-cache hits, expected 1 and {}",
                t.inspections_run,
                t.cache_hits,
                entries - 1
            ));
        }
        if out.outcome.output != reference.output {
            return fail(format!(
                "printed {:?}, reference {:?}",
                out.outcome.output, reference.output
            ));
        }
        let symbols = &rep.program.symbols;
        for (name, want) in &reference.arrays {
            let got = symbols
                .lookup(name)
                .and_then(|var| out.outcome.store.array_as_reals(var));
            let same = got.as_ref().is_some_and(|got| {
                got.len() == want.len()
                    && got
                        .iter()
                        .zip(want)
                        .all(|(g, w)| g.to_bits() == w.to_bits())
            });
            if !same {
                return fail(format!("array `{name}` differs from the native reference"));
            }
        }
        for (name, want) in &reference.scalars {
            let got = symbols
                .lookup(name)
                .map(|var| out.outcome.store.scalar(var));
            if got != Some(Value::Int(*want)) {
                return fail(format!("scalar `{name}` is {got:?}, reference {want}"));
            }
        }
        Ok(())
    }
}

/// Warm-up: two discarded runs of every row (page-faults the arrays,
/// fills the allocator's free lists, trains the branch predictors).
pub fn warm_up(rows: &[Row], threads: usize) {
    for row in rows {
        for _ in 0..2 {
            black_box(row.run(hybrid_config(threads)).1.is_ok());
        }
    }
}

/// References for every row, from the native kernels.
pub fn references(rows: &[Row]) -> Vec<Reference> {
    rows.iter()
        .map(|r| r.kernel.reference(&r.presets, r.entries).0)
        .collect()
}

/// The untraced, timed run: rows round-robin until `seconds` is up, at
/// least `size.min_rounds` rounds.
pub fn measure(
    rows: &[Row],
    references: &[Reference],
    size: &Size,
    threads: usize,
    seconds: f64,
) -> Measured<EndToEnd> {
    // Per row, every sample as measured and at the reference speed: a
    // sample is tens of milliseconds long and the host's speed moves by
    // the second, so each is scaled by the slices run just before it.
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); rows.len()];
    let mut scaled: Vec<Vec<f64>> = vec![Vec::new(); rows.len()];
    let mut checks = Checks::default();
    let mut calibration = Calibrator::new();
    let config = hybrid_config(threads);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rounds = 0;
    while rounds < size.min_rounds || Instant::now() < deadline {
        for (i, row) in rows.iter().enumerate() {
            let scale = calibration.scale_now(SLICES_PER_SAMPLE);
            let t0 = Instant::now();
            let (rep, out) = black_box(row.run(config));
            let ns = t0.elapsed().as_nanos() as f64;
            samples[i].push(ns);
            scaled[i].push(ns * scale);
            checks.record(row.check(&rep, &out, &references[i]));
        }
        rounds += 1;
    }
    let detail = Json::obj([
        ("rounds", Json::Num(rounds as f64)),
        (
            "rows_as_measured",
            Json::Arr(
                rows.iter()
                    .zip(&samples)
                    .map(|(r, s)| {
                        Json::obj([
                            ("row", Json::str(r.name.as_str())),
                            ("compile_plus_hybrid", summary_ms(s)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Measured {
        metrics: EndToEnd::from_items(&samples),
        normalised: Some(EndToEnd::from_items(&scaled)),
        calibration,
        checks,
        detail,
    }
}

/// Drives a `ScheduleCache` directly: median cost of a hit probe and of
/// an insert (ns), over a working set that fits the default capacity.
fn schedule_cache_costs() -> (f64, f64) {
    const LOOPS: u32 = 64;
    const REPS: usize = 200;
    let key = |i: u32| ScheduleKey::new((1, 4096), vec![(VarId(i), u64::from(i) + 7)]);
    let (mut probes, mut inserts) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let mut cache = ScheduleCache::new();
        let t0 = Instant::now();
        for i in 0..LOOPS {
            cache.insert(StmtId(i), key(i), true);
        }
        inserts.push(t0.elapsed().as_nanos() as f64 / f64::from(LOOPS));
        let keys: Vec<ScheduleKey> = (0..LOOPS).map(key).collect();
        let t0 = Instant::now();
        let mut hits = 0;
        for (i, k) in keys.iter().enumerate() {
            if matches!(cache.probe(StmtId(i as u32), k), CacheProbe::Hit(_)) {
                hits += 1;
            }
        }
        probes.push(t0.elapsed().as_nanos() as f64 / f64::from(LOOPS));
        assert_eq!(hits, LOOPS, "schedule cache lost an entry it had room for");
    }
    (stats::median_of(&probes), stats::median_of(&inserts))
}

/// What the traced run times for one row, one sample per round (ns).
#[derive(Default)]
struct RowTimes {
    compile: Vec<f64>,
    hybrid: Vec<f64>,
    untraced: Vec<f64>,
    hybrid_1t: Vec<f64>,
    hybrid_writelog: Vec<f64>,
    hybrid_treewalk: Vec<f64>,
    unpinned: Vec<f64>,
    unpinned_1t: Vec<f64>,
    treewalk: Vec<f64>,
    bytecode: Vec<f64>,
    preset: Vec<f64>,
    lower: Vec<f64>,
    inspect_injective: Vec<f64>,
    inspect_offset_length: Vec<f64>,
    native: Vec<f64>,
    generate: Vec<f64>,
    telemetry: Telemetry,
    /// `(ops, registers)` of the lowered loop.
    lowered: (usize, usize),
    skew: f64,
}

struct RowTracer<'a> {
    tracer: &'a mut Tracer,
    checks: &'a mut Checks,
    threads: usize,
    round: usize,
}

impl RowTracer<'_> {
    /// The end-to-end operation under spans, and the two yardsticks every
    /// ratio needs: sequential bytecode and the native loop.
    fn operation_and_yardsticks(&mut self, row: &Row, reference: &Reference, t: &mut RowTimes) {
        let tracer = &mut *self.tracer;
        tracer.set_item(&row.name);
        let op = tracer.begin("runtime.operation");
        let (rep, ns) = tracer.time("driver.compile_source", || row.compile());
        t.compile.push(ns as f64);
        let (presets, _) = tracer.time("sparse.resolve_presets", || row.resolve(&rep));
        let (out, ns) = tracer.time("runtime.hybrid", || {
            run_hybrid_seeded(&rep, hybrid_config(self.threads), &presets)
                .map_err(|e| e.to_string())
        });
        t.hybrid.push(ns as f64);
        tracer.end(op);
        self.checks.record(row.check(&rep, &out, reference));
        if let Ok(out) = &out {
            t.telemetry = out.telemetry;
        }
        drop((out, presets));

        let it = row.interp(&rep);
        let (ok, ns) = tracer.time("exec.bytecode", || {
            let mut d = CompiledDispatch::new();
            it.run_dispatched(&mut d).is_ok() && d.compiled > 0
        });
        t.bytecode.push(ns as f64);
        if !ok {
            self.checks
                .fail(format!("{}: sequential bytecode run failed", row.name));
        }
        let ((again, native_ns), _) = tracer.time("native.kernel", || {
            row.kernel.reference(&row.presets, row.entries)
        });
        t.native.push(native_ns as f64);
        if again != *reference {
            self.checks
                .fail(format!("{}: native reference does not repeat", row.name));
        }
    }

    /// The end-to-end operation without spans, for `trace.overhead_share`.
    fn untraced(&mut self, row: &Row, t: &mut RowTimes) {
        let t0 = Instant::now();
        black_box(row.run(hybrid_config(self.threads)).1.is_ok());
        t.untraced.push(t0.elapsed().as_nanos() as f64);
    }

    /// Everything else under a row: the runtime's switches
    /// one at a time, the same run on all cores, the tree-walk, lowering,
    /// the inspectors and the generator.
    fn layers(&mut self, row: &Row, t: &mut RowTimes) {
        let tracer = &mut *self.tracer;
        let threads = self.threads;
        let rep = row.compile();
        let presets = row.resolve(&rep);
        let mut hybrid = |name: &'static str, config: HybridConfig, samples: &mut Vec<f64>| {
            let (ok, ns) = tracer.time(name, || run_hybrid_seeded(&rep, config, &presets).is_ok());
            samples.push(ns as f64);
            if !ok {
                self.checks.fail(format!("{}: {name} run failed", row.name));
            }
        };
        hybrid("runtime.hybrid_1t", hybrid_config(1), &mut t.hybrid_1t);
        hybrid(
            "runtime.hybrid_writelog",
            HybridConfig {
                enable_strategies: false,
                ..hybrid_config(threads)
            },
            &mut t.hybrid_writelog,
        );
        hybrid(
            "runtime.hybrid_treewalk",
            HybridConfig {
                enable_compiled: false,
                ..hybrid_config(threads)
            },
            &mut t.hybrid_treewalk,
        );
        // Parallel speed-up needs the cores: the same two runs with the
        // pin lifted, so workers start on whichever core is free.
        if host::unpin().is_ok() {
            hybrid(
                "runtime.hybrid_unpinned",
                hybrid_config(threads),
                &mut t.unpinned,
            );
            hybrid(
                "runtime.hybrid_unpinned_1t",
                hybrid_config(1),
                &mut t.unpinned_1t,
            );
            if let Err(e) = host::pin_to_last_core() {
                self.checks.fail(e);
            }
        }
        drop(presets);

        let (it, ns) = tracer.time("exec.preset", || row.interp(&rep));
        t.preset.push(ns as f64);
        let (ok, ns) = tracer.time("exec.treewalk", || it.run().is_ok());
        t.treewalk.push(ns as f64);
        if !ok {
            self.checks
                .fail(format!("{}: tree-walk run failed", row.name));
        }

        if let Some(stmt) = row.loop_stmt(&rep) {
            let (body, ns) = tracer.time("exec.lower", || lower_do_loop(&rep.program, stmt));
            t.lower.push(ns as f64);
            match body {
                Ok(body) => {
                    let now = (body.op_count(), body.register_count());
                    if self.round > 0 && t.lowered != now {
                        self.checks
                            .fail(format!("{}: lowering does not repeat", row.name));
                    }
                    t.lowered = now;
                }
                Err(e) => self
                    .checks
                    .fail(format!("{}: loop does not lower: {}", row.name, e.0)),
            }
        }
        let store = row.interp(&rep).store;
        let var = |name: &str| rep.program.symbols.lookup(name);
        let len = |name: &str| preset_len(&row.presets, name) as i64;
        match row.kernel {
            Kernel::Permute => {
                let perm = var("perm").expect("permute declares perm");
                let (_, ns) = tracer.time("exec.inspect_injective", || {
                    inspect_injective(&store, perm, 1, len("perm"))
                });
                t.inspect_injective.push(ns as f64);
            }
            Kernel::Colscale => {
                let ptr = var("colptr").expect("colscale declares colptr");
                let lens = var("collen").expect("colscale declares collen");
                let (_, ns) = tracer.time("exec.inspect_offset_length", || {
                    inspect_offset_length(&store, ptr, lens, 1, len("collen"))
                });
                t.inspect_offset_length.push(ns as f64);
            }
            _ => {}
        }
        drop(store);

        if self.round == 0 {
            let nnz = row.presets.iter().map(|(_, d)| d.len()).max().unwrap_or(1);
            let (m, ns) = tracer.time("sparse.generate", || {
                generate(&MatrixSpec::square(
                    (nnz / 16).max(1),
                    nnz,
                    row.structure,
                    1,
                ))
            });
            t.generate.push(ns as f64);
            t.skew = m.skew();
        }
    }
}

/// The traced run of either workload: every layer under the end-to-end
/// operation timed from outside, the yardsticks (tree-walk, sequential
/// bytecode, native) and the runtime's A/B switches. On the re-entry
/// rows, 200 entries of a 4 096-nonzero loop turn the fixed cost of one
/// dispatch into something large enough to time.
pub fn trace(
    rows: &[Row],
    references: &[Reference],
    size: &Size,
    threads: usize,
    seconds: f64,
    tracer: &mut Tracer,
) -> Measured<Layers> {
    let mut checks = Checks::default();
    let mut calibration = Calibrator::new();
    let mut times: Vec<RowTimes> = rows.iter().map(|_| RowTimes::default()).collect();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rounds = 0;
    while rounds < size.trace_rounds.0
        || (rounds < size.trace_rounds.1 && Instant::now() < deadline)
    {
        let mut rt = RowTracer {
            tracer,
            checks: &mut checks,
            threads,
            round: rounds,
        };
        for (i, row) in rows.iter().enumerate() {
            calibration.slices(SLICES_PER_SAMPLE);
            // Whichever of the two goes second finds a warmer heap and
            // cache, so they take turns.
            if rounds % 2 == 0 {
                rt.untraced(row, &mut times[i]);
            }
            rt.operation_and_yardsticks(row, &references[i], &mut times[i]);
            if rounds % 2 == 1 {
                rt.untraced(row, &mut times[i]);
            }
            rt.layers(row, &mut times[i]);
        }
        rounds += 1;
    }

    let mut layers = Layers::new();
    let med = |of: &[RowTimes], f: fn(&RowTimes) -> &Vec<f64>| -> Vec<f64> {
        of.iter().map(|t| stats::median_of(f(t))).collect()
    };
    let total = |v: &[f64]| v.iter().sum::<f64>();
    for (metric, field) in [
        (
            "driver.compile_ms",
            (|t| &t.compile) as fn(&RowTimes) -> &Vec<f64>,
        ),
        ("runtime.hybrid_ms", |t| &t.hybrid),
        ("runtime.hybrid_1t_ms", |t| &t.hybrid_1t),
        ("runtime.hybrid_writelog_ms", |t| &t.hybrid_writelog),
        ("runtime.hybrid_treewalk_ms", |t| &t.hybrid_treewalk),
        ("exec.treewalk_ms", |t| &t.treewalk),
        ("exec.bytecode_ms", |t| &t.bytecode),
        ("exec.preset_ms", |t| &t.preset),
        ("exec.lower_ms", |t| &t.lower),
        ("exec.inspect_injective_ms", |t| &t.inspect_injective),
        ("exec.inspect_offset_length_ms", |t| {
            &t.inspect_offset_length
        }),
        ("native.kernel_ms", |t| &t.native),
        ("sparse.generate_ms", |t| &t.generate),
    ] {
        layers.set(metric, total(&med(&times, field)) / 1e6);
    }
    layers.set(
        "sparse.skew",
        times.iter().map(|t| t.skew).fold(0.0, f64::max),
    );
    layers.set(
        "exec.bytecode_ops",
        times.iter().map(|t| t.lowered.0).sum::<usize>() as f64,
    );
    layers.set(
        "exec.bytecode_regs",
        times.iter().map(|t| t.lowered.1).sum::<usize>() as f64,
    );
    // Ratios of sums of per-row medians, bases stated: the hybrid run
    // (without compile) over the sequential bytecode and over the native
    // loop; 1 thread over T threads, both on all cores.
    let (hybrid, bytecode, native) = (
        med(&times, |t| &t.hybrid),
        med(&times, |t| &t.bytecode),
        med(&times, |t| &t.native),
    );
    layers.set("runtime.vs_bytecode_x", total(&hybrid) / total(&bytecode));
    layers.set("runtime.vs_native_x", total(&hybrid) / total(&native));
    let (all_cores_1t, all_cores) = (
        total(&med(&times, |t| &t.unpinned_1t)),
        total(&med(&times, |t| &t.unpinned)),
    );
    if all_cores > 0.0 {
        layers.set("runtime.scaling_x", all_cores_1t / all_cores);
    }
    // Re-entry rows: what one more entry of a parallel loop costs, and
    // how much of that is not the loop body — the measured dispatch
    // threshold. A row that enters its loop once reports its ratios to
    // the yardsticks instead.
    let reentries: f64 = rows
        .iter()
        .filter(|r| r.entries > 1)
        .map(|r| r.entries as f64)
        .sum();
    if reentries > 0.0 {
        layers.set("runtime.per_entry_us", total(&hybrid) / reentries / 1e3);
        layers.set(
            "runtime.fixed_cost_us",
            (total(&hybrid) - total(&bytecode)) / reentries / 1e3,
        );
    }
    for (i, row) in rows.iter().enumerate() {
        if row.entries > 1 {
            layers.set(
                &format!("runtime.fixed_cost_us.{}", row.name),
                (hybrid[i] - bytecode[i]) / row.entries as f64 / 1e3,
            );
        } else {
            layers.set(
                &format!("runtime.vs_bytecode_x.{}", row.name),
                hybrid[i] / bytecode[i],
            );
            layers.set(
                &format!("runtime.vs_native_x.{}", row.name),
                hybrid[i] / native[i],
            );
        }
    }
    let (probe_ns, insert_ns) = schedule_cache_costs();
    layers.set("runtime.cache_probe_ns", probe_ns);
    layers.set("runtime.cache_insert_ns", insert_ns);
    for t in times.iter().map(|t| &t.telemetry) {
        layers.add(
            "runtime.parallel_dispatches",
            t.parallel_dispatches() as f64,
        );
        layers.add("runtime.inspections_run", t.inspections_run as f64);
        layers.add("runtime.inspections_retired", t.inspections_retired as f64);
        layers.add("runtime.cache_hits", t.cache_hits as f64);
        layers.add("runtime.fallbacks", t.fallbacks() as f64);
        layers.add(
            "runtime.compiled_worker_dispatches",
            t.compiled_worker_dispatches as f64,
        );
        layers.add("runtime.strategy_write_log", t.strategy_write_log as f64);
        layers.add("runtime.strategy_in_place", t.strategy_in_place as f64);
        layers.add("runtime.strategy_concat", t.strategy_concat as f64);
    }
    // Traced compile + run against the same operation without spans.
    let traced = total(&med(&times, |t| &t.compile)) + total(&hybrid);
    let untraced = total(&med(&times, |t| &t.untraced));
    layers.set("trace.overhead_share", (traced - untraced) / untraced);

    let row_json = |r: &Row, t: &RowTimes| {
        let (h, b, n) = (
            stats::median_of(&t.hybrid),
            stats::median_of(&t.bytecode),
            stats::median_of(&t.native),
        );
        Json::obj([
            ("row", Json::str(r.name.as_str())),
            ("entries", Json::Num(r.entries as f64)),
            ("compile", summary_ms(&t.compile)),
            ("hybrid", summary_ms(&t.hybrid)),
            ("bytecode", summary_ms(&t.bytecode)),
            ("native", summary_ms(&t.native)),
            ("hybrid_1t", summary_ms(&t.hybrid_1t)),
            ("hybrid_writelog", summary_ms(&t.hybrid_writelog)),
            ("hybrid_treewalk", summary_ms(&t.hybrid_treewalk)),
            ("hybrid_unpinned", summary_ms(&t.unpinned)),
            ("hybrid_unpinned_1t", summary_ms(&t.unpinned_1t)),
            ("treewalk", summary_ms(&t.treewalk)),
            ("vs_bytecode_x", Json::Num(h / b)),
            ("vs_native_x", Json::Num(h / n)),
            ("fixed_cost_us", Json::Num((h - b) / r.entries as f64 / 1e3)),
            ("bytecode_ops", Json::Num(t.lowered.0 as f64)),
            ("bytecode_regs", Json::Num(t.lowered.1 as f64)),
            ("skew", Json::Num(t.skew)),
        ])
    };
    let detail = Json::obj([
        ("rounds", Json::Num(rounds as f64)),
        (
            "rows_as_measured",
            Json::Arr(
                rows.iter()
                    .zip(&times)
                    .map(|(r, t)| row_json(r, t))
                    .collect(),
            ),
        ),
    ]);
    Measured {
        metrics: layers,
        normalised: None,
        calibration,
        checks,
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_driver::DispatchTier;

    #[test]
    fn sweep_sources_are_sequential_outside_and_dispatchable_inside() {
        let size = Size::smoke();
        for row in reentry_rows(&size, 11) {
            let rep = row.compile();
            let outer = format!("{}/do10", row.label.split('/').next().expect("label"));
            let v = rep.verdict(&outer).expect("outer sweep has a verdict");
            assert!(
                matches!(v.tier, DispatchTier::Sequential) && !v.parallel,
                "{}: outer sweep is {:?}",
                row.name,
                v.tier
            );
            let v = rep.verdict(&row.label).expect("inner loop has a verdict");
            assert!(tier_matches(&v.tier, row.expected_tier), "{}", row.name);
            assert!(!matches!(v.tier, DispatchTier::Sequential), "{}", row.name);
        }
    }

    #[test]
    fn every_row_passes_its_own_checks_at_smoke_size() {
        let size = Size::smoke();
        for rows in [large_rows(&size, 5), reentry_rows(&size, 5)] {
            let refs = references(&rows);
            for (row, reference) in rows.iter().zip(&refs) {
                let (rep, out) = row.run(hybrid_config(2));
                assert_eq!(row.check(&rep, &out, reference), Ok(()));
            }
        }
    }

    #[test]
    fn a_wrong_store_fails_the_check() {
        let size = Size::smoke();
        let rows = large_rows(&size, 5);
        let mut refs = references(&rows);
        let (rep, out) = rows[0].run(hybrid_config(2));
        refs[0].arrays[0].1[3] += 1.0;
        assert!(rows[0].check(&rep, &out, &refs[0]).is_err());
    }
}
