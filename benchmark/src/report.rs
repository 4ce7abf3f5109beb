//! What one run of one workload hands back to `main`, and the metric
//! tables `BENCHMARK.json` is checked against.

use crate::host::Calibrator;
use crate::json::Json;
use crate::stats::{self, Summary};
use std::collections::BTreeMap;

/// Outcome checks of a run: every operation is attempted once and
/// either passes all its checks or counts as failed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the log and the result file.
    pub messages: Vec<String>,
}

impl Checks {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.fail(msg);
        }
    }

    /// A failure that is not one more attempted operation: a workload
    /// that stopped exercising its path.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(msg);
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }
}

/// The end-to-end metrics of one untraced run, as measured; set-up
/// time, memory and the correction for the core's speed are added by
/// `main`.
pub struct EndToEnd {
    /// Time to do the workload's unit of work once (see README).
    pub work_ms: f64,
    /// Median latency of one operation.
    pub p50_us: f64,
}

impl EndToEnd {
    /// From per-item samples in nanoseconds: `work_ms` is the sum over
    /// items of the per-item median, which repeats far better than any
    /// single item's median or a mean over the run; `p50_us` is the
    /// median item's median.
    pub fn from_items<S: AsRef<[f64]>>(samples: &[S]) -> EndToEnd {
        let medians: Vec<f64> = samples
            .iter()
            .map(|s| stats::median_of(s.as_ref()))
            .collect();
        EndToEnd {
            work_ms: medians.iter().sum::<f64>() / 1e6,
            p50_us: stats::median_of(&medians) / 1e3,
        }
    }
}

/// What a timed or traced run of one workload hands back.
pub struct Measured<M> {
    /// As measured.
    pub metrics: M,
    /// At the reference speed, where the run scaled every sample by the
    /// calibration slices just before it; `None` where `main` is to
    /// scale `metrics` by the run's median slice instead.
    pub normalised: Option<M>,
    /// How fast the host was while this was measured.
    pub calibration: Calibrator,
    pub checks: Checks,
    /// Per-item rows, counters and sample counts for the result file.
    pub detail: Json,
}

/// A timing summary as a JSON row (milliseconds).
pub fn summary_ms(samples_ns: &[f64]) -> Json {
    let s = Summary::of(samples_ns);
    Json::obj([
        ("median_ms", Json::Num(s.median / 1e6)),
        ("q1_ms", Json::Num(s.q1 / 1e6)),
        ("q3_ms", Json::Num(s.q3 / 1e6)),
        ("samples", Json::Num(s.n as f64)),
    ])
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Printed by every untraced run, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("work_ms", "ms", "lower"),
    m("p50_us", "us", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
    m("setup_s", "s", "lower"),
];

/// Printed by every traced run, on every workload. A layer that does no
/// work on a workload reports 0 there: that is the prediction "this
/// workload bypasses the layer" made checkable. Counts marked `exact`
/// in the README repeat exactly for a given seed.
pub const PER_LAYER: &[MetricDef] = &[
    // frontend
    m("frontend.parse_ms", "ms", "lower"),
    m("frontend.parse_mb_per_s", "MB/s", "higher"),
    m("frontend.stmts", "count", "lower"),
    // passes (the Fig. 15 pipeline replayed in driver order)
    m("passes.inline_ms", "ms", "lower"),
    m("passes.constprop_ms", "ms", "lower"),
    m("passes.normalize_ms", "ms", "lower"),
    m("passes.induction_ms", "ms", "lower"),
    m("passes.forward_sub_ms", "ms", "lower"),
    m("passes.dce_ms", "ms", "lower"),
    m("passes.pipeline_ms", "ms", "lower"),
    m("passes.stmts_after", "count", "lower"),
    // core (incl. graph)
    m("core.ctx_ms", "ms", "lower"),
    m("core.summaries_ms", "ms", "lower"),
    m("core.evolution_ms", "ms", "lower"),
    m("core.property_queries", "count", "lower"),
    m("core.solver_nodes", "count", "lower"),
    // driver
    m("driver.compile_ms", "ms", "lower"),
    m("driver.judge_ms", "ms", "lower"),
    m("driver.loops", "count", "higher"),
    m("driver.verdicts_ctp", "count", "higher"),
    m("driver.verdicts_guarded", "count", "lower"),
    m("driver.verdicts_seq", "count", "lower"),
    m("driver.promoted_evolution", "count", "higher"),
    m("driver.promoted_interproc", "count", "higher"),
    m("driver.compiled_plans", "count", "higher"),
    // sparse
    m("sparse.generate_ms", "ms", "lower"),
    m("sparse.skew", "ratio", "lower"),
    // exec
    m("exec.treewalk_ms", "ms", "lower"),
    m("exec.bytecode_ms", "ms", "lower"),
    m("exec.preset_ms", "ms", "lower"),
    m("exec.lower_ms", "ms", "lower"),
    m("exec.bytecode_ops", "count", "lower"),
    m("exec.bytecode_regs", "count", "lower"),
    m("exec.inspect_injective_ms", "ms", "lower"),
    m("exec.inspect_offset_length_ms", "ms", "lower"),
    m("native.kernel_ms", "ms", "lower"),
    // runtime
    m("runtime.hybrid_ms", "ms", "lower"),
    m("runtime.hybrid_1t_ms", "ms", "lower"),
    m("runtime.scaling_x", "x", "higher"),
    m("runtime.hybrid_writelog_ms", "ms", "lower"),
    m("runtime.hybrid_treewalk_ms", "ms", "lower"),
    m("runtime.vs_bytecode_x", "x", "lower"),
    m("runtime.vs_native_x", "x", "lower"),
    // runtime, per entry of a dispatched loop (200 per `exec-reentry` row)
    m("runtime.per_entry_us", "us", "lower"),
    m("runtime.fixed_cost_us", "us", "lower"),
    m("runtime.cache_probe_ns", "ns", "lower"),
    m("runtime.cache_insert_ns", "ns", "lower"),
    m("runtime.parallel_dispatches", "count", "higher"),
    m("runtime.inspections_run", "count", "lower"),
    m("runtime.inspections_retired", "count", "higher"),
    m("runtime.cache_hits", "count", "higher"),
    m("runtime.fallbacks", "count", "lower"),
    m("runtime.compiled_worker_dispatches", "count", "higher"),
    m("runtime.strategy_write_log", "count", "lower"),
    m("runtime.strategy_in_place", "count", "higher"),
    m("runtime.strategy_concat", "count", "higher"),
    // runtime, per exec-large row and per exec-reentry source
    m("runtime.vs_bytecode_x.spmv-uniform", "x", "lower"),
    m("runtime.vs_bytecode_x.scale-uniform", "x", "lower"),
    m("runtime.vs_bytecode_x.colscale-uniform", "x", "lower"),
    m("runtime.vs_bytecode_x.permute-uniform", "x", "lower"),
    m("runtime.vs_bytecode_x.rowgather-uniform", "x", "lower"),
    m("runtime.vs_bytecode_x.spmv-powerlaw", "x", "lower"),
    m("runtime.vs_bytecode_x.colscale-powerlaw", "x", "lower"),
    m("runtime.vs_native_x.spmv-uniform", "x", "lower"),
    m("runtime.vs_native_x.scale-uniform", "x", "lower"),
    m("runtime.vs_native_x.colscale-uniform", "x", "lower"),
    m("runtime.vs_native_x.permute-uniform", "x", "lower"),
    m("runtime.vs_native_x.rowgather-uniform", "x", "lower"),
    m("runtime.vs_native_x.spmv-powerlaw", "x", "lower"),
    m("runtime.vs_native_x.colscale-powerlaw", "x", "lower"),
    m("runtime.fixed_cost_us.sweep-permute", "us", "lower"),
    m("runtime.fixed_cost_us.sweep-spmv", "us", "lower"),
    m("runtime.fixed_cost_us.sweep-scale", "us", "lower"),
    // service
    m("service.rps", "1/s", "higher"),
    m("service.hit_rate", "ratio", "higher"),
    m("service.p50_us", "us", "lower"),
    m("service.p90_us", "us", "lower"),
    m("service.p99_us", "us", "lower"),
    m("service.busy_share", "ratio", "lower"),
    m("service.overhead_p50_us", "us", "lower"),
    m("service.cache_probe_ns", "ns", "lower"),
    m("service.cache_insert_ns", "ns", "lower"),
    m("service.shed", "count", "lower"),
    m("service.degraded", "count", "lower"),
    m("service.parse_errors", "count", "lower"),
    m("service.panics", "count", "lower"),
    // the host and the tracing itself
    m("host.calibration_us", "us", "lower"),
    m("trace.overhead_share", "ratio", "lower"),
    m("trace.spans", "count", "lower"),
];

fn def_of(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the tables"))
}

pub fn unit_of(name: &str) -> &'static str {
    def_of(name).unit
}

pub fn better_of(name: &str) -> &'static str {
    def_of(name).better
}

/// A metric corrected for the core's speed: times are multiplied by
/// `correction` (measured × reference slice ÷ measured slice), rates are
/// divided by it; counts, ratios and sizes are what they are.
pub fn corrected(name: &str, value: f64, correction: f64) -> f64 {
    if name == "host.calibration_us" {
        return value;
    }
    match unit_of(name) {
        "s" | "ms" | "us" | "ns" => value * correction,
        "1/s" | "MB/s" => value / correction,
        _ => value,
    }
}

/// Per-layer values of a traced run: every name of [`PER_LAYER`], 0
/// until a workload that exercises the layer sets it.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|d| (d.name, 0.0)).collect())
    }

    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in PER_LAYER")) = value;
    }

    pub fn add(&mut self, name: &str, value: f64) {
        let now = self.get(name);
        self.set(name, now + value);
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in PER_LAYER"))
    }

    /// In table order.
    pub fn into_metrics(self) -> Vec<(String, f64)> {
        PER_LAYER
            .iter()
            .map(|d| (d.name.to_string(), self.0[d.name]))
            .collect()
    }
}
