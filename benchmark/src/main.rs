//! The repository benchmark. One process runs one workload:
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload exec-large --seed 3269 --seconds 20 --trace 0
//! ```
//!
//! It generates the workload's inputs from the seed, sets up (several
//! times, reporting the median), measures for `--seconds`, checks every
//! output against an independent reference, prints every metric by name
//! with its unit, and ends with one JSON line. `--trace 1` prints the
//! per-layer metrics instead of the end-to-end ones and writes the
//! spans to `benchmark/out/trace-<workload>.json`. See `README.md`.

mod compile;
mod exec;
mod host;
mod json;
mod native;
mod report;
mod selfcheck;
mod service;
mod stats;
mod trace;

use host::Calibrator;
use json::Json;
use report::{Checks, EndToEnd, Layers, Measured};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

pub const WORKLOADS: [&str; 5] = [
    "compile-corpus",
    "exec-large",
    "exec-reentry",
    "service-warm",
    "service-cold",
];

/// How much work a run does besides what `--seconds` sets. The smoke
/// size runs every code path of the full size on inputs about one
/// fiftieth as large.
pub struct Size {
    pub corpus_scale: irr_programs::Scale,
    pub corpus_random: usize,
    pub exec_nnz: usize,
    pub reentry_nnz: usize,
    /// Entries of the inner loop per run of a re-entry source.
    pub sweeps: usize,
    /// Fewest rounds over the items in a timed run, however short.
    pub min_rounds: usize,
    /// `(fewest, most)` rounds of a traced `exec-*` run, where a round
    /// is seconds long, and of the compile-layer replay, where it is
    /// milliseconds long.
    pub trace_rounds: (usize, usize),
    pub replay_rounds: (usize, usize),
    /// Request sources `service-cold` replays through the layer trace.
    pub cold_sample: usize,
    /// Set-up is done this many times; `setup_s` is the median.
    pub setups: usize,
}

impl Size {
    fn full() -> Size {
        Size {
            corpus_scale: irr_programs::Scale::Paper,
            corpus_random: 64,
            exec_nnz: 1 << 18,
            reentry_nnz: 1 << 12,
            sweeps: 200,
            min_rounds: 3,
            trace_rounds: (2, 5),
            replay_rounds: (2, 200),
            cold_sample: 256,
            setups: 5,
        }
    }

    fn smoke() -> Size {
        Size {
            corpus_scale: irr_programs::Scale::Test,
            corpus_random: 4,
            exec_nnz: 1 << 13,
            reentry_nnz: 1 << 9,
            sweeps: 20,
            min_rounds: 1,
            trace_rounds: (1, 1),
            replay_rounds: (2, 2),
            cold_sample: 8,
            setups: 1,
        }
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: Option<usize>,
}

const USAGE: &str =
    "usage: irr-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       irr-benchmark --repeat K [--seed N] [--seconds S]
       irr-benchmark --smoke
workloads: compile-corpus exec-large exec-reentry service-warm service-cold";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0xCC5,
        seconds: 20.0,
        trace: false,
        smoke: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                let v = value()?;
                args.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 120.0)
                    .ok_or(format!("bad --seconds `{v}` (0 < s <= 120)"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}` (0 or 1)")),
                }
            }
            "--smoke" => args.smoke = true,
            "--repeat" => {
                let v = value()?;
                args.repeat = Some(
                    v.parse()
                        .ok()
                        .filter(|k| (2..=20).contains(k))
                        .ok_or(format!("bad --repeat `{v}` (2 to 20)"))?,
                );
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.workload, args.repeat) {
        (Some(w), None) => run_workload(w, &args),
        (None, Some(k)) => selfcheck::repeat(k, args.seed, args.seconds),
        (None, None) if args.smoke => selfcheck::smoke(args.seed),
        _ => Err(format!("give --workload, --repeat or --smoke\n{USAGE}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

/// Median set-up time in seconds: as measured, and with every set-up
/// scaled to the reference speed by the calibration slices run just
/// before and after it. Set-up is over before the measurement starts, so
/// the run's own calibration says nothing about how fast the core was
/// then.
struct SetupTime {
    as_measured: f64,
    normalised: f64,
}

/// Calibration slices between two set-ups: 2 ms.
const SETUP_SLICES: usize = 8;

/// Runs `setup` at least `times` times, and on while set-up is so short
/// that a median of `times` would be mostly timer and scheduler noise;
/// returns the last result and the median set-up time.
fn set_up<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, SetupTime) {
    let mut calibration = Calibrator::new();
    let (mut secs, mut normalised): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut last = None;
    let mut before = calibration.slices(SETUP_SLICES);
    while secs.len() < times.max(1) || (secs.len() < 25 * times && secs.iter().sum::<f64>() < 1.0) {
        // The previous set-up's inputs are freed first, so that peak
        // memory is that of one set-up, not of two.
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        let s = t0.elapsed().as_secs_f64();
        let after = calibration.slices(SETUP_SLICES);
        secs.push(s);
        normalised.push(s * Calibrator::REFERENCE_US * 1e3 / ((before + after) / 2.0));
        before = after;
    }
    (
        last.expect("set up at least once"),
        SetupTime {
            as_measured: stats::median_of(&secs),
            normalised: stats::median_of(&normalised),
        },
    )
}

enum Metrics {
    EndToEnd(EndToEnd),
    Layers(Layers),
}

fn run_workload(workload: &str, args: &Args) -> Result<(), String> {
    let size = if args.smoke {
        Size::smoke()
    } else {
        Size::full()
    };
    let (seed, seconds) = (args.seed, args.seconds);
    let threads = host::load_threads();
    // Before any thread is started: they inherit the pin.
    host::pin_to_last_core()?;
    host::keep_freed_memory();
    let mut tracer = Tracer::new();
    let mut setup_checks = Checks::default();

    type Run = (Metrics, Option<Metrics>, Calibrator, Checks, Json);
    fn split<M>(m: Measured<M>, wrap: fn(M) -> Metrics) -> Run {
        (
            wrap(m.metrics),
            m.normalised.map(wrap),
            m.calibration,
            m.checks,
            m.detail,
        )
    }
    let (setup_s, (metrics, normalised, calibration, mut checks, detail)) = match workload {
        "compile-corpus" => {
            let (corpus, setup_s) = set_up(size.setups, || {
                let corpus = compile::corpus(&size, seed);
                compile::warm_up(&corpus);
                corpus
            });
            let reference = compile::references(&corpus, &mut setup_checks);
            let run = if args.trace {
                split(
                    compile::trace(&corpus, &size, seconds, &mut tracer),
                    Metrics::Layers,
                )
            } else {
                split(
                    compile::measure(&corpus, &reference, &size, seconds),
                    Metrics::EndToEnd,
                )
            };
            (setup_s, run)
        }
        "exec-large" | "exec-reentry" => {
            let (rows, setup_s) = set_up(size.setups, || {
                let rows = if workload == "exec-large" {
                    exec::large_rows(&size, seed)
                } else {
                    exec::reentry_rows(&size, seed)
                };
                exec::warm_up(&rows, threads);
                rows
            });
            let references = exec::references(&rows);
            let run = if args.trace {
                split(
                    exec::trace(&rows, &references, &size, threads, seconds, &mut tracer),
                    Metrics::Layers,
                )
            } else {
                split(
                    exec::measure(&rows, &references, &size, threads, seconds),
                    Metrics::EndToEnd,
                )
            };
            (setup_s, run)
        }
        "service-warm" | "service-cold" => {
            let warm = workload == "service-warm";
            let ((hot, svc), setup_s) = set_up(size.setups, || {
                let hot = if warm {
                    service::hot_set(seed)
                } else {
                    Vec::new()
                };
                let svc = service::start(threads);
                if warm {
                    service::fill(&svc, &hot, &mut setup_checks);
                } else {
                    service::warm_cold(&svc, seed, 200);
                }
                (hot, svc)
            });
            let traffic = if warm {
                service::Traffic::Warm(&hot)
            } else {
                service::Traffic::Cold
            };
            let run = if args.trace {
                split(
                    service::trace(&svc, &traffic, &size, threads, seed, seconds, &mut tracer),
                    Metrics::Layers,
                )
            } else {
                split(
                    service::measure(&svc, &traffic, threads, seed, seconds),
                    Metrics::EndToEnd,
                )
            };
            // Joins the workers: no thread outlives the measurement.
            svc.shutdown();
            (setup_s, run)
        }
        other => return Err(format!("unknown workload `{other}`")),
    };
    checks.merge(setup_checks);
    checks.attempted = checks.attempted.max(checks.failed).max(1);

    // Every time below is scaled to the reference speed: sample by
    // sample where the run did that itself, otherwise by the median
    // slice of the whole run. The result file keeps the values as
    // measured.
    let correction = calibration.correction();
    let peak_rss_mb = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let end_to_end = |e: &EndToEnd, setup_s: f64| -> Vec<(String, f64)> {
        vec![
            ("work_ms".into(), e.work_ms),
            ("p50_us".into(), e.p50_us),
            ("peak_rss_mb".into(), peak_rss_mb),
            ("setup_s".into(), setup_s),
        ]
    };
    let as_measured: Vec<(String, f64)> = match metrics {
        Metrics::EndToEnd(e) => end_to_end(&e, setup_s.as_measured),
        Metrics::Layers(mut layers) => {
            layers.set("host.calibration_us", calibration.median_us());
            layers.set("trace.spans", tracer.spans().len() as f64);
            layers.into_metrics()
        }
    };
    let scaled_per_sample = normalised.is_some();
    let metrics: Vec<(String, f64)> = match normalised {
        Some(Metrics::EndToEnd(e)) => end_to_end(&e, setup_s.normalised),
        _ => as_measured
            .iter()
            .map(|(name, value)| {
                let value = if name == "setup_s" {
                    setup_s.normalised
                } else {
                    report::corrected(name, *value, correction)
                };
                (name.clone(), value)
            })
            .collect(),
    };

    // Every metric by name with its unit, for people; then the files;
    // then the one line the caller parses.
    println!(
        "# {workload}  seed {seed}  {seconds} s  trace {}  {threads} threads on 1 of {} cores  \
         calibration {:.1} us (reference {} us){}",
        u8::from(args.trace),
        host::nproc(),
        calibration.median_us(),
        Calibrator::REFERENCE_US,
        if args.smoke { "  (smoke size)" } else { "" }
    );
    for (name, value) in &metrics {
        println!("{name:<44} {value:>16.4} {}", report::unit_of(name));
    }
    println!("attempted {}  failed {}", checks.attempted, checks.failed);
    for msg in &checks.messages {
        println!("FAILED: {msg}");
    }

    let to_json = |metrics: &[(String, f64)]| {
        Json::Obj(
            metrics
                .iter()
                .map(|(name, value)| {
                    (
                        name.clone(),
                        Json::obj([
                            ("value", Json::Num(*value)),
                            ("unit", Json::str(report::unit_of(name))),
                        ]),
                    )
                })
                .collect(),
        )
    };
    let metrics_json = to_json(&metrics);
    let mut file = vec![
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke_size", Json::Bool(args.smoke)),
        ("host", host::metadata()),
        ("calibration_us", Json::Num(calibration.median_us())),
        (
            "calibration_reference_us",
            Json::Num(Calibrator::REFERENCE_US),
        ),
        // Applied to the run's times unless every sample was scaled by
        // the slices just before it.
        ("correction", Json::Num(correction)),
        ("scaled_per_sample", Json::Bool(scaled_per_sample)),
        ("attempted", Json::Num(checks.attempted as f64)),
        ("failed", Json::Num(checks.failed as f64)),
        (
            "failures",
            Json::Arr(checks.messages.iter().map(Json::str).collect()),
        ),
        ("metrics", metrics_json.clone()),
        ("metrics_as_measured", to_json(&as_measured)),
        ("detail", detail),
    ];
    let file_name = if args.trace {
        file.push(("trace", tracer.to_json(10_000)));
        format!("trace-{workload}.json")
    } else {
        format!("result-{workload}.json")
    };
    let path = host::out_dir()
        .map_err(|e| format!("cannot create benchmark/out: {e}"))?
        .join(file_name);
    std::fs::write(&path, Json::obj(file).render_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(checks.failed == 0)),
            ("attempted", Json::Num(checks.attempted as f64)),
            ("failed", Json::Num(checks.failed as f64)),
            ("metrics", metrics_json),
        ])
        .render()
    );
    Ok(())
}
