//! The two service workloads, both a closed loop: `T` clients, each
//! blocked in `Service::analyze` while its request is served, against
//! `T` workers. `service-warm` draws from a hot set that fits the
//! verdict cache (the queue, the cache probe, the reply and the thread
//! hop do the work); `service-cold` sends textually distinct sources
//! (every request compiles, inserts and evicts). One operation is one
//! request; latency is timed by the client around `analyze`.

use crate::compile::{self, Counts};
use crate::host::Calibrator;
use crate::json::Json;
use crate::report::{Checks, EndToEnd, Layers, Measured};
use crate::stats::{self, Histogram};
use crate::trace::Tracer;
use crate::Size;
use irr_driver::{compile_source, CompilationReport, DegradeLevel, DriverOptions};
use irr_exec::SplitMix64;
use irr_programs::fuzz::random_loop_program;
use irr_programs::sparse::{interproc_kernels, kernels, producer_kernels, SparseScale};
use irr_service::{
    program_hash, AnalysisResponse, Service, ServiceConfig, StatsSnapshot, VerdictCache,
    VerdictProbe,
};
use irr_sparse::Structure;
use std::collections::hash_map::{Entry, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One hot-set source with the counts its report must carry.
pub struct HotSource {
    pub name: String,
    pub source: String,
    expected: Counts,
}

/// `service-warm`'s hot set: the sparse kernel sources on two
/// structures and the five benchmarks at test scale — 33 sources, well
/// inside the cache's 256 entries.
pub fn hot_set(seed: u64) -> Vec<HotSource> {
    let mut out = Vec::new();
    let mut push = |name: String, source: String| {
        let expected = Counts::of(&direct_compile(&source));
        out.push(HotSource {
            name,
            source,
            expected,
        });
    };
    for structure in [Structure::Uniform, Structure::PowerLaw] {
        let scale = SparseScale::test(structure, seed);
        for k in kernels(&scale)
            .into_iter()
            .chain(producer_kernels(&scale))
            .chain(interproc_kernels(&scale))
        {
            push(format!("{}-{}", k.name, structure.tag()), k.source);
        }
    }
    for b in irr_programs::all(irr_programs::Scale::Test) {
        push(b.name.to_string(), b.source);
    }
    out
}

fn direct_compile(source: &str) -> CompilationReport {
    compile_source(source, DriverOptions::with_iaa()).expect("benchmark sources are well formed")
}

/// The seed of request `n` of client `client`: a request's source can be
/// regenerated from it after the run, to check the response.
fn request_seed(seed: u64, client: usize, n: u64) -> u64 {
    SplitMix64::new(seed ^ ((client as u64 + 1) << 48) ^ n).next_u64()
}

/// A random loop program renamed so that its text is distinct from
/// every other request's: plain draws collide (there are only a few
/// thousand distinct bodies), and a collision would be a cache hit.
fn renamed(base: &str, client: usize, n: u64) -> String {
    base.replacen("program f", &format!("program f{}x{n}", client + 1), 1)
}

/// The source of request `n` of client `client`.
pub fn cold_source(request_seed: u64, client: usize, n: u64) -> String {
    renamed(
        &random_loop_program(&mut SplitMix64::new(request_seed)),
        client,
        n,
    )
}

pub fn start(threads: usize) -> Service {
    Service::start(ServiceConfig {
        workers: threads,
        ..ServiceConfig::default()
    })
}

/// One unmeasured pass over the hot set: fills the cache and warms the
/// pool.
pub fn fill(service: &Service, hot: &[HotSource], checks: &mut Checks) {
    for h in hot {
        let resp = service.analyze(&h.name, &h.source);
        if let Err(msg) =
            check_response(&resp).and_then(|got| same_counts(&h.name, got, h.expected))
        {
            checks.fail(msg);
        }
    }
}

/// A small unmeasured burst of distinct sources: warms the pool and the
/// allocator on the path `service-cold` takes.
pub fn warm_cold(service: &Service, seed: u64, requests: u64) {
    // A client number no measured window uses, so its sources are not
    // theirs.
    const WARM_CLIENT: usize = 63;
    for n in 0..requests {
        let src = cold_source(request_seed(seed, WARM_CLIENT, n), WARM_CLIENT, n);
        black_box(service.analyze("warm-up", &src).result.is_ok());
    }
}

/// A response counts only if it is a full-strength `ok`: shed,
/// degraded, panicked and parse-error responses all fail.
fn check_response(resp: &AnalysisResponse) -> Result<Counts, String> {
    match &resp.result {
        Ok(a) if a.degraded.is_none() && a.level == DegradeLevel::Full => Ok(Counts::of(&a.report)),
        _ => Err(format!("{}: response `{}`", resp.name, resp.reason_code())),
    }
}

fn same_counts(name: &str, got: Counts, want: Counts) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{name}: report differs from a direct compile ({got:?} vs {want:?})"
        ))
    }
}

/// What one client brings back from its window.
struct ClientLog {
    latencies: Histogram,
    /// `(start, end)` of every request in ns since the window's start;
    /// kept only for a window that will become spans.
    intervals: Vec<(u64, u64)>,
    checks: Checks,
    /// `service-cold`: hash of a request's unrenamed draw → `(request
    /// seed, digest of the response's counts)` of the first response to
    /// that draw. Later responses to the same draw are checked against
    /// it at once; the first is checked against a direct compile after
    /// the window, so the check costs the service no load. There are
    /// only a few thousand distinct draws, so what a client remembers
    /// does not grow with the requests it sends and `peak_rss_mb`
    /// measures the service, not the log.
    first_seen: HashMap<u64, (u64, u64)>,
    calibration: Calibrator,
}

pub enum Traffic<'a> {
    Warm(&'a [HotSource]),
    Cold,
}

/// What a window measured.
pub struct Window {
    latencies: Histogram,
    intervals: Vec<(u64, u64)>,
    wall: Duration,
    checks: Checks,
    calibration: Calibrator,
    /// Service counters, this window only.
    stats: StatsSnapshot,
}

/// Runs the closed loop for `seconds` and verifies every response.
/// `first_request` keeps the cold sources of successive windows apart.
pub fn window(
    service: &Service,
    traffic: &Traffic<'_>,
    threads: usize,
    seed: u64,
    first_request: u64,
    seconds: f64,
    keep_intervals: bool,
) -> Window {
    let before = service.stats();
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..threads)
            .map(|client| {
                scope.spawn(move || {
                    let mut log = ClientLog {
                        latencies: Histogram::new(),
                        intervals: Vec::new(),
                        checks: Checks::default(),
                        first_seen: HashMap::new(),
                        calibration: Calibrator::new(),
                    };
                    let mut rng = SplitMix64::new(seed ^ ((client as u64 + 1) << 32));
                    let mut n = first_request;
                    while Instant::now() < deadline {
                        log.calibration.tick();
                        // `analyze` alone is inside the timing: drawing
                        // the source and checking the reply are not the
                        // service's work.
                        let mut timed = |name: &str, source: &str| {
                            let t0 = epoch.elapsed().as_nanos() as u64;
                            let resp = service.analyze(name, source);
                            let t1 = epoch.elapsed().as_nanos() as u64;
                            log.latencies.record(t1 - t0);
                            if keep_intervals {
                                log.intervals.push((t0, t1));
                            }
                            resp
                        };
                        match traffic {
                            Traffic::Warm(hot) => {
                                let h = rng.choose(hot);
                                let resp = timed(&h.name, &h.source);
                                log.checks.record(
                                    check_response(&resp)
                                        .and_then(|got| same_counts(&h.name, got, h.expected)),
                                );
                            }
                            Traffic::Cold => {
                                let rs = request_seed(seed, client, n);
                                let base = random_loop_program(&mut SplitMix64::new(rs));
                                let resp = timed("cold", &renamed(&base, client, n));
                                match check_response(&resp).map(|got| got.digest()) {
                                    Ok(got) => match log.first_seen.entry(program_hash(&base)) {
                                        Entry::Vacant(e) => {
                                            e.insert((rs, got));
                                        }
                                        Entry::Occupied(e) => {
                                            log.checks.record(if e.get().1 == got {
                                                Ok(())
                                            } else {
                                                Err(format!(
                                                    "cold request {rs:#x}: report differs from \
                                                     that of the same body before"
                                                ))
                                            })
                                        }
                                    },
                                    Err(msg) => log.checks.record(Err(msg)),
                                }
                            }
                        }
                        n += 1;
                    }
                    log
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let wall = epoch.elapsed();
    let after = service.stats();

    let mut w = Window {
        latencies: Histogram::new(),
        intervals: Vec::new(),
        wall,
        checks: Checks::default(),
        calibration: Calibrator::new(),
        stats: StatsSnapshot {
            completed: after.completed - before.completed,
            cache_hits: after.cache_hits - before.cache_hits,
            cache_misses: after.cache_misses - before.cache_misses,
            busy_ns: after.busy_ns - before.busy_ns,
            shed_queue_full: after.shed_queue_full - before.shed_queue_full,
            shed_shutdown: after.shed_shutdown - before.shed_shutdown,
            degraded: after.degraded - before.degraded,
            parse_errors: after.parse_errors - before.parse_errors,
            panics_caught: after.panics_caught - before.panics_caught,
            ..after
        },
    };
    // One direct compile per distinct body, whichever clients saw it.
    let mut expected: HashMap<u64, u64> = HashMap::new();
    for log in logs {
        w.latencies.merge(&log.latencies);
        w.intervals.extend(log.intervals);
        w.checks.merge(log.checks);
        w.calibration.absorb(log.calibration);
        for (body, (rs, got)) in log.first_seen {
            let want = *expected.entry(body).or_insert_with(|| {
                let base = random_loop_program(&mut SplitMix64::new(rs));
                Counts::of(&direct_compile(&base)).digest()
            });
            w.checks.record(if got == want {
                Ok(())
            } else {
                Err(format!(
                    "cold request {rs:#x}: report differs from a direct compile"
                ))
            });
        }
    }
    // The workload must keep exercising its path: the warm one hits,
    // the cold one never does.
    let rate = w.stats.cache_hit_rate();
    let on_path = match traffic {
        Traffic::Warm(_) => rate >= 0.99,
        Traffic::Cold => w.stats.cache_hits == 0,
    };
    if !on_path {
        w.checks
            .fail(format!("cache hit rate {rate} is off the workload's path"));
    }
    w
}

impl Window {
    fn requests(&self) -> u64 {
        self.latencies.len()
    }

    fn rps(&self) -> f64 {
        self.requests() as f64 / self.wall.as_secs_f64()
    }

    /// Seconds of wall time per request, all clients together.
    fn per_request_s(&self) -> f64 {
        self.wall.as_secs_f64() / self.requests().max(1) as f64
    }

    fn summary(&self, threads: usize) -> Vec<(&'static str, Json)> {
        vec![
            ("requests", Json::Num(self.requests() as f64)),
            ("clients", Json::Num(threads as f64)),
            ("workers", Json::Num(threads as f64)),
            ("wall_s", Json::Num(self.wall.as_secs_f64())),
            ("rps_as_measured", Json::Num(self.rps())),
            ("hit_rate", Json::Num(self.stats.cache_hit_rate())),
        ]
    }
}

/// The untraced, timed run.
pub fn measure(
    service: &Service,
    traffic: &Traffic<'_>,
    threads: usize,
    seed: u64,
    seconds: f64,
) -> Measured<EndToEnd> {
    let w = window(service, traffic, threads, seed, 0, seconds, false);
    let metrics = EndToEnd {
        // Time to serve 1000 requests at the measured rate.
        work_ms: w.per_request_s() * 1e6,
        p50_us: w.latencies.percentile(0.5) / 1e3,
    };
    let detail = Json::obj(w.summary(threads));
    Measured {
        metrics,
        normalised: None,
        calibration: w.calibration,
        checks: w.checks,
        detail,
    }
}

/// Drives a `VerdictCache` directly with `program_hash` keys: median
/// cost (ns) of a hit probe, and of an insert into a full cache (the
/// write path `service-cold` takes on every request: insert and evict).
fn verdict_cache_costs(reports: &[(u64, CompilationReport)]) -> (f64, f64) {
    const CAPACITY: usize = 256;
    let key = |i: usize| {
        let (hash, _) = &reports[i % reports.len()];
        (hash.wrapping_add(i as u64), DegradeLevel::Full)
    };
    let mut cache = VerdictCache::new(CAPACITY);
    let mut inserts = Vec::new();
    for i in 0..3 * CAPACITY {
        let report = reports[i % reports.len()].1.clone();
        let t0 = Instant::now();
        cache.insert(key(i), report);
        if i >= CAPACITY {
            inserts.push(t0.elapsed().as_nanos() as f64);
        }
    }
    let mut probes = Vec::new();
    for i in 2 * CAPACITY..3 * CAPACITY {
        let t0 = Instant::now();
        let hit = matches!(black_box(cache.probe(&key(i))), VerdictProbe::Hit(_));
        probes.push(t0.elapsed().as_nanos() as f64);
        assert!(hit, "verdict cache lost an entry it had room for");
    }
    (stats::median_of(&probes), stats::median_of(&inserts))
}

/// The traced run: one plain window and one whose client intervals
/// become spans, then the layers under a request timed from outside.
pub fn trace(
    service: &Service,
    traffic: &Traffic<'_>,
    size: &Size,
    threads: usize,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Measured<Layers> {
    let mut layers = Layers::new();
    let plain = window(service, traffic, threads, seed, 0, seconds / 4.0, false);
    let (plain_requests, plain_per_request_s) = (plain.requests(), plain.per_request_s());

    tracer.set_item("requests");
    let span = tracer.begin("service.window");
    let offset = tracer.now_ns();
    let mut w = window(
        service,
        traffic,
        threads,
        seed,
        1 << 32,
        seconds / 4.0,
        true,
    );
    for (s, e) in &w.intervals {
        tracer.record("service.analyze", offset + s, offset + e);
    }
    tracer.end(span);
    let mut checks = std::mem::take(&mut w.checks);
    checks.merge(plain.checks);
    let mut calibration = std::mem::replace(&mut w.calibration, Calibrator::new());
    calibration.absorb(plain.calibration);

    let p50_us = w.latencies.percentile(0.5) / 1e3;
    layers.set("service.rps", w.rps());
    layers.set("service.hit_rate", w.stats.cache_hit_rate());
    layers.set("service.p50_us", p50_us);
    layers.set("service.p90_us", w.latencies.percentile(0.9) / 1e3);
    layers.set("service.p99_us", w.latencies.percentile(0.99) / 1e3);
    layers.set(
        "service.busy_share",
        w.stats.busy_ns as f64 / (w.wall.as_nanos() as f64 * threads as f64),
    );
    layers.set(
        "service.shed",
        (w.stats.shed_queue_full + w.stats.shed_shutdown) as f64,
    );
    layers.set("service.degraded", w.stats.degraded as f64);
    layers.set("service.parse_errors", w.stats.parse_errors as f64);
    layers.set("service.panics", w.stats.panics_caught as f64);

    // The layers under a request. On the warm workload analysis does no
    // work, so the compile layers stay 0 and the whole latency is the
    // service's own; on the cold one a sample of request sources goes
    // through the same layer replay as `compile-corpus`.
    let sample: Vec<(String, String)> = match traffic {
        Traffic::Warm(hot) => hot
            .iter()
            .map(|h| (h.name.clone(), h.source.clone()))
            .collect(),
        Traffic::Cold => (0..size.cold_sample as u64)
            .map(|n| {
                let rs = request_seed(seed, 0, n);
                (format!("cold-{n}"), cold_source(rs, 0, n))
            })
            .collect(),
    };
    let (mut rounds, mut direct_us) = (0, 0.0);
    if matches!(traffic, Traffic::Cold) {
        let sources: Vec<(&str, &str)> = sample
            .iter()
            .map(|(n, s)| (n.as_str(), s.as_str()))
            .collect();
        rounds = compile::trace_sources(
            &sources,
            size.replay_rounds,
            seconds / 4.0,
            tracer,
            &mut layers,
            &mut checks,
            &mut calibration,
        );
        // Mean over the sampled sources of the median direct compile.
        direct_us = (layers.get("frontend.parse_ms") + layers.get("driver.compile_ms")) * 1e3
            / sources.len() as f64;
    }
    layers.set("service.overhead_p50_us", p50_us - direct_us);
    let reports: Vec<(u64, CompilationReport)> = sample
        .iter()
        .take(64)
        .map(|(_, src)| (program_hash(src), direct_compile(src)))
        .collect();
    let (probe_ns, insert_ns) = verdict_cache_costs(&reports);
    layers.set("service.cache_probe_ns", probe_ns);
    layers.set("service.cache_insert_ns", insert_ns);
    // Spans or no spans, the clients run the same loop; what differs is
    // that every interval is kept. (`trace_sources` set this to the
    // overhead of the compile spans; the request window is the part of
    // the trace the service is in.)
    layers.set(
        "trace.overhead_share",
        (w.per_request_s() - plain_per_request_s) / plain_per_request_s,
    );

    let mut detail = w.summary(threads);
    detail.extend([
        ("plain_window_requests", Json::Num(plain_requests as f64)),
        ("layer_replay_rounds", Json::Num(rounds as f64)),
        ("layer_replay_sources", Json::Num(sample.len() as f64)),
    ]);
    Measured {
        metrics: layers,
        normalised: None,
        calibration,
        checks,
        detail: Json::obj(detail),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn cold_sources_are_textually_distinct() {
        // Two clients, 40 000 requests each: the size of a full run.
        let mut hashes = HashSet::new();
        for client in 0..2 {
            for n in 0..40_000 {
                let src = cold_source(request_seed(0xCC5, client, n), client, n);
                hashes.insert(program_hash(&src));
            }
        }
        assert_eq!(hashes.len(), 80_000);
    }

    #[test]
    fn a_cold_source_compiles_like_its_unrenamed_draw() {
        let rs = request_seed(7, 1, 3);
        let base = random_loop_program(&mut SplitMix64::new(rs));
        let renamed = cold_source(rs, 1, 3);
        assert_ne!(base, renamed);
        assert_eq!(
            Counts::of(&direct_compile(&base)),
            Counts::of(&direct_compile(&renamed))
        );
    }
}
