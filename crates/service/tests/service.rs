//! Service behavior under normal (fault-free) operation: memoization,
//! admission control, budget-driven degradation, typed parse errors,
//! and reason-coded responses for a mixed workload.

use irr_driver::compile_source;
use irr_service::{
    tier_rank, AnalysisResponse, CompilationReport, DegradeLevel, DriverOptions, Service,
    ServiceConfig, ServiceError, ServiceFault, ServiceFaultPlan, ShedReason, Submitted,
};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const GOOD: &str = "program t
integer i
integer idx(10)
real x(10)
do i = 1, 10
idx(i) = i
enddo
do 10 i = 1, 10
x(idx(i)) = 1.0
10 continue
print x(1)
end
";

#[test]
fn full_strength_roundtrip_then_cache_hit() {
    let svc = Service::start(ServiceConfig::default());
    let first = svc.analyze("good", GOOD);
    let a = first.result.as_ref().expect("full analysis succeeds");
    assert_eq!(a.level, DegradeLevel::Full);
    assert_eq!(a.degraded, None);
    assert!(!a.cache_hit);
    assert_eq!(first.reason_code(), "ok");

    let second = svc.analyze("good-again", GOOD);
    let b = second.result.as_ref().expect("cached analysis succeeds");
    assert!(b.cache_hit);
    assert_eq!(b.level, DegradeLevel::Full);
    // The memoized report answers identically.
    assert_eq!(a.report.verdicts.len(), b.report.verdicts.len());

    let stats = svc.shutdown();
    assert_eq!(stats.submitted, 2);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);
    assert!((stats.cache_hit_rate() - 0.5).abs() < 1e-9);
}

#[test]
fn parse_errors_are_typed_not_panics() {
    let svc = Service::start(ServiceConfig::default());
    let resp = svc.analyze("broken", "program t\ndo i = 1, 10\nend\n");
    match &resp.result {
        Err(ServiceError::Parse(msg)) => assert!(!msg.is_empty()),
        other => panic!("expected Parse error, got {other:?}"),
    }
    assert_eq!(resp.reason_code(), "parse-error");
    assert_eq!(svc.stats().parse_errors, 1);
}

#[test]
fn zero_fuel_descends_the_whole_ladder_with_reason() {
    let svc = Service::start(ServiceConfig {
        fuel: Some(0),
        ..ServiceConfig::default()
    });
    let resp = svc.analyze("starved", GOOD);
    let a = resp.result.as_ref().expect("degraded is Ok, not an error");
    assert_eq!(a.level, DegradeLevel::ParseOnly);
    assert_eq!(resp.reason_code(), "fuel");
    // Parse-only still names every loop, all sequential.
    assert_eq!(a.report.verdicts.len(), 2);
    assert!(a.report.verdicts.iter().all(|v| !v.parallel));

    let stats = svc.stats();
    // Full, summaries-off, and evolution-off each ran dry once.
    assert_eq!(stats.fuel_exhaustions, 3);
    assert_eq!(stats.degraded, 1);

    // Degraded results are never memoized.
    assert_eq!(svc.cache_len(), 0);
    let again = svc.analyze("starved-again", GOOD);
    assert!(!again.result.unwrap().cache_hit);
}

#[test]
fn expired_deadline_jumps_straight_to_parse_only() {
    let svc = Service::start(ServiceConfig {
        wall_budget: Some(Duration::ZERO),
        ..ServiceConfig::default()
    });
    let resp = svc.analyze("deadline", GOOD);
    let a = resp.result.as_ref().expect("degraded is Ok");
    assert_eq!(a.level, DegradeLevel::ParseOnly);
    assert_eq!(resp.reason_code(), "wall-clock");
    assert!(svc.stats().wall_exhaustions >= 1);
    assert_eq!(svc.cache_len(), 0);
}

#[test]
fn overload_sheds_with_reason_coded_retry_after() {
    // One worker pinned by a stall, queue of one: of five submissions
    // at most two are ever admitted (one in flight + one queued).
    let svc = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        fault_plan: ServiceFaultPlan::scripted([(0, ServiceFault::StallWorker { ms: 300 })]),
        ..ServiceConfig::default()
    });
    let mut pending = Vec::new();
    let mut shed: Vec<AnalysisResponse> = Vec::new();
    for i in 0..5 {
        match svc.submit(&format!("r{i}"), GOOD) {
            Submitted::Accepted(rx) => pending.push(rx),
            Submitted::Ready(resp) => shed.push(*resp),
        }
    }
    assert!(shed.len() >= 3, "expected >=3 sheds, got {}", shed.len());
    for resp in &shed {
        match &resp.result {
            Err(ServiceError::Shed(ShedReason::QueueFull { retry_after_ms })) => {
                assert!(*retry_after_ms >= 1);
            }
            other => panic!("expected QueueFull shed, got {other:?}"),
        }
        assert_eq!(resp.reason_code(), "shed:queue-full");
    }
    for rx in pending {
        let resp = rx.recv().expect("accepted requests complete");
        assert!(resp.result.is_ok());
    }
    let stats = svc.stats();
    assert_eq!(stats.shed_queue_full, shed.len() as u64);
    assert!(stats.shed_rate() > 0.5);
}

#[test]
fn batch_of_mixed_good_and_malformed_is_fully_reason_coded() {
    let corpus = irr_frontend::malformed_corpus(30);
    let benchmarks = irr_programs::all(irr_programs::Scale::Test);
    let mut requests: Vec<(String, String)> = Vec::new();
    for b in &benchmarks {
        requests.push((b.name.to_string(), b.source.clone()));
    }
    for c in &corpus {
        requests.push((c.name.to_string(), c.source.clone()));
    }
    // A second wave repeats the benchmarks so the cache gets hits;
    // `analyze_batch` drains the first wave before it is submitted.
    let again: Vec<(String, String)> = benchmarks
        .iter()
        .map(|b| (format!("{}-again", b.name), b.source.clone()))
        .collect();

    let svc = Service::start(ServiceConfig {
        workers: 4,
        queue_capacity: requests.len() + again.len(),
        ..ServiceConfig::default()
    });
    let mut responses = svc.analyze_batch(requests.iter().map(|(n, s)| (n.as_str(), s.as_str())));
    responses.extend(svc.analyze_batch(again.iter().map(|(n, s)| (n.as_str(), s.as_str()))));
    assert_eq!(responses.len(), requests.len() + again.len());

    let known = [
        "ok",
        "fuel",
        "wall-clock",
        "quarantined",
        "parse-error",
        "shed:queue-full",
        "shed:shutting-down",
        "panic",
    ];
    for resp in &responses {
        assert!(
            known.contains(&resp.reason_code()),
            "{}: unknown reason {}",
            resp.name,
            resp.reason_code()
        );
        // Nothing in the corpus panics analysis.
        assert!(!matches!(
            resp.result,
            Err(ServiceError::AnalysisPanicked { .. })
        ));
    }
    let stats = svc.shutdown();
    assert_eq!(stats.completed, (requests.len() + again.len()) as u64);
    assert_eq!(stats.panics_caught, 0);
    assert_eq!(stats.cache_hits, benchmarks.len() as u64);
}

#[test]
fn two_hits_share_one_report() {
    let svc = Service::start(ServiceConfig::default());
    let miss = svc.analyze("fill", GOOD).result.expect("analyzes");
    let hit = svc.analyze("hit", GOOD).result.expect("cached");
    let again = svc.analyze("again", GOOD).result.expect("cached");
    assert!(!miss.cache_hit && hit.cache_hit && again.cache_hit);
    // The miss's reply, the cache and both hits hold one allocation.
    assert!(Arc::ptr_eq(&miss.report, &hit.report));
    assert!(Arc::ptr_eq(&hit.report, &again.report));
    assert_eq!(Arc::strong_count(&hit.report), 4);
}

fn verdict_summary(report: &CompilationReport) -> Vec<(String, u8, bool)> {
    let summary = |v: &irr_driver::LoopVerdict| (v.label.clone(), tier_rank(&v.tier), v.parallel);
    report.verdicts.iter().map(summary).collect()
}

#[test]
fn hits_stay_correct_while_the_cache_is_invalidated_and_refilled_under_them() {
    // Eight keys: the same two loops over eight array extents; eight
    // more extents are the sources that evict them.
    let extent = |k: usize| GOOD.replace("(10)", &format!("({})", 10 + k));
    let sources: Vec<String> = (0..8).map(extent).collect();
    let others: Vec<String> = (8..16).map(extent).collect();
    let expected: Vec<_> = sources
        .iter()
        .map(|s| verdict_summary(&compile_source(s, DriverOptions::with_iaa()).unwrap()))
        .collect();
    let svc = Service::start(ServiceConfig {
        cache_capacity: 8,
        ..ServiceConfig::default()
    });
    let done = AtomicBool::new(false);
    // Hits are served on the clients' own threads and take well under a
    // microsecond, so 2000 of them can finish before a freshly spawned
    // churner is first scheduled: every thread starts together.
    let start = Barrier::new(5);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4)
            .map(|client| {
                let (svc, sources, expected, start) = (&svc, &sources, &expected, &start);
                scope.spawn(move || {
                    start.wait();
                    for n in 0..2000 {
                        let k = (client + n) % sources.len();
                        let resp = svc.analyze("hit", &sources[k]);
                        assert_eq!(resp.reason_code(), "ok");
                        let a = resp.result.expect("ok");
                        assert_eq!(a.level, DegradeLevel::Full);
                        assert_eq!(verdict_summary(&a.report), expected[k], "key {k}");
                    }
                })
            })
            .collect();
        // Churns the cache by eviction: the other sources fill it past
        // its capacity, then the eight keys are analyzed back in.
        let churner = scope.spawn(|| {
            start.wait();
            let mut rounds = 0;
            while !done.load(SeqCst) {
                for s in others.iter().chain(&sources) {
                    assert_eq!(svc.analyze("refill", s).reason_code(), "ok");
                }
                rounds += 1;
            }
            rounds
        });
        for c in clients {
            c.join().expect("client panicked");
        }
        done.store(true, SeqCst);
        assert!(churner.join().expect("churner panicked") > 0);
    });
    assert!(svc.cache_len() <= 8);
    let stats = svc.shutdown();
    assert_eq!(stats.completed, stats.submitted);
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.completed);
    assert!(stats.cache_hits > 0 && stats.cache_misses >= 8);
}

#[test]
fn a_dropped_receiver_loses_its_reply_and_nothing_else() {
    // The one worker is stalled in request 0 while request 1 is
    // submitted and its receiver dropped, so its reply has nowhere to go.
    let svc = Service::start(ServiceConfig {
        workers: 1,
        fault_plan: ServiceFaultPlan::scripted([(0, ServiceFault::StallWorker { ms: 200 })]),
        ..ServiceConfig::default()
    });
    let Submitted::Accepted(stalled) = svc.submit("stalled", GOOD) else {
        panic!("an empty queue shed");
    };
    match svc.submit("abandoned", GOOD) {
        Submitted::Accepted(rx) => drop(rx),
        Submitted::Ready(_) => panic!("a queue of 64 shed its second request"),
    }
    assert!(stalled
        .recv()
        .expect("the stalled request completes")
        .result
        .is_ok());
    let after = svc.analyze("after", GOOD);
    assert!(after.result.expect("the worker is alive").cache_hit);
    let stats = svc.shutdown();
    assert_eq!((stats.submitted, stats.completed), (3, 3));
}

#[test]
fn queue_wait_and_busy_time_add_up_to_the_latencies() {
    let benchmarks = irr_programs::all(irr_programs::Scale::Test);
    let malformed = irr_frontend::malformed_corpus(5);
    let pool: Vec<(&str, &str)> = benchmarks
        .iter()
        .map(|b| (b.name, b.source.as_str()))
        .chain(malformed.iter().map(|c| (c.name, c.source.as_str())))
        .collect();
    // 200 requests, each source many times over: misses, hits and
    // parse errors, most of them queued behind others.
    let requests: Vec<(&str, &str)> = pool.iter().cycle().take(200).copied().collect();
    let svc = Service::start(ServiceConfig {
        workers: 2,
        queue_capacity: requests.len(),
        ..ServiceConfig::default()
    });
    let responses = svc.analyze_batch(requests.iter().copied());
    let stats = svc.shutdown();
    assert_eq!(stats.completed, 200);
    assert!(stats.cache_hits > 0 && stats.cache_misses > 0 && stats.parse_errors > 0);
    for r in &responses {
        assert!(
            r.queue_wait <= r.latency,
            "{}: waited longer than it took",
            r.name
        );
    }
    let waited: u128 = responses.iter().map(|r| r.queue_wait.as_nanos()).sum();
    assert_eq!(waited, stats.queue_wait_ns as u128);
    let latencies: u128 = responses.iter().map(|r| r.latency.as_nanos()).sum();
    let accounted = (stats.busy_ns + stats.queue_wait_ns) as f64;
    let ratio = accounted / latencies as f64;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "busy {} + queue wait {} ns against {latencies} ns of latency",
        stats.busy_ns,
        stats.queue_wait_ns
    );
}
