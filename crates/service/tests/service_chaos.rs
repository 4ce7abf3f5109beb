//! Chaos suite: the four service-level injected faults, each caught
//! with exact attribution, plus the cache-poisoning regression — a
//! panicking request leaves the shared verdict cache byte-identical
//! (same fingerprint) and its key quarantined, then re-admitted after
//! two degraded responses (the service's private constant).

use irr_programs::sparse::{kernels, producer_kernels, SparseScale};
use irr_service::{
    DegradeLevel, Service, ServiceConfig, ServiceError, ServiceFault, ServiceFaultPlan,
};
use irr_sparse::Structure;
use std::time::Duration;

const VICTIM: &str = "program v
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

const BYSTANDER: &str = "program b
integer i
real y(20)
do i = 1, 20
y(i) = 2.0
enddo
print y(1)
end
";

fn single_worker(plan: ServiceFaultPlan) -> Service {
    Service::start(ServiceConfig {
        workers: 1, // deterministic request ordering for scripted seqs
        fault_plan: plan,
        ..ServiceConfig::default()
    })
}

#[test]
fn panic_in_analysis_is_caught_attributed_and_quarantines() {
    let svc = single_worker(ServiceFaultPlan::scripted([(
        0,
        ServiceFault::PanicInAnalysis,
    )]));

    let resp = svc.analyze("victim", VICTIM);
    match &resp.result {
        Err(ServiceError::AnalysisPanicked { rung, message }) => {
            assert_eq!(*rung, "full");
            assert!(message.contains("injected"), "payload lost: {message}");
        }
        other => panic!("expected AnalysisPanicked, got {other:?}"),
    }
    assert_eq!(resp.reason_code(), "panic");
    assert_eq!(svc.faults_fired_count("panic-in-analysis"), 1);
    assert_eq!(svc.faults_fired()[0].request_seq, 0);
    assert_eq!(svc.stats().panics_caught, 1);

    // The key is quarantined: default retries = 2 degraded responses.
    for i in 0..2 {
        let resp = svc.analyze(&format!("retry{i}"), VICTIM);
        let a = resp
            .result
            .as_ref()
            .expect("quarantined is degraded, not an error");
        assert_eq!(a.level, DegradeLevel::ParseOnly);
        assert_eq!(resp.reason_code(), "quarantined");
    }
    // Retries consumed: the key is re-admitted and analyzed in full.
    let resp = svc.analyze("readmitted", VICTIM);
    let a = resp.result.expect("re-admitted analysis succeeds");
    assert_eq!(a.level, DegradeLevel::Full);
    assert_eq!(a.degraded, None);
    assert_eq!(svc.cache_readmissions(), 1);
    assert_eq!(svc.stats().quarantined_served, 2);
    // And now it is memoized again.
    assert!(svc.analyze("hit", VICTIM).result.unwrap().cache_hit);
}

#[test]
fn panicking_request_leaves_the_cache_byte_identical() {
    // Warm the cache, then panic an uncached request: the fingerprint
    // (keys, generations, verdict digests) must not move at all.
    let svc = single_worker(ServiceFaultPlan::scripted([(
        2,
        ServiceFault::PanicInAnalysis,
    )]));
    assert!(svc.analyze("warm-1", VICTIM).result.is_ok()); // seq 0
    assert!(svc.analyze("warm-2", BYSTANDER).result.is_ok()); // seq 1
    let before = svc.cache_fingerprint();
    assert_eq!(svc.cache_len(), 2);

    let third =
        "program c\ninteger i\nreal z(5)\ndo i = 1, 5\nz(i) = 1.0\nenddo\nprint z(1)\nend\n";
    let resp = svc.analyze("panicker", third); // seq 2
    assert!(matches!(
        resp.result,
        Err(ServiceError::AnalysisPanicked { .. })
    ));
    assert_eq!(svc.cache_fingerprint(), before, "panic touched the cache");
    assert_eq!(svc.cache_len(), 2);

    // The bystanders still hit.
    assert!(svc.analyze("still-1", VICTIM).result.unwrap().cache_hit);
    assert!(svc.analyze("still-2", BYSTANDER).result.unwrap().cache_hit);

    // After the quarantine drains, the third program completes and the
    // fingerprint finally (legitimately) changes.
    for i in 0..2 {
        assert_eq!(
            svc.analyze(&format!("q{i}"), third).reason_code(),
            "quarantined"
        );
    }
    let a = svc.analyze("fresh", third).result.expect("re-admitted");
    assert_eq!(a.level, DegradeLevel::Full);
    assert_ne!(svc.cache_fingerprint(), before);
    assert_eq!(svc.cache_len(), 3);
}

#[test]
fn a_request_that_bypasses_the_cache_counts_no_probe() {
    // A scripted panic on a *cached* key: the fault skips the probe, so
    // the request is neither a hit nor a miss and the hit rate stays a
    // rate over probes that ran.
    let svc = single_worker(ServiceFaultPlan::scripted([(
        2,
        ServiceFault::PanicInAnalysis,
    )]));
    assert!(!svc.analyze("fill", VICTIM).result.unwrap().cache_hit); // seq 0: miss
    assert!(svc.analyze("hit", VICTIM).result.unwrap().cache_hit); // seq 1: hit
    assert_eq!(svc.analyze("panicker", VICTIM).reason_code(), "panic"); // seq 2: no probe
    let stats = svc.stats();
    assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
    assert!((stats.cache_hit_rate() - 0.5).abs() < 1e-9);

    // Every later request probes: two quarantined, then a miss.
    for _ in 0..2 {
        assert_eq!(svc.analyze("q", VICTIM).reason_code(), "quarantined");
    }
    assert!(!svc.analyze("readmitted", VICTIM).result.unwrap().cache_hit);
    let stats = svc.shutdown();
    assert_eq!((stats.cache_hits, stats.cache_misses), (1, 2));
    let bypassed = 1;
    assert_eq!(
        stats.cache_hits + stats.cache_misses + stats.quarantined_served,
        stats.completed - bypassed
    );
}

#[test]
fn stalled_worker_degrades_on_the_wall_clock() {
    let svc = Service::start(ServiceConfig {
        workers: 1,
        wall_budget: Some(Duration::from_millis(150)),
        fault_plan: ServiceFaultPlan::scripted([(0, ServiceFault::StallWorker { ms: 400 })]),
        ..ServiceConfig::default()
    });
    let resp = svc.analyze("stalled", VICTIM);
    let a = resp.result.as_ref().expect("stall degrades, not errors");
    assert_eq!(a.level, DegradeLevel::ParseOnly);
    assert_eq!(resp.reason_code(), "wall-clock");
    assert_eq!(svc.faults_fired_count("stalled-worker"), 1);
    assert!(svc.stats().wall_exhaustions >= 1);
    // A suspect (degraded) result is never memoized.
    assert_eq!(svc.cache_len(), 0);

    // The next request is unaffected: full strength.
    let a = svc.analyze("after", VICTIM).result.expect("recovers");
    assert_eq!(a.level, DegradeLevel::Full);
}

#[test]
fn budget_starvation_descends_with_fuel_attribution() {
    let svc = single_worker(ServiceFaultPlan::scripted([(
        0,
        ServiceFault::BudgetStarvation,
    )]));
    let resp = svc.analyze("starved", VICTIM);
    let a = resp.result.as_ref().expect("starvation degrades");
    assert_eq!(a.level, DegradeLevel::ParseOnly);
    assert_eq!(resp.reason_code(), "fuel");
    assert_eq!(svc.faults_fired_count("budget-starvation"), 1);
    assert_eq!(svc.stats().fuel_exhaustions, 3); // one per analysis rung

    // Only that request was starved; the next runs unmetered.
    let a = svc.analyze("after", VICTIM).result.expect("recovers");
    assert_eq!(a.level, DegradeLevel::Full);
    assert_eq!(a.degraded, None);
}

#[test]
fn poisoned_cache_entry_is_evicted_and_recomputed_never_served() {
    let svc = single_worker(ServiceFaultPlan::scripted([(
        1,
        ServiceFault::PoisonCacheEntry,
    )]));
    assert!(!svc.analyze("seed", VICTIM).result.unwrap().cache_hit); // seq 0: fills
    let resp = svc.analyze("poisoned-probe", VICTIM); // seq 1: poisons, then probes
    let a = resp.result.as_ref().expect("recomputes");
    assert!(!a.cache_hit, "served a poisoned entry");
    assert_eq!(a.level, DegradeLevel::Full);
    assert_eq!(resp.reason_code(), "ok");
    assert_eq!(svc.faults_fired_count("poisoned-cache-entry"), 1);
    assert_eq!(svc.cache_poison_evictions(), 1);
    // The recomputed entry serves the next probe.
    assert!(svc.analyze("hit", VICTIM).result.unwrap().cache_hit);
}

/// Two request streams through the same body. The first is every
/// benchmark four times plus the malformed corpus, at generous budgets
/// and a 15 % fault rate, into a queue that holds the whole stream.
/// The second is a load generator's: 1 000 requests drawn 70 : 30 from
/// the well-formed pool (sparse and producer kernels on two matrix
/// structures, the benchmarks) and the malformed corpus, at starved
/// budgets and a 5 % fault rate, handed over in slices a little larger
/// than the queue — a bounded in-flight window, so admission control
/// sheds the tail of a slice without shedding most of the stream.
#[test]
fn randomized_chaos_sweep_never_escapes_a_panic() {
    let malformed: Vec<(String, String)> = irr_frontend::malformed_corpus(40)
        .into_iter()
        .map(|c| (c.name.to_string(), c.source))
        .collect();
    let benchmarks = irr_programs::all(irr_programs::Scale::Test);

    let mut fixed: Vec<(String, String)> = Vec::new();
    for round in 0..4 {
        for b in &benchmarks {
            fixed.push((format!("{}-{round}", b.name), b.source.clone()));
        }
    }
    fixed.extend(malformed.iter().cloned());

    let mut well_formed: Vec<(String, String)> = Vec::new();
    for (structure, tag) in [(Structure::Uniform, "uni"), (Structure::PowerLaw, "pow")] {
        let scale = SparseScale::test(structure, 0xbeef);
        for k in kernels(&scale).into_iter().chain(producer_kernels(&scale)) {
            well_formed.push((format!("{}-{tag}", k.name), k.source));
        }
    }
    well_formed.extend(
        benchmarks
            .into_iter()
            .map(|b| (b.name.to_string(), b.source)),
    );
    let mut rng = irr_exec::SplitMix64::new(0x5eed);
    let drawn: Vec<(String, String)> = (0..1000)
        .map(|_| {
            let from = if rng.next_u64() % 10 < 7 {
                &well_formed
            } else {
                &malformed
            };
            from[(rng.next_u64() % from.len() as u64) as usize].clone()
        })
        .collect();

    let inputs = [
        (
            ServiceConfig {
                workers: 4,
                queue_capacity: fixed.len(),
                fuel: Some(200_000),
                wall_budget: Some(Duration::from_millis(250)),
                fault_plan: ServiceFaultPlan::randomized(0xc4a05, 150, 5),
                ..ServiceConfig::default()
            },
            fixed,
        ),
        (
            ServiceConfig {
                workers: 4,
                queue_capacity: 64,
                fuel: Some(30_000),
                wall_budget: Some(Duration::from_millis(50)),
                fault_plan: ServiceFaultPlan::randomized(0x5eed, 50, 5),
                ..ServiceConfig::default()
            },
            drawn,
        ),
    ];
    for (config, requests) in inputs {
        let queue = config.queue_capacity;
        let svc = Service::start(config);
        let responses: Vec<_> = requests
            .chunks(queue + queue / 4)
            .flat_map(|slice| {
                svc.analyze_batch(slice.iter().map(|(n, s)| (n.as_str(), s.as_str())))
            })
            .collect();
        assert_eq!(responses.len(), requests.len());

        let known = [
            "ok",
            "fuel",
            "wall-clock",
            "quarantined",
            "parse-error",
            "panic",
            "shed:queue-full",
            "shed:shutting-down",
        ];
        for resp in &responses {
            assert!(
                known.contains(&resp.reason_code()),
                "{}: unknown reason {}",
                resp.name,
                resp.reason_code()
            );
        }
        // The only panics are the injected ones, each one attributed.
        let injected = svc.faults_fired_count("panic-in-analysis") as u64;
        assert_eq!(svc.stats().panics_caught, injected);
        assert!(
            !svc.faults_fired().is_empty(),
            "the randomized plan never fired"
        );
        // Nothing is lost in flight, and a queue that holds the whole
        // stream sheds none of it.
        let stats = svc.shutdown();
        assert_eq!(stats.submitted, requests.len() as u64);
        assert_eq!(
            stats.completed + stats.shed_queue_full + stats.shed_shutdown,
            stats.submitted
        );
        assert!(stats.shed_queue_full == 0 || requests.len() > queue);
    }
}
