//! Where `Service::submit` serves a cache hit itself, and where it
//! stops: a quarantined or poisoned key, and every request the
//! fault plan addresses, still reach a worker and are settled there
//! exactly as before; a hit takes no queue slot; once shutdown starts a
//! hit is shed like any request; and inline hits leave the cache and the
//! retry-after estimate as worker-served ones would.

use irr_driver::compile_source;
use irr_service::{
    program_hash, AnalysisResponse, DegradeLevel, DriverOptions, Service, ServiceConfig,
    ServiceError, ServiceFault, ServiceFaultPlan, ShedReason, Submitted, VerdictCache,
};
use std::sync::Arc;
use std::time::Duration;

/// A program with one indirect loop, under array extent `n`: one
/// distinct cache key per `n`.
fn program(n: usize) -> String {
    format!(
        "program v\ninteger i\ninteger idx({n})\nreal x({n})\ndo i = 1, {n}\nidx(i) = i\nenddo\n\
         do 10 i = 1, {n}\nx(idx(i)) = 1.0\n10 continue\nprint x(1)\nend\n"
    )
}

fn single_worker(plan: ServiceFaultPlan) -> Service {
    Service::start(ServiceConfig {
        workers: 1,
        fault_plan: plan,
        ..ServiceConfig::default()
    })
}

/// Submits and insists the request went to the queue.
fn queued(svc: &Service, name: &str, source: &str) -> AnalysisResponse {
    match svc.submit(name, source) {
        Submitted::Accepted(rx) => rx.recv().expect("a queued request is answered"),
        Submitted::Ready(resp) => panic!("{name}: answered by submit: {}", resp.reason_code()),
    }
}

/// Submits and insists `submit` served a full-strength hit itself.
fn inline_hit(svc: &Service, name: &str, source: &str) -> AnalysisResponse {
    let Submitted::Ready(resp) = svc.submit(name, source) else {
        panic!("{name}: a cached key went to the queue");
    };
    let a = resp.result.as_ref().expect("an inline response is a hit");
    assert!(a.cache_hit && a.degraded.is_none(), "{name}");
    assert_eq!(resp.queue_wait, Duration::ZERO, "{name}");
    *resp
}

#[test]
fn a_quarantined_key_never_short_circuits_and_spends_its_retries_as_before() {
    // Two workers: request 0 stalls, then analyzes and memoizes the key;
    // request 1 panics on the same key meanwhile and quarantines it. The
    // key ends up both cached and quarantined.
    let src = program(10);
    let svc = Service::start(ServiceConfig {
        workers: 2,
        fault_plan: ServiceFaultPlan::scripted([
            (0, ServiceFault::StallWorker { ms: 300 }),
            (1, ServiceFault::PanicInAnalysis),
        ]),
        ..ServiceConfig::default()
    });
    let first = svc.analyze_batch([("slow", src.as_str()), ("panics", src.as_str())]);
    assert_eq!(first[0].reason_code(), "ok");
    assert_eq!(first[1].reason_code(), "panic");
    assert_eq!(
        svc.cache_len(),
        1,
        "the slow request memoized after the panic"
    );

    // Both retries are spent by workers, then a worker re-admits the key
    // and serves the entry the slow request left.
    for i in 0..2 {
        assert_eq!(
            queued(&svc, &format!("q{i}"), &src).reason_code(),
            "quarantined"
        );
    }
    let readmitted = queued(&svc, "readmitted", &src);
    assert!(readmitted.result.expect("re-admitted").cache_hit);
    let stats = svc.stats();
    assert_eq!((stats.quarantined_served, stats.served_inline), (2, 0));
    assert_eq!(svc.cache_readmissions(), 1);

    // Only now is the key served by `submit`.
    inline_hit(&svc, "hit", &src);
    assert_eq!(svc.stats().served_inline, 1);
}

#[test]
fn a_poisoned_entry_is_never_served_by_submit() {
    let src = program(10);
    let svc = single_worker(ServiceFaultPlan::scripted([(
        2,
        ServiceFault::PoisonCacheEntry,
    )]));
    let fill = queued(&svc, "fill", &src).result.expect("analyzes"); // seq 0
    let before = inline_hit(&svc, "hit", &src).result.unwrap(); // seq 1
    assert!(Arc::ptr_eq(&fill.report, &before.report));

    // Seq 2 is addressed: it goes to the queue though its key is cached,
    // and the worker poisons, evicts and recomputes.
    let resp = queued(&svc, "poisoned", &src);
    let recomputed = resp.result.expect("recomputes");
    assert!(!recomputed.cache_hit, "served a poisoned entry");
    assert_eq!(svc.cache_poison_evictions(), 1);
    assert_eq!(svc.faults_fired_count("poisoned-cache-entry"), 1);

    // Later hits serve the recomputed report, never the poisoned one.
    let after = inline_hit(&svc, "after", &src).result.unwrap();
    assert!(Arc::ptr_eq(&after.report, &recomputed.report));
    assert!(!Arc::ptr_eq(&after.report, &fill.report));
}

#[test]
fn every_fault_on_a_cached_key_reaches_a_worker_and_fires_attributed() {
    let faults = [
        ServiceFault::PanicInAnalysis,
        ServiceFault::StallWorker { ms: 20 },
        ServiceFault::PoisonCacheEntry,
        ServiceFault::BudgetStarvation,
    ];
    // Seqs 0–3 fill four keys; seqs 4–7 hit them, each with one fault.
    let plan =
        ServiceFaultPlan::scripted(faults.iter().enumerate().map(|(i, f)| (4 + i as u64, *f)));
    let svc = single_worker(plan);
    let sources: Vec<String> = (0..4).map(|k| program(10 + k)).collect();
    for (k, src) in sources.iter().enumerate() {
        queued(&svc, &format!("fill{k}"), src);
    }
    let codes: Vec<&str> = sources
        .iter()
        .enumerate()
        .map(|(k, src)| queued(&svc, &format!("fault{k}"), src).reason_code())
        .collect();
    assert_eq!(codes, ["panic", "ok", "ok", "fuel"]);
    let fired: Vec<(u64, &str)> = svc
        .faults_fired()
        .iter()
        .map(|s| (s.request_seq, s.fault.name()))
        .collect();
    let expected: Vec<(u64, &str)> = (4..).zip(faults.iter().map(|f| f.name())).collect();
    assert_eq!(fired, expected);
    for f in faults {
        assert_eq!(svc.faults_fired_count(f.name()), 1, "{}", f.name());
    }
    let stats = svc.stats();
    assert_eq!((stats.served_inline, stats.panics_caught), (0, 1));
    // An unaddressed request on a key a fault left cached is served by
    // `submit` again.
    inline_hit(&svc, "after", &sources[2]);
}

#[test]
fn after_shutdown_starts_a_hit_is_shed_shutting_down() {
    let src = program(10);
    let svc = single_worker(ServiceFaultPlan::none());
    queued(&svc, "fill", &src);
    inline_hit(&svc, "hit", &src);
    svc.close();
    let Submitted::Ready(resp) = svc.submit("late", &src) else {
        panic!("a closed service queued a request");
    };
    assert!(matches!(
        resp.result,
        Err(ServiceError::Shed(ShedReason::ShuttingDown))
    ));
    let stats = svc.shutdown();
    assert_eq!((stats.cache_hits, stats.shed_shutdown), (1, 1));
    assert_eq!(stats.completed + stats.shed_shutdown, stats.submitted);
}

#[test]
fn a_hit_takes_no_queue_slot_and_is_never_shed_queue_full() {
    let (cached, other) = (program(10), program(11));
    let svc = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        fault_plan: ServiceFaultPlan::scripted([(1, ServiceFault::StallWorker { ms: 200 })]),
        ..ServiceConfig::default()
    });
    queued(&svc, "fill", &cached); // seq 0
    let Submitted::Accepted(stalled) = svc.submit("stall", &other) else {
        panic!("an empty queue shed");
    };
    // Fill the one slot behind the stalled worker: a miss is then shed.
    let mut shed = None;
    for i in 0..100 {
        if let Submitted::Ready(resp) = svc.submit(&format!("miss{i}"), &other) {
            shed = Some(resp);
            break;
        }
    }
    assert_eq!(
        shed.expect("a full queue shed a miss").reason_code(),
        "shed:queue-full"
    );
    // The queue is still full, and the cached key is served all the same.
    inline_hit(&svc, "hit", &cached);
    assert!(stalled
        .recv()
        .expect("the stalled request completes")
        .result
        .is_ok());
}

/// A scripted mixed run, single worker, capacity 3: misses, inline
/// hits that decide the LRU victim, evictions, a parse error and a
/// poisoned entry. The service's cache must end where a `VerdictCache`
/// driven directly through the same inserts and hits ends.
#[test]
fn the_cache_after_a_scripted_mixed_run_matches_one_driven_directly() {
    let [a, b, c, d] = [10, 11, 12, 13].map(program);
    let svc = Service::start(ServiceConfig {
        workers: 1,
        cache_capacity: 3,
        fault_plan: ServiceFaultPlan::scripted([(9, ServiceFault::PoisonCacheEntry)]),
        ..ServiceConfig::default()
    });
    let mut direct = VerdictCache::new(3);
    let key = |src: &str| (program_hash(src), DegradeLevel::Full);
    let insert = |cache: &mut VerdictCache, src: &str| {
        cache.insert(
            key(src),
            compile_source(src, DriverOptions::with_iaa()).unwrap(),
        );
    };
    for src in [&a, &b, &c] {
        queued(&svc, "fill", src); // seqs 0–2
        insert(&mut direct, src);
    }
    inline_hit(&svc, "a", &a); // seq 3: b is now the LRU
    assert!(direct.hit(&key(&a)).is_some());
    queued(&svc, "d", &d); // seq 4: evicts b
    insert(&mut direct, &d);
    assert_eq!(
        queued(&svc, "broken", "program t\ndo i = 1, 10\nend\n").reason_code(),
        "parse-error"
    ); // seq 5
    inline_hit(&svc, "c", &c); // seq 6
    inline_hit(&svc, "a", &a); // seq 7: d is now the LRU
    assert!(direct.hit(&key(&c)).is_some() && direct.hit(&key(&a)).is_some());
    queued(&svc, "b", &b); // seq 8: evicts d
    insert(&mut direct, &b);
    queued(&svc, "poisoned", &c); // seq 9: evicts c and reinserts it
    insert(&mut direct, &c);

    assert_eq!(svc.cache_len(), direct.len());
    assert_eq!(svc.cache_fingerprint(), direct.fingerprint());
    assert_eq!(svc.stats().served_inline, 3);
}

/// The `retry_after_ms` of the next queue-full shed: misses are
/// submitted until one is shed (the queue has one slot).
fn next_shed_retry_after_ms(svc: &Service, miss: &str) -> u64 {
    (0..100)
        .find_map(|_| match svc.submit("miss", miss) {
            Submitted::Ready(resp) => match resp.result {
                Err(ServiceError::Shed(ShedReason::QueueFull { retry_after_ms })) => {
                    Some(retry_after_ms)
                }
                _ => panic!("{}: not a queue-full shed", resp.reason_code()),
            },
            Submitted::Accepted(_) => None,
        })
        .expect("a queue of one behind a pinned worker sheds")
}

/// One slow miss (≥ 50 ms of worker time), then a worker pinned by a
/// stall and a full queue: a shed's estimate is that miss's time. Many
/// hits later, with the worker still pinned, it must not have fallen.
/// (Were the hits averaged in as worker time, 2000 of them would bring
/// it to the 1-ms floor.)
#[test]
fn hits_served_by_submit_do_not_pull_the_retry_after_estimate_down() {
    let (slow, pin, miss) = (program(10), program(11), program(12));
    let svc = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        fault_plan: ServiceFaultPlan::scripted([
            (0, ServiceFault::StallWorker { ms: 50 }),
            (1, ServiceFault::StallWorker { ms: 300 }),
        ]),
        ..ServiceConfig::default()
    });
    queued(&svc, "slow", &slow);
    // The worker adds its busy time just after it replies.
    while svc.stats().busy_ns == 0 {
        std::thread::yield_now();
    }
    let Submitted::Accepted(pinned) = svc.submit("pin", &pin) else {
        panic!("an empty queue shed");
    };
    let alone = next_shed_retry_after_ms(&svc, &miss);
    assert!(alone >= 50, "one worker busy ≥ 50 ms a request: {alone} ms");
    for _ in 0..2000 {
        inline_hit(&svc, "hit", &slow);
    }
    let with_hits = next_shed_retry_after_ms(&svc, &miss);
    assert!(
        with_hits >= alone,
        "2000 hits moved the estimate from {alone} ms to {with_hits} ms"
    );
    assert_eq!(svc.stats().served_inline, 2000);
    drop(pinned);
}
