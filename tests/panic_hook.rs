//! An injected panic is a chaos fault, not a program error: it unwinds
//! to the `catch_unwind` that attributes it without calling the panic
//! hook, so a chaos run prints no panic report. This file holds one
//! test, so no other test's panic reaches the hook it installs.

use irr_driver::{compile_source, DriverOptions};
use irr_exec::{FaultKind, FaultPlan};
use irr_runtime::{run_hybrid_with_faults, HybridConfig};
use irr_service::{Service, ServiceConfig, ServiceError, ServiceFault, ServiceFaultPlan};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

/// A guarded permutation scatter: its second loop (fault site 1)
/// passes inspection and dispatches parallel.
const GUARDED_SRC: &str = "program t
     integer i, n, p(8)
     real z(8), x(8)
     n = 8
     do i = 1, n
       p(i) = mod(i * 3, n) + 1
       x(i) = i * 1.0
     enddo
     do 20 i = 1, n
       z(p(i)) = x(i) * 2.0
 20  continue
     print z(1), z(8)
     end";

#[test]
fn an_injected_panic_never_calls_the_panic_hook() {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        CALLS.fetch_add(1, SeqCst);
        previous(info);
    }));

    let rep = compile_source(GUARDED_SRC, DriverOptions::with_iaa()).expect("compiles");
    let config = HybridConfig {
        threads: 4,
        ..HybridConfig::default()
    };
    let plan = FaultPlan::scripted([(1, FaultKind::PanicWorker { worker: 1 })]);
    let (hybrid, plan) = run_hybrid_with_faults(&rep, config, plan).expect("runs");
    assert_eq!(hybrid.telemetry.fallback_panic, 1);
    assert_eq!(plan.fired_count("panic-worker"), 1);

    let svc = Service::start(ServiceConfig {
        workers: 1,
        fault_plan: ServiceFaultPlan::scripted([(0, ServiceFault::PanicInAnalysis)]),
        ..ServiceConfig::default()
    });
    let resp = svc.analyze("panics", GUARDED_SRC);
    let Err(ServiceError::AnalysisPanicked { message, .. }) = resp.result else {
        panic!("{}: the injected panic was not caught", resp.reason_code());
    };
    assert!(message.contains("injected"), "{message}");
    assert_eq!(svc.shutdown().panics_caught, 1);

    assert_eq!(CALLS.load(SeqCst), 0, "the panic hook ran");
}
