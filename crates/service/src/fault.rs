//! Deterministic service-level fault injection — the analysis-side
//! mirror of the executor's `FaultPlan`. Faults fire per *request*
//! (keyed on the service's submission sequence number), so a chaos
//! test can script "request 3 panics, request 7 stalls" and assert
//! exact attribution in the stats afterwards. The plan is immutable
//! once the service starts: the shots that fired are recorded by the
//! service, beside it.

/// The four service-level faults of the chaos suite.
///
/// The three analysis-path faults (panic, stall, starvation) bypass
/// the verdict-cache probe on their request, so their coverage cannot
/// be masked by an earlier request having memoized the answer. A
/// request the plan addresses is never served by `submit` from the
/// cache: it always reaches a worker, where every fault fires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServiceFault {
    /// The analysis pass panics mid-request: must be caught by the
    /// worker's `catch_unwind`, answered with a typed error, and the
    /// cache key quarantined — never a dead worker or a partial entry.
    PanicInAnalysis,
    /// The worker stalls for `ms` before analyzing: with a wall-clock
    /// budget the request must come back degraded (reason-coded
    /// `wall-clock`), not hang the queue.
    StallWorker { ms: u64 },
    /// The request's cache entry is marked poisoned before the probe:
    /// the cache must evict (counted) and recompute, never serve it.
    PoisonCacheEntry,
    /// The request's fuel is forced to zero: the ladder must descend
    /// to parse-only with every rung reason-coded `fuel`.
    BudgetStarvation,
}

impl ServiceFault {
    /// Stable name for telemetry and attribution assertions.
    pub fn name(&self) -> &'static str {
        match self {
            ServiceFault::PanicInAnalysis => "panic-in-analysis",
            ServiceFault::StallWorker { .. } => "stalled-worker",
            ServiceFault::PoisonCacheEntry => "poisoned-cache-entry",
            ServiceFault::BudgetStarvation => "budget-starvation",
        }
    }
}

/// One fired fault, for post-run attribution.
#[derive(Clone, Copy, Debug)]
pub struct ServiceFaultShot {
    /// The submission sequence number the fault fired on.
    pub request_seq: u64,
    pub fault: ServiceFault,
}

/// Decides which requests misbehave. `None` (the default plan) injects
/// nothing and adds one branch per request.
#[derive(Default)]
pub struct ServiceFaultPlan {
    /// Scripted faults: `(request seq, fault)`.
    scripted: Vec<(u64, ServiceFault)>,
    /// Randomized injection: SplitMix64 over the request seq.
    randomized: Option<(u64, u32, u64)>, // (seed, rate_per_mille, stall_ms)
}

impl ServiceFaultPlan {
    /// A plan that never fires.
    pub fn none() -> ServiceFaultPlan {
        ServiceFaultPlan::default()
    }

    /// Fires exactly the given faults on the given request sequence
    /// numbers (0-based submission order).
    pub fn scripted(faults: impl IntoIterator<Item = (u64, ServiceFault)>) -> ServiceFaultPlan {
        ServiceFaultPlan {
            scripted: faults.into_iter().collect(),
            ..ServiceFaultPlan::default()
        }
    }

    /// Fires a pseudo-random fault on ~`rate_per_mille`/1000 of
    /// requests, deterministically in `seed`.
    pub fn randomized(seed: u64, rate_per_mille: u32, stall_ms: u64) -> ServiceFaultPlan {
        ServiceFaultPlan {
            randomized: Some((seed, rate_per_mille, stall_ms)),
            ..ServiceFaultPlan::default()
        }
    }

    /// The fault for request `seq`, if any. A pure function of `seq`,
    /// so `submit` and the workers consult the plan without a lock.
    pub fn decide(&self, seq: u64) -> Option<ServiceFault> {
        if let Some(f) = self
            .scripted
            .iter()
            .find(|(s, _)| *s == seq)
            .map(|(_, f)| *f)
        {
            return Some(f);
        }
        let (seed, rate, stall_ms) = self.randomized?;
        let mut z = seed ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        if z % 1000 >= rate as u64 {
            return None;
        }
        Some(match (z >> 10) % 4 {
            0 => ServiceFault::PanicInAnalysis,
            1 => ServiceFault::StallWorker { ms: stall_ms },
            2 => ServiceFault::PoisonCacheEntry,
            _ => ServiceFault::BudgetStarvation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_fires_exactly_where_told() {
        let p = ServiceFaultPlan::scripted([
            (3, ServiceFault::PanicInAnalysis),
            (7, ServiceFault::BudgetStarvation),
        ]);
        assert_eq!(p.decide(3), Some(ServiceFault::PanicInAnalysis));
        assert_eq!(p.decide(7), Some(ServiceFault::BudgetStarvation));
        for seq in [0, 1, 2, 4, 5, 6, 8, 100] {
            assert_eq!(p.decide(seq), None);
        }
    }

    #[test]
    fn randomized_is_deterministic_and_rate_bounded() {
        let p = ServiceFaultPlan::randomized(0xfeed, 100, 5);
        let a: Vec<_> = (0..1000).map(|s| p.decide(s)).collect();
        let b: Vec<_> = (0..1000).map(|s| p.decide(s)).collect();
        assert_eq!(a, b);
        let fired = a.iter().filter(|f| f.is_some()).count();
        assert!(fired > 50 && fired < 200, "~10% expected, got {fired}");
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(ServiceFault::PanicInAnalysis.name(), "panic-in-analysis");
        assert_eq!(ServiceFault::StallWorker { ms: 1 }.name(), "stalled-worker");
        assert_eq!(
            ServiceFault::PoisonCacheEntry.name(),
            "poisoned-cache-entry"
        );
        assert_eq!(ServiceFault::BudgetStarvation.name(), "budget-starvation");
    }
}
