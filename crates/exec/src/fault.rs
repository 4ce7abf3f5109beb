//! Deterministic fault injection for the parallel executor.
//!
//! The transactional dispatch path (parallel attempt → sequential
//! fallback on the untouched master store) is only trustworthy if it is
//! *exercised*: a recovery path that never runs is a recovery path that
//! doesn't work. A [`FaultPlan`] lets the chaos test-suite (and the
//! `sanitizer-audit --chaos` sweep) force every failure class the
//! executor can hit, at addressable dispatch sites, from a SplitMix64
//! seed — so every run is reproducible from `(program, seed)` alone.
//!
//! **Sites.** A *site* is one parallel dispatch attempt with at least
//! one iteration (zero-trip dispatches run no chunks, so no fault
//! can fire there and they do not consume a site). Sites are numbered
//! from 0 in dynamic dispatch order, which is deterministic for a
//! deterministic program.
//!
//! **Zero cost when off.** The dispatcher holds an `Option<FaultPlan>`
//! and the executor an `Option<FaultKind>` inside the
//! [`ParallelPlan`](crate::ParallelPlan); with no plan attached every
//! hook site is a single `None` check and no timestamp is ever taken.

use crate::rng::SplitMix64;
use std::collections::HashMap;

/// One injectable failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// The merge reports a write-write conflict that never happened.
    ForgeConflict,
    /// Chunk `worker` (modulo the chunk count) panics at chunk start,
    /// on whichever thread runs it — a pooled one or the master.
    PanicWorker {
        /// Nominal worker index; the executor reduces it modulo the
        /// number of chunks the dispatch actually has.
        worker: usize,
    },
    /// Worker `worker` sleeps `stall_ms` milliseconds at chunk start —
    /// with a configured deadline, the watchdog turns this into a
    /// timeout fallback instead of a wedged run.
    StallWorker {
        /// Nominal worker index (reduced modulo the chunk count).
        worker: usize,
        /// Injected stall duration in milliseconds.
        stall_ms: u64,
    },
    /// The inspector lies: a runtime guard that would have failed is
    /// reported as passed, so the executor dispatches a genuinely
    /// conflicting schedule (and must catch it in the merge).
    LieInspector,
}

impl FaultKind {
    /// Short stable name, used in telemetry dumps and test output.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::ForgeConflict => "forge-conflict",
            FaultKind::PanicWorker { .. } => "panic-worker",
            FaultKind::StallWorker { .. } => "stall-worker",
            FaultKind::LieInspector => "lie-inspector",
        }
    }
}

/// A fault that actually went live: a lie applied to a guard verdict, or
/// a worker fault stamped into a dispatched [`ParallelPlan`]
/// (decided-but-undispatched faults — e.g. on a guard that failed
/// honestly — are *not* recorded).
///
/// [`ParallelPlan`]: crate::ParallelPlan
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultShot {
    /// The dispatch site the fault fired at.
    pub site: u64,
    /// What was injected.
    pub kind: FaultKind,
}

/// How faults are chosen per site.
#[derive(Clone, Debug)]
enum Source {
    /// Explicit `site → fault` script.
    Scripted(HashMap<u64, FaultKind>),
    /// Seeded random schedule: each site draws a fault with probability
    /// `rate_per_mille / 1000`.
    Random {
        rng: SplitMix64,
        rate_per_mille: u32,
        stall_ms: u64,
    },
}

/// A deterministic, site-addressable fault schedule.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    source: Source,
    site: u64,
    fired: Vec<FaultShot>,
}

impl FaultPlan {
    /// A plan injecting exactly the scripted faults, keyed by site.
    pub fn scripted(faults: impl IntoIterator<Item = (u64, FaultKind)>) -> FaultPlan {
        FaultPlan {
            source: Source::Scripted(faults.into_iter().collect()),
            site: 0,
            fired: Vec::new(),
        }
    }

    /// A seeded random schedule: every site draws a fault with
    /// probability `rate_per_mille / 1000` (kind and worker index are
    /// drawn from the same stream; injected stalls sleep `stall_ms`).
    /// Identical `(seed, rate_per_mille, stall_ms)` triples replay the
    /// identical schedule on a deterministic program.
    pub fn randomized(seed: u64, rate_per_mille: u32, stall_ms: u64) -> FaultPlan {
        FaultPlan {
            source: Source::Random {
                rng: SplitMix64::new(seed),
                rate_per_mille: rate_per_mille.min(1000),
                stall_ms,
            },
            site: 0,
            fired: Vec::new(),
        }
    }

    /// Decides the fault (if any) for the next site and advances the
    /// site counter. `threads` bounds randomly drawn worker indices.
    pub fn decide(&mut self, threads: usize) -> Option<FaultKind> {
        let site = self.site;
        self.site += 1;
        match &mut self.source {
            Source::Scripted(map) => map.get(&site).copied(),
            Source::Random {
                rng,
                rate_per_mille,
                stall_ms,
            } => {
                if rng.below(1000) >= u64::from(*rate_per_mille) {
                    return None;
                }
                let worker = rng.below(threads.max(1) as u64) as usize;
                Some(match rng.below(4) {
                    0 => FaultKind::ForgeConflict,
                    1 => FaultKind::PanicWorker { worker },
                    2 => FaultKind::StallWorker {
                        worker,
                        stall_ms: *stall_ms,
                    },
                    _ => FaultKind::LieInspector,
                })
            }
        }
    }

    /// Records that the fault decided for the most recent site actually
    /// went live (was stamped into a dispatched plan, or lied to a
    /// guard).
    pub fn record_fired(&mut self, kind: FaultKind) {
        self.fired.push(FaultShot {
            site: self.site.saturating_sub(1),
            kind,
        });
    }

    /// Sites decided so far (parallel dispatch attempts with ≥ 1
    /// iteration).
    pub fn sites(&self) -> u64 {
        self.site
    }

    /// Every fault that went live, in firing order.
    pub fn fired(&self) -> &[FaultShot] {
        &self.fired
    }

    /// Fired faults of one kind (by [`FaultKind::name`]).
    pub fn fired_count(&self, name: &str) -> usize {
        self.fired.iter().filter(|s| s.kind.name() == name).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_plan_fires_at_exact_sites() {
        let mut p = FaultPlan::scripted([
            (1, FaultKind::ForgeConflict),
            (3, FaultKind::PanicWorker { worker: 2 }),
        ]);
        assert_eq!(p.decide(4), None);
        assert_eq!(p.decide(4), Some(FaultKind::ForgeConflict));
        assert_eq!(p.decide(4), None);
        assert_eq!(p.decide(4), Some(FaultKind::PanicWorker { worker: 2 }));
        assert_eq!(p.sites(), 4);
    }

    #[test]
    fn randomized_plan_is_reproducible() {
        let draw = |seed| {
            let mut p = FaultPlan::randomized(seed, 500, 40);
            (0..32).map(|_| p.decide(4)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8), "different seeds, different schedule");
        let faults = draw(7).into_iter().flatten().count();
        assert!(faults > 4, "a 50% rate over 32 sites injects often");
    }

    #[test]
    fn zero_rate_never_injects() {
        let mut p = FaultPlan::randomized(42, 0, 40);
        assert!((0..64).all(|_| p.decide(4).is_none()));
    }

    #[test]
    fn fired_records_site_of_last_decision() {
        let mut p = FaultPlan::scripted([(2, FaultKind::LieInspector)]);
        for _ in 0..3 {
            if let Some(k) = p.decide(4) {
                p.record_fired(k);
            }
        }
        assert_eq!(
            p.fired(),
            &[FaultShot {
                site: 2,
                kind: FaultKind::LieInspector
            }]
        );
        assert_eq!(p.fired_count("lie-inspector"), 1);
        assert_eq!(p.fired_count("forge-conflict"), 0);
    }
}
