//! Resource budgets for the compile-time analyses.
//!
//! A production analysis service cannot let one pathological program
//! monopolize a worker: every pass that does data-dependent work — the
//! demand-driven property solver, the value-evolution walk, the
//! bottom-up summary fixpoint — must be stoppable mid-flight without
//! compromising soundness. [`AnalysisBudget`] is the shared meter: a
//! fuel counter (analysis steps) plus an optional wall-clock deadline,
//! checked cooperatively at the passes' work sites.
//!
//! What each phase charges: the summary pass `1 + statements` per
//! routine it summarizes — the routines that have a call site, so a
//! call-free program spends nothing there; the evolution walk 1 per
//! statement visited plus `1 + body length` per `do` loop; the property
//! solver 1 per worklist node.
//!
//! The contract that keeps exhaustion *sound* is the same one the
//! solver already obeys: every budgeted question answers "could not be
//! verified" when the meter runs dry. Unverified properties only ever
//! move loop verdicts toward `Sequential` (fewer proofs, fewer
//! promotions, more runtime guards), never toward a parallel claim —
//! so a starved analysis yields weaker verdicts, not wrong ones. The
//! degradation ladder in `irr-driver`/`irr-service` builds on exactly
//! this property.
//!
//! The budget is `Sync` (atomics throughout) so a service watchdog can
//! observe a worker's meter while the worker burns it; the deadline is
//! sampled only every [`CLOCK_CHECK_INTERVAL`] spends to keep the
//! per-step cost to a pair of relaxed atomic operations.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// How many fuel spends happen between wall-clock samples: `Instant::
/// now()` is far more expensive than the atomic bookkeeping, so the
/// deadline is enforced at this granularity.
pub const CLOCK_CHECK_INTERVAL: u64 = 256;

/// Why a budget ran out.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BudgetExhaustion {
    /// The fuel counter (analysis steps) reached zero.
    Fuel,
    /// The wall-clock deadline passed.
    WallClock,
}

impl BudgetExhaustion {
    /// Short stable name for telemetry and reason-coded responses.
    pub fn name(&self) -> &'static str {
        match self {
            BudgetExhaustion::Fuel => "fuel",
            BudgetExhaustion::WallClock => "wall-clock",
        }
    }
}

const STATE_OK: u8 = 0;
const STATE_FUEL: u8 = 1;
const STATE_WALL: u8 = 2;

/// A cooperative fuel + wall-clock meter threaded through the analysis
/// passes. Cloneable handles are not needed: passes borrow the budget
/// (`&AnalysisBudget`), the owner keeps it for the post-run verdict.
#[derive(Debug)]
pub struct AnalysisBudget {
    /// Remaining fuel; `u64::MAX` means unmetered.
    fuel: AtomicU64,
    /// Deadline, if any.
    deadline: Option<Instant>,
    /// Spends since the last clock sample.
    since_clock_check: AtomicU64,
    /// `STATE_*`: sticky exhaustion flag.
    state: AtomicU8,
}

impl AnalysisBudget {
    /// A budget that never exhausts (the default for direct compiles).
    pub fn unbounded() -> AnalysisBudget {
        AnalysisBudget {
            fuel: AtomicU64::new(u64::MAX),
            deadline: None,
            since_clock_check: AtomicU64::new(0),
            state: AtomicU8::new(STATE_OK),
        }
    }

    /// A budget of `fuel` analysis steps (`None` = unmetered) and an
    /// optional wall-clock allowance starting now.
    pub fn limited(fuel: Option<u64>, wall: Option<Duration>) -> AnalysisBudget {
        AnalysisBudget {
            fuel: AtomicU64::new(fuel.unwrap_or(u64::MAX)),
            deadline: wall.map(|w| Instant::now() + w),
            since_clock_check: AtomicU64::new(0),
            state: AtomicU8::new(STATE_OK),
        }
    }

    /// A budget sharing this one's deadline but with a fresh fuel
    /// allowance — the degradation ladder descends with new fuel while
    /// the request's wall clock keeps ticking.
    pub fn refueled(&self, fuel: Option<u64>) -> AnalysisBudget {
        AnalysisBudget {
            fuel: AtomicU64::new(fuel.unwrap_or(u64::MAX)),
            deadline: self.deadline,
            since_clock_check: AtomicU64::new(0),
            state: AtomicU8::new(if self.exhausted() == Some(BudgetExhaustion::WallClock) {
                STATE_WALL
            } else {
                STATE_OK
            }),
        }
    }

    /// Burns `n` fuel. Returns `false` — permanently, once per budget —
    /// when the meter is dry: callers must then answer conservatively
    /// (property unverified, fact unknown, summary opaque).
    pub fn spend(&self, n: u64) -> bool {
        if self.state.load(Ordering::Relaxed) != STATE_OK {
            return false;
        }
        let prev = self.fuel.fetch_sub(n, Ordering::Relaxed);
        if prev < n {
            self.fuel.store(0, Ordering::Relaxed);
            self.state.store(STATE_FUEL, Ordering::Relaxed);
            return false;
        }
        if let Some(deadline) = self.deadline {
            let ticks = self.since_clock_check.fetch_add(n, Ordering::Relaxed) + n;
            if ticks >= CLOCK_CHECK_INTERVAL {
                self.since_clock_check.store(0, Ordering::Relaxed);
                if Instant::now() >= deadline {
                    self.state.store(STATE_WALL, Ordering::Relaxed);
                    return false;
                }
            }
        }
        true
    }

    /// Whether (and why) the budget has run out. Sticky: once exhausted,
    /// a budget stays exhausted.
    pub fn exhausted(&self) -> Option<BudgetExhaustion> {
        match self.state.load(Ordering::Relaxed) {
            STATE_FUEL => Some(BudgetExhaustion::Fuel),
            STATE_WALL => Some(BudgetExhaustion::WallClock),
            _ => {
                // An expired deadline counts even between clock samples,
                // so observers (watchdogs, the ladder) see a stall the
                // moment they look.
                if self.deadline.is_some_and(|d| Instant::now() >= d) {
                    self.state.store(STATE_WALL, Ordering::Relaxed);
                    Some(BudgetExhaustion::WallClock)
                } else {
                    None
                }
            }
        }
    }

    /// Remaining fuel (`u64::MAX` when unmetered).
    pub fn fuel_left(&self) -> u64 {
        if self.exhausted() == Some(BudgetExhaustion::Fuel) {
            0
        } else {
            self.fuel.load(Ordering::Relaxed)
        }
    }
}

impl Default for AnalysisBudget {
    fn default() -> Self {
        AnalysisBudget::unbounded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_exhausts() {
        let b = AnalysisBudget::unbounded();
        for _ in 0..10_000 {
            assert!(b.spend(1));
        }
        assert_eq!(b.exhausted(), None);
    }

    #[test]
    fn fuel_exhaustion_is_sticky_and_reason_coded() {
        let b = AnalysisBudget::limited(Some(10), None);
        for _ in 0..10 {
            assert!(b.spend(1));
        }
        assert!(!b.spend(1));
        assert_eq!(b.exhausted(), Some(BudgetExhaustion::Fuel));
        assert!(!b.spend(1), "exhaustion is permanent");
        assert_eq!(b.fuel_left(), 0);
    }

    #[test]
    fn oversized_spend_exhausts_immediately() {
        let b = AnalysisBudget::limited(Some(5), None);
        assert!(!b.spend(6));
        assert_eq!(b.exhausted(), Some(BudgetExhaustion::Fuel));
    }

    #[test]
    fn wall_clock_deadline_trips() {
        let b = AnalysisBudget::limited(None, Some(Duration::from_millis(0)));
        // The deadline is already past; the first full clock-check
        // window notices.
        let mut tripped = false;
        for _ in 0..(2 * CLOCK_CHECK_INTERVAL) {
            if !b.spend(1) {
                tripped = true;
                break;
            }
        }
        assert!(tripped);
        assert_eq!(b.exhausted(), Some(BudgetExhaustion::WallClock));
    }

    #[test]
    fn observers_see_expired_deadline_without_spending() {
        let b = AnalysisBudget::limited(None, Some(Duration::from_millis(0)));
        assert_eq!(b.exhausted(), Some(BudgetExhaustion::WallClock));
    }

    #[test]
    fn refueled_keeps_deadline_but_resets_fuel() {
        let b = AnalysisBudget::limited(Some(1), None);
        assert!(b.spend(1));
        assert!(!b.spend(1));
        let r = b.refueled(Some(100));
        assert_eq!(r.exhausted(), None, "fuel exhaustion does not carry over");
        assert!(r.spend(50));
        let expired = AnalysisBudget::limited(None, Some(Duration::from_millis(0)));
        let r2 = expired.refueled(Some(100));
        assert_eq!(
            r2.exhausted(),
            Some(BudgetExhaustion::WallClock),
            "an expired request deadline survives the refuel"
        );
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(BudgetExhaustion::Fuel.name(), "fuel");
        assert_eq!(BudgetExhaustion::WallClock.name(), "wall-clock");
    }
}
