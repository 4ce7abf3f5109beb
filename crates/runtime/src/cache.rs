//! The versioned schedule cache, with quarantine.
//!
//! A guarded loop's inspection result is a function of (a) the values of
//! the index arrays the guard reads and (b) the loop's evaluated bounds.
//! The interpreter's [`Store`](irr_exec::Store) bumps a per-array write
//! version on every mutation, so "(a) unchanged" reduces to comparing a
//! few `u64`s instead of re-scanning the arrays. The cache therefore
//! turns the paper's per-execution `O(section)` inspector cost into
//! `O(section)`-per-*mutation*: re-entering an unmutated loop costs a
//! handful of integer compares.
//!
//! Each loop keeps a small **set** of keyed schedules (not a single
//! slot), so a loop whose bounds alternate between a few shapes — the
//! inner loops of TRFD's triangular sweeps, or a solver that ping-pongs
//! between two partitions — does not re-inspect on every entry. The
//! per-loop set and the whole cache are capacity-bounded with LRU
//! eviction, so a pathological program cannot grow the cache without
//! bound.
//!
//! **Quarantine.** A schedule that *failed at runtime* (write conflict,
//! worker panic, timeout — see
//! [`FallbackReason`](irr_exec::FallbackReason)) is poisoned: the
//! `(loop, key)` pair is pinned sequential for a configurable number of
//! subsequent entries (the retry budget), so one bad schedule cannot
//! repeatedly pay parallel setup plus conflict-detection cost. When the
//! budget is exhausted the entry is dropped entirely and the next entry
//! re-inspects from scratch.

use irr_exec::IndexFacts;
use irr_frontend::{StmtId, VarId};
use std::collections::HashMap;
use std::sync::Arc;

/// What must be unchanged for a cached schedule to be reusable.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScheduleKey {
    /// The loop's evaluated `(lo, hi)` bounds at inspection time.
    pub bounds: (i64, i64),
    /// Write-version of every array the guard's inspectors read,
    /// in a canonical (sorted, deduplicated) order.
    pub versions: Vec<(VarId, u64)>,
}

impl ScheduleKey {
    /// Builds a key, canonicalizing the version list.
    pub fn new(bounds: (i64, i64), mut versions: Vec<(VarId, u64)>) -> ScheduleKey {
        versions.sort_unstable_by_key(|(v, _)| *v);
        versions.dedup();
        ScheduleKey { bounds, versions }
    }
}

/// Outcome of a cache probe.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheProbe {
    /// A schedule for this loop exists and its key matches: reuse the
    /// stored verdict.
    Hit(bool),
    /// Schedules exist for this loop but none match the key — an index
    /// array was written (or the bounds changed) since inspection.
    Stale,
    /// No schedule cached for this loop yet.
    Miss,
}

/// One cached schedule: a key, its verdict, and quarantine state.
#[derive(Clone, Debug)]
struct Slot {
    key: ScheduleKey,
    parallel_ok: bool,
    /// What the scans behind `parallel_ok` found: kept with the key,
    /// so a hit on *any* live key of a loop hands its dispatch the facts
    /// of the scans that cleared that key, and eviction drops both
    /// together. Shared: a hit hands them over by reference count.
    facts: Arc<[IndexFacts]>,
    /// Remaining entries this schedule is pinned sequential for; 0
    /// means not quarantined.
    quarantined: u32,
    /// LRU tick of the last probe hit / insert / quarantine touch.
    last_used: u64,
}

/// Per-loop cache of inspection verdicts keyed by store versions, with
/// capacity bounds and failure quarantine.
#[derive(Clone, Debug)]
pub struct ScheduleCache {
    entries: HashMap<StmtId, Vec<Slot>>,
    /// Maximum keyed schedules per loop.
    keys_per_loop: usize,
    /// Maximum keyed schedules across all loops.
    capacity: usize,
    tick: u64,
    evictions: u64,
}

/// Maximum cached schedules across all loops (LRU-evicted).
const CAPACITY: usize = 128;
/// Maximum cached schedules per loop, so a loop alternating between a
/// few bound shapes keeps them all (LRU-evicted within the loop).
const KEYS_PER_LOOP: usize = 4;

impl Default for ScheduleCache {
    fn default() -> Self {
        ScheduleCache::with_limits(CAPACITY, KEYS_PER_LOOP)
    }
}

impl ScheduleCache {
    /// An empty cache with the default limits.
    pub fn new() -> ScheduleCache {
        ScheduleCache::default()
    }

    /// An empty cache holding at most `capacity` schedules in total and
    /// `keys_per_loop` per loop (both clamped to at least 1).
    pub fn with_limits(capacity: usize, keys_per_loop: usize) -> ScheduleCache {
        ScheduleCache {
            entries: HashMap::new(),
            keys_per_loop: keys_per_loop.max(1),
            capacity: capacity.max(1),
            tick: 0,
            evictions: 0,
        }
    }

    /// Probes for a reusable schedule for `loop_stmt` under `key`.
    /// A hit refreshes the slot's LRU position.
    pub fn probe(&mut self, loop_stmt: StmtId, key: &ScheduleKey) -> CacheProbe {
        self.probe_certified(loop_stmt, key).0
    }

    /// [`Self::probe`], and on a hit the index facts stored with the
    /// schedule (see [`Self::insert_certified`]).
    pub fn probe_certified(
        &mut self,
        loop_stmt: StmtId,
        key: &ScheduleKey,
    ) -> (CacheProbe, Arc<[IndexFacts]>) {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(&loop_stmt) {
            None => (CacheProbe::Miss, Arc::default()),
            Some(slots) => match slots.iter_mut().find(|s| s.key == *key) {
                Some(slot) => {
                    slot.last_used = tick;
                    (CacheProbe::Hit(slot.parallel_ok), Arc::clone(&slot.facts))
                }
                None => (CacheProbe::Stale, Arc::default()),
            },
        }
    }

    /// Stores (or refreshes) the schedule for `(loop_stmt, key)`,
    /// evicting the least-recently-used schedule when the per-loop or
    /// global bound is exceeded.
    pub fn insert(&mut self, loop_stmt: StmtId, key: ScheduleKey, parallel_ok: bool) {
        self.insert_certified(loop_stmt, key, parallel_ok, Arc::default());
    }

    /// [`Self::insert`] with what the inspection's scans found on the
    /// way to `parallel_ok`.
    pub fn insert_certified(
        &mut self,
        loop_stmt: StmtId,
        key: ScheduleKey,
        parallel_ok: bool,
        facts: Arc<[IndexFacts]>,
    ) {
        self.tick += 1;
        let tick = self.tick;
        let slots = self.entries.entry(loop_stmt).or_default();
        if let Some(slot) = slots.iter_mut().find(|s| s.key == key) {
            slot.parallel_ok = parallel_ok;
            slot.facts = facts;
            slot.quarantined = 0;
            slot.last_used = tick;
            return;
        }
        self.admit(
            loop_stmt,
            Slot {
                key,
                parallel_ok,
                facts,
                quarantined: 0,
                last_used: tick,
            },
        );
    }

    /// Pins `(loop_stmt, key)` sequential for the next `budget` entries
    /// after a runtime failure. A zero budget drops any cached verdict
    /// for the key immediately (retry on next entry).
    pub fn poison(&mut self, loop_stmt: StmtId, key: ScheduleKey, budget: u32) {
        self.tick += 1;
        let tick = self.tick;
        let slots = self.entries.entry(loop_stmt).or_default();
        if let Some(pos) = slots.iter().position(|s| s.key == key) {
            if budget == 0 {
                slots.remove(pos);
                if slots.is_empty() {
                    self.entries.remove(&loop_stmt);
                }
                return;
            }
            let slot = &mut slots[pos];
            slot.parallel_ok = false;
            slot.facts = Arc::default();
            slot.quarantined = budget;
            slot.last_used = tick;
            return;
        }
        if budget == 0 {
            if slots.is_empty() {
                self.entries.remove(&loop_stmt);
            }
            return;
        }
        self.admit(
            loop_stmt,
            Slot {
                key,
                parallel_ok: false,
                facts: Arc::default(),
                quarantined: budget,
                last_used: tick,
            },
        );
    }

    /// Adds a new `slot` for `loop_stmt`, then evicts the loop's least
    /// recently used key past `keys_per_loop` and the cache's past
    /// `capacity`.
    fn admit(&mut self, loop_stmt: StmtId, slot: Slot) {
        let slots = self.entries.entry(loop_stmt).or_default();
        slots.push(slot);
        if slots.len() > self.keys_per_loop {
            evict_lru(slots);
            self.evictions += 1;
        }
        if self.len() > self.capacity {
            self.evict_global_lru();
            self.evictions += 1;
        }
    }

    /// If `(loop_stmt, key)` is quarantined, consumes one unit of its
    /// retry budget and returns `true` (the caller must dispatch
    /// sequentially). The entry is dropped when the budget reaches
    /// zero, so the dispatch after the quarantine window re-inspects
    /// from scratch.
    pub fn consume_quarantine(&mut self, loop_stmt: StmtId, key: &ScheduleKey) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let Some(slots) = self.entries.get_mut(&loop_stmt) else {
            return false;
        };
        let Some(pos) = slots
            .iter()
            .position(|s| s.key == *key && s.quarantined > 0)
        else {
            return false;
        };
        let slot = &mut slots[pos];
        slot.quarantined -= 1;
        slot.last_used = tick;
        if slot.quarantined == 0 {
            slots.remove(pos);
            if slots.is_empty() {
                self.entries.remove(&loop_stmt);
            }
        }
        true
    }

    /// Total number of cached schedules, over all loops.
    pub fn len(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Schedules evicted by the capacity bounds so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn evict_global_lru(&mut self) {
        let Some((&stmt, _)) = self
            .entries
            .iter()
            .filter(|(_, slots)| !slots.is_empty())
            .min_by_key(|(_, slots)| slots.iter().map(|s| s.last_used).min().unwrap_or(u64::MAX))
        else {
            return;
        };
        let slots = self.entries.get_mut(&stmt).expect("chosen loop exists");
        evict_lru(slots);
        if slots.is_empty() {
            self.entries.remove(&stmt);
        }
    }
}

/// Removes the least-recently-used slot from one loop's set.
fn evict_lru(slots: &mut Vec<Slot>) {
    if let Some(pos) = slots
        .iter()
        .enumerate()
        .min_by_key(|(_, s)| s.last_used)
        .map(|(i, _)| i)
    {
        slots.remove(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_distinguishes_hit_stale_miss() {
        let mut c = ScheduleCache::new();
        let s = StmtId(7);
        let k1 = ScheduleKey::new((1, 8), vec![(VarId(2), 3)]);
        assert_eq!(c.probe(s, &k1), CacheProbe::Miss);
        c.insert(s, k1.clone(), true);
        assert_eq!(c.probe(s, &k1), CacheProbe::Hit(true));
        // Same arrays, newer version: stale.
        let k2 = ScheduleKey::new((1, 8), vec![(VarId(2), 4)]);
        assert_eq!(c.probe(s, &k2), CacheProbe::Stale);
        // Same versions, different bounds: also stale.
        let k3 = ScheduleKey::new((1, 9), vec![(VarId(2), 3)]);
        assert_eq!(c.probe(s, &k3), CacheProbe::Stale);
    }

    #[test]
    fn key_canonicalizes_version_order() {
        let a = ScheduleKey::new((1, 4), vec![(VarId(5), 1), (VarId(2), 9)]);
        let b = ScheduleKey::new((1, 4), vec![(VarId(2), 9), (VarId(5), 1)]);
        assert_eq!(a, b);
    }

    #[test]
    fn per_loop_set_survives_alternating_bounds() {
        let mut c = ScheduleCache::new();
        let s = StmtId(3);
        let ka = ScheduleKey::new((1, 8), vec![(VarId(1), 1)]);
        let kb = ScheduleKey::new((1, 16), vec![(VarId(1), 1)]);
        c.insert(s, ka.clone(), true);
        c.insert(s, kb.clone(), false);
        // Both keys answer without re-inspection, in either order.
        assert_eq!(c.probe(s, &ka), CacheProbe::Hit(true));
        assert_eq!(c.probe(s, &kb), CacheProbe::Hit(false));
        assert_eq!(c.probe(s, &ka), CacheProbe::Hit(true));
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn per_loop_limit_evicts_lru_key() {
        let mut c = ScheduleCache::with_limits(64, 2);
        let s = StmtId(3);
        let keys: Vec<ScheduleKey> = (0..3)
            .map(|i| ScheduleKey::new((1, i), vec![(VarId(1), 1)]))
            .collect();
        c.insert(s, keys[0].clone(), true);
        c.insert(s, keys[1].clone(), true);
        let _ = c.probe(s, &keys[0]); // refresh key 0; key 1 is now LRU
        c.insert(s, keys[2].clone(), true);
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.probe(s, &keys[0]), CacheProbe::Hit(true));
        assert_eq!(c.probe(s, &keys[1]), CacheProbe::Stale, "LRU key evicted");
        assert_eq!(c.probe(s, &keys[2]), CacheProbe::Hit(true));
    }

    #[test]
    fn global_capacity_bound_evicts_coldest_loop() {
        let mut c = ScheduleCache::with_limits(2, 4);
        let k = |n| ScheduleKey::new((1, n), vec![(VarId(1), 1)]);
        c.insert(StmtId(1), k(1), true);
        c.insert(StmtId(2), k(2), true);
        assert_eq!(c.len(), 2);
        c.insert(StmtId(3), k(3), true);
        assert_eq!(c.len(), 2, "capacity bound holds");
        assert_eq!(c.evictions(), 1);
        assert_eq!(
            c.probe(StmtId(1), &k(1)),
            CacheProbe::Miss,
            "coldest loop evicted"
        );
        assert_eq!(c.probe(StmtId(3), &k(3)), CacheProbe::Hit(true));
    }

    #[test]
    fn quarantine_pins_then_expires() {
        let mut c = ScheduleCache::new();
        let s = StmtId(5);
        let k = ScheduleKey::new((1, 8), vec![(VarId(2), 3)]);
        c.insert(s, k.clone(), true);
        c.poison(s, k.clone(), 2);
        // Pinned for exactly the budget...
        assert!(c.consume_quarantine(s, &k));
        assert!(c.consume_quarantine(s, &k));
        // ...then dropped entirely: the next entry re-inspects.
        assert!(!c.consume_quarantine(s, &k));
        assert_eq!(c.probe(s, &k), CacheProbe::Miss);
    }

    #[test]
    fn poison_without_prior_entry_still_quarantines() {
        let mut c = ScheduleCache::new();
        let s = StmtId(5);
        let k = ScheduleKey::new((1, 8), vec![]);
        c.poison(s, k.clone(), 1);
        assert!(c.consume_quarantine(s, &k));
        assert!(!c.consume_quarantine(s, &k));
    }

    #[test]
    fn quarantine_is_key_specific() {
        let mut c = ScheduleCache::new();
        let s = StmtId(5);
        let bad = ScheduleKey::new((1, 8), vec![(VarId(2), 3)]);
        let good = ScheduleKey::new((1, 8), vec![(VarId(2), 4)]);
        c.insert(s, good.clone(), true);
        c.poison(s, bad, 3);
        assert!(!c.consume_quarantine(s, &good), "other keys unaffected");
        assert_eq!(c.probe(s, &good), CacheProbe::Hit(true));
    }
}
