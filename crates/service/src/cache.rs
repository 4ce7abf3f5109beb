//! The shared verdict cache: memoized [`CompilationReport`]s keyed on
//! program hash + analysis rung, with two defenses:
//!
//! - **bounded capacity** — LRU eviction with an eviction counter, so
//!   a hostile request stream cannot grow the cache without bound;
//! - **quarantine** — a key whose analysis panicked serves degraded
//!   (parse-only) responses for a few requests, then is re-admitted;
//!   re-admission and every poison eviction is counted.
//!
//! A report depends only on the source and the service's fixed driver
//! configuration, so an entry never goes stale: nothing is invalidated.
//!
//! The insert-after-success discipline lives in the caller (`lib.rs`):
//! nothing is inserted until a report completed at full strength,
//! which is what makes "a panicking request leaves the cache
//! byte-identical" a one-line invariant instead of a cleanup path.
//!
//! Reports are shared, never copied: an entry holds an
//! `Arc<CompilationReport>`, a hit hands out another handle to it, and
//! a report is never mutated once inserted. Eviction and quarantine
//! drop the cache's handle only; a report dies with its last holder.

use irr_driver::{ladder::tier_rank, CompilationReport, DegradeLevel};
use std::collections::HashMap;
use std::sync::Arc;

/// Hash of the program source, eight bytes a step: stable across runs
/// and hosts, unkeyed, dependency-free. The length is folded in first
/// (a zero-padded tail word cannot stand for a longer source) and
/// every step is a bijection of the state, so two sources that differ
/// in one word never collide; the closing avalanche is SplitMix64's.
pub fn program_hash(source: &str) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |h: u64, word: [u8; 8]| {
        let h = (h ^ u64::from_le_bytes(word)).wrapping_mul(K);
        h ^ (h >> 32)
    };
    let bytes = source.as_bytes();
    let mut h = step(0xcbf2_9ce4_8422_2325, (bytes.len() as u64).to_le_bytes());
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = step(h, w.try_into().expect("an 8-byte chunk"));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = step(h, last);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Cache key: program hash plus the rung the report was computed at.
pub type VerdictKey = (u64, DegradeLevel);

struct Entry {
    report: Arc<CompilationReport>,
    /// LRU tick of the last probe hit (or insert).
    last_used: u64,
    poisoned: bool,
}

/// Outcome of a cache probe.
pub enum VerdictProbe {
    /// A valid entry: the caller shares the memoized report.
    Hit(Arc<CompilationReport>),
    /// No entry (or a poisoned one, discarded).
    Miss,
    /// The key is quarantined: serve a degraded response. One retry
    /// was consumed; after the last one the key is re-admitted.
    Quarantined,
}

/// The shared memo table. Callers wrap it in a `Mutex`; every method
/// is O(1) except LRU eviction's scan (bounded by capacity).
pub struct VerdictCache {
    entries: HashMap<VerdictKey, Entry>,
    /// Keys serving degraded responses, with retries remaining.
    quarantined: HashMap<VerdictKey, u32>,
    capacity: usize,
    tick: u64,
    evictions: u64,
    poison_evictions: u64,
    readmissions: u64,
}

impl VerdictCache {
    pub fn new(capacity: usize) -> VerdictCache {
        VerdictCache {
            entries: HashMap::new(),
            quarantined: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            evictions: 0,
            poison_evictions: 0,
            readmissions: 0,
        }
    }

    /// Probes for `key`. Quarantine takes precedence over any stored
    /// entry — a quarantined key must not serve its old (suspect)
    /// report.
    pub fn probe(&mut self, key: &VerdictKey) -> VerdictProbe {
        if let Some(left) = self.quarantined.get_mut(key) {
            if *left > 0 {
                *left -= 1;
                return VerdictProbe::Quarantined;
            }
            // Last retry already consumed: re-admit.
            self.quarantined.remove(key);
            self.readmissions += 1;
        }
        if let Some(report) = self.hit(key) {
            return VerdictProbe::Hit(report);
        }
        // What is left under the key is poisoned: evict it.
        if self.entries.remove(key).is_some_and(|e| e.poisoned) {
            self.poison_evictions += 1;
        }
        VerdictProbe::Miss
    }

    /// The report for `key` if a probe would serve it, else `None` and
    /// nothing changed: a quarantined (or due for re-admission),
    /// poisoned or absent key is left for [`Self::probe`] to
    /// settle. A hit moves the LRU tick, as a probe's does, and nothing
    /// else — so a caller may try this first and fall back to `probe`
    /// without either being counted twice.
    pub fn hit(&mut self, key: &VerdictKey) -> Option<Arc<CompilationReport>> {
        if self.quarantined.contains_key(key) {
            return None;
        }
        let e = self.entries.get_mut(key).filter(|e| !e.poisoned)?;
        self.tick += 1;
        e.last_used = self.tick;
        Some(Arc::clone(&e.report))
    }

    /// Inserts a completed report. Callers only insert results that
    /// finished at full strength with an unexhausted budget —
    /// degraded or suspect reports never enter the table. Returns the
    /// report this one displaced — the entry it replaced, or the LRU
    /// victim of a full cache — so that a caller holding a lock around
    /// the cache can free it after releasing the lock.
    pub fn insert(
        &mut self,
        key: VerdictKey,
        report: impl Into<Arc<CompilationReport>>,
    ) -> Option<Arc<CompilationReport>> {
        self.tick += 1;
        let mut victim = None;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some(lru) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                victim = self.entries.remove(&lru);
                self.evictions += 1;
            }
        }
        let entry = Entry {
            report: report.into(),
            last_used: self.tick,
            poisoned: false,
        };
        self.entries.insert(key, entry).or(victim).map(|e| e.report)
    }

    /// Quarantines `key` for `retries` probes and drops any stored
    /// entry (a panicking analysis may mean the memo is suspect too).
    pub fn quarantine(&mut self, key: VerdictKey, retries: u32) {
        if self.entries.remove(&key).is_some() {
            self.poison_evictions += 1;
        }
        self.quarantined.insert(key, retries);
    }

    /// Marks a stored entry poisoned (the injected `poisoned-cache-
    /// entry` fault): the next probe evicts it instead of serving it.
    /// Returns whether an entry existed to poison.
    pub fn poison_entry(&mut self, key: &VerdictKey) -> bool {
        match self.entries.get_mut(key) {
            Some(e) => {
                e.poisoned = true;
                true
            }
            None => false,
        }
    }

    /// Whether `key` currently serves degraded responses.
    pub fn is_quarantined(&self, key: &VerdictKey) -> bool {
        self.quarantined.get(key).is_some_and(|left| *left > 0)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    pub fn poison_evictions(&self) -> u64 {
        self.poison_evictions
    }

    pub fn readmissions(&self) -> u64 {
        self.readmissions
    }

    /// An order-independent digest of the cache's observable state:
    /// keys and a per-entry verdict summary. Two caches
    /// with the same fingerprint serve the same answers — the
    /// cache-poisoning regression test asserts a panicking request
    /// leaves this value untouched.
    pub fn fingerprint(&self) -> u64 {
        let mut acc: u64 = 0;
        for ((hash, level), e) in &self.entries {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            let mut mix = |v: u64| {
                h ^= v;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            };
            mix(*hash);
            mix(*level as u64);
            mix(e.report.verdicts.len() as u64);
            for v in &e.report.verdicts {
                mix(program_hash(&v.label));
                mix(tier_rank(&v.tier) as u64);
                mix(v.parallel as u64);
                mix(v.retired_checks.len() as u64);
                mix(v.blockers.len() as u64);
            }
            acc ^= h; // XOR: iteration order independent
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_driver::{compile_source, DriverOptions};
    use irr_exec::SplitMix64;
    use irr_programs::fuzz::{random_loop_program, strategy_programs};
    use irr_programs::sparse::{
        interproc_kernels, kernels, producer_kernels, SparseScale, STRUCTURES,
    };
    use irr_programs::{paper_cases, Scale};
    use irr_sparse::Structure;
    use std::collections::HashSet;

    fn report() -> CompilationReport {
        compile_source(
            "program t\ninteger i\nreal x(10)\ndo i = 1, 10\nx(i) = 1\nenddo\nend\n",
            DriverOptions::with_iaa(),
        )
        .unwrap()
    }

    const KEY: VerdictKey = (42, DegradeLevel::Full);
    const OTHER: VerdictKey = (7, DegradeLevel::Full);

    #[test]
    fn probe_insert_roundtrip() {
        let mut c = VerdictCache::new(8);
        assert!(matches!(c.probe(&KEY), VerdictProbe::Miss));
        c.insert(KEY, report());
        assert!(matches!(c.probe(&KEY), VerdictProbe::Hit(_)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_is_counted() {
        let mut c = VerdictCache::new(2);
        c.insert((1, DegradeLevel::Full), report());
        c.insert((2, DegradeLevel::Full), report());
        // Touch 1 so 2 is the LRU victim.
        assert!(matches!(
            c.probe(&(1, DegradeLevel::Full)),
            VerdictProbe::Hit(_)
        ));
        c.insert((3, DegradeLevel::Full), report());
        assert_eq!(c.evictions(), 1);
        assert!(matches!(
            c.probe(&(2, DegradeLevel::Full)),
            VerdictProbe::Miss
        ));
        assert!(matches!(
            c.probe(&(1, DegradeLevel::Full)),
            VerdictProbe::Hit(_)
        ));
    }

    #[test]
    fn quarantine_serves_degraded_then_readmits() {
        let mut c = VerdictCache::new(8);
        c.insert(KEY, report());
        c.quarantine(KEY, 2);
        assert!(c.is_quarantined(&KEY));
        assert!(matches!(c.probe(&KEY), VerdictProbe::Quarantined));
        assert!(matches!(c.probe(&KEY), VerdictProbe::Quarantined));
        // Retries consumed: next probe re-admits (and the old entry
        // was dropped at quarantine time, so it is a miss).
        assert!(matches!(c.probe(&KEY), VerdictProbe::Miss));
        assert_eq!(c.readmissions(), 1);
        assert!(!c.is_quarantined(&KEY));
    }

    #[test]
    fn poisoned_entries_are_evicted_not_served() {
        let mut c = VerdictCache::new(8);
        c.insert(KEY, report());
        assert!(c.poison_entry(&KEY));
        assert!(matches!(c.probe(&KEY), VerdictProbe::Miss));
        assert_eq!(c.poison_evictions(), 1);
        assert!(c.is_empty());
    }

    /// `hit` serves what `probe` would serve and settles nothing else:
    /// on a quarantined (retries left or due for re-admission),
    /// poisoned or absent key it returns `None` and leaves every
    /// counter and entry as it was, so the `probe` after it counts once.
    #[test]
    fn hit_leaves_what_it_does_not_serve_to_probe() {
        type Setup = fn(&mut VerdictCache);
        let cases: [(&str, Setup, u64, u64); 4] = [
            ("absent", |_| {}, 0, 0),
            ("quarantined", |c| c.quarantine(KEY, 1), 0, 1),
            ("due for re-admission", |c| c.quarantine(KEY, 0), 1, 1),
            ("poisoned", |c| assert!(c.poison_entry(&KEY)), 0, 1),
        ];
        for (what, setup, readmissions, poison_evictions) in cases {
            let mut c = VerdictCache::new(8);
            if what != "absent" {
                c.insert(KEY, report());
            }
            setup(&mut c);
            let state = |c: &VerdictCache| {
                let counts = (c.readmissions(), c.poison_evictions(), c.evictions());
                (c.len(), counts, c.is_quarantined(&KEY), c.fingerprint())
            };
            let before = state(&c);
            assert!(c.hit(&KEY).is_none(), "{what}: served");
            assert_eq!(state(&c), before, "{what}: a refused hit changed the cache");
            assert!(!matches!(c.probe(&KEY), VerdictProbe::Hit(_)), "{what}");
            assert_eq!(c.readmissions(), readmissions, "{what}");
            assert_eq!(c.poison_evictions(), poison_evictions, "{what}");
        }
        let mut c = VerdictCache::new(8);
        let held = Arc::new(report());
        c.insert(KEY, Arc::clone(&held));
        let hit = c.hit(&KEY).expect("a live key");
        assert!(Arc::ptr_eq(&hit, &held));
    }

    #[test]
    fn a_hit_shares_the_entry_and_insert_returns_what_it_displaced() {
        let mut c = VerdictCache::new(2);
        let first = Arc::new(report());
        assert!(c.insert(KEY, Arc::clone(&first)).is_none());
        let (VerdictProbe::Hit(a), VerdictProbe::Hit(b)) = (c.probe(&KEY), c.probe(&KEY)) else {
            panic!("a live key missed");
        };
        assert!(Arc::ptr_eq(&a, &b) && Arc::ptr_eq(&a, &first));
        // Over a live key: the replaced report, and no eviction.
        let replaced = c.insert(KEY, report()).expect("the key was live");
        assert!(Arc::ptr_eq(&replaced, &first));
        assert_eq!((c.len(), c.evictions()), (1, 0));
        // Into a full cache: the LRU victim (OTHER; KEY was touched since).
        let second = Arc::new(report());
        assert!(c.insert(OTHER, Arc::clone(&second)).is_none());
        assert!(matches!(c.probe(&KEY), VerdictProbe::Hit(_)));
        let victim = c.insert((8, DegradeLevel::Full), report()).expect("full");
        assert!(Arc::ptr_eq(&victim, &second));
        assert_eq!((c.len(), c.evictions()), (2, 1));
    }

    /// Every way an entry leaves the table drops the cache's handle and
    /// nothing else: a client that got the report earlier keeps reading
    /// it, no later probe serves it, and it dies with its last holder.
    #[test]
    fn a_report_handed_out_outlives_its_entry_and_is_never_served_again() {
        type Removal = fn(&mut VerdictCache);
        let removals: [(&str, Removal); 3] = [
            ("quarantine", |c| c.quarantine(KEY, 0)),
            ("poison_entry", |c| assert!(c.poison_entry(&KEY))),
            ("lru eviction", |c| {
                drop(c.insert(OTHER, report()));
                drop(c.insert((8, DegradeLevel::Full), report()));
            }),
        ];
        for (what, remove) in removals {
            let mut c = VerdictCache::new(2);
            c.insert(KEY, report());
            let VerdictProbe::Hit(held) = c.probe(&KEY) else {
                panic!("{what}: a live key missed");
            };
            let loops = held.verdicts.len();
            assert_eq!(Arc::strong_count(&held), 2, "{what}: cache + holder");
            remove(&mut c);
            assert!(matches!(c.probe(&KEY), VerdictProbe::Miss), "{what}");
            assert_eq!(Arc::strong_count(&held), 1, "{what}: the cache let go");
            assert_eq!(held.verdicts.len(), loops, "{what}: still readable");
            let weak = Arc::downgrade(&held);
            drop(held);
            assert!(weak.upgrade().is_none(), "{what}: leaked");
            // The table still works for its other keys.
            c.insert(OTHER, report());
            assert!(matches!(c.probe(&OTHER), VerdictProbe::Hit(_)), "{what}");
        }
    }

    #[test]
    fn fingerprint_does_not_depend_on_fill_order() {
        let sources = [
            "program a\ninteger i\nreal x(10)\ndo i = 1, 10\nx(i) = 1\nenddo\nend\n",
            "program b\ninteger i\nreal y(9)\ndo 10 i = 2, 9\ny(i) = y(i - 1)\n10 continue\nend\n",
            "program c\ninteger i, k(5)\nreal z(5)\ndo i = 1, 5\nz(k(i)) = 2\nenddo\nend\n",
        ];
        let fill = |order: [usize; 3]| {
            let mut c = VerdictCache::new(8);
            for i in order {
                let rep = compile_source(sources[i], DriverOptions::with_iaa()).unwrap();
                c.insert((program_hash(sources[i]), DegradeLevel::Full), rep);
            }
            c.fingerprint()
        };
        assert_eq!(fill([0, 1, 2]), fill([2, 0, 1]));
        assert_ne!(fill([0, 1, 2]), VerdictCache::new(8).fingerprint());
    }

    /// The sources of the three sparse kernel families on one structure.
    fn kernel_sources(structure: Structure, seed: u64) -> impl Iterator<Item = String> {
        let scale = SparseScale::test(structure, seed);
        let families = kernels(&scale)
            .into_iter()
            .chain(producer_kernels(&scale))
            .chain(interproc_kernels(&scale));
        families.map(|k| k.source)
    }

    /// `service-warm`'s hot set, as `benchmark/` builds it.
    fn hot_sources() -> Vec<String> {
        let mut out = Vec::new();
        for structure in [Structure::Uniform, Structure::PowerLaw] {
            out.extend(kernel_sources(structure, 0xCC5));
        }
        out.extend(irr_programs::all(Scale::Test).into_iter().map(|b| b.source));
        out
    }

    #[test]
    fn program_hash_has_no_collision_over_the_corpora() {
        let mut texts: HashSet<String> = irr_frontend::malformed_corpus(40)
            .into_iter()
            .map(|c| c.source)
            .collect();
        texts.extend(hot_sources());
        for scale in [Scale::Test, Scale::Paper] {
            texts.extend(paper_cases(scale).into_iter().map(|c| c.source));
        }
        for structure in STRUCTURES {
            texts.extend(kernel_sources(structure, 0xdecaf));
        }
        texts.extend(strategy_programs().map(|p| p.case.source));
        // 100 000 fuzz draws, renamed as `benchmark/`'s cold clients
        // rename theirs: few distinct bodies, one distinct name each.
        let mut rng = SplitMix64::new(0xCC5);
        for client in 1..=2 {
            for n in 0..50_000 {
                let base = random_loop_program(&mut rng);
                texts.insert(base.replacen("program f", &format!("program f{client}x{n}"), 1));
            }
        }
        assert!(texts.len() > 100_000);
        let hashes: HashSet<u64> = texts.iter().map(|t| program_hash(t)).collect();
        assert_eq!(hashes.len(), texts.len());
    }

    #[test]
    fn program_hash_sees_every_byte_and_the_length() {
        for src in hot_sources() {
            assert!(src.is_ascii());
            let h = program_hash(&src);
            let mut edited = src.clone().into_bytes();
            for i in 0..edited.len() {
                for flip in [0x01, 0x20, 0x7f] {
                    edited[i] ^= flip;
                    let text = std::str::from_utf8(&edited).expect("ascii stays ascii");
                    assert_ne!(program_hash(text), h, "byte {i} ^ {flip:#x}");
                    edited[i] ^= flip;
                }
            }
            assert_ne!(program_hash(&src[..src.len() - 1]), h, "truncation");
            for pad in ['\0', ' '] {
                let mut longer = src.clone();
                for _ in 0..9 {
                    longer.push(pad);
                    assert_ne!(program_hash(&longer), h, "{pad:?} extension");
                }
            }
        }
    }

    #[test]
    fn program_hash_avalanches() {
        // Every output bit should flip for about half of all single-bit
        // input flips (bit 7 left alone: the sources stay ASCII).
        let mut flipped = [0u64; 64];
        let mut flips = 0u64;
        for src in hot_sources() {
            let h = program_hash(&src);
            let mut edited = src.into_bytes();
            for i in 0..edited.len() {
                for bit in 0..7 {
                    edited[i] ^= 1 << bit;
                    let text = std::str::from_utf8(&edited).expect("ascii stays ascii");
                    let diff = program_hash(text) ^ h;
                    edited[i] ^= 1 << bit;
                    flips += 1;
                    for (out, count) in flipped.iter_mut().enumerate() {
                        *count += (diff >> out) & 1;
                    }
                }
            }
        }
        for (out, count) in flipped.iter().enumerate() {
            let share = *count as f64 / flips as f64;
            assert!(
                (0.35..=0.65).contains(&share),
                "output bit {out} flips for {share:.3} of {flips} input flips"
            );
        }
    }

    #[test]
    fn fingerprint_tracks_observable_state_only() {
        let mut a = VerdictCache::new(8);
        let mut b = VerdictCache::new(8);
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.insert(KEY, report());
        assert_ne!(a.fingerprint(), b.fingerprint());
        b.insert(KEY, report());
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Probes (LRU ticks) do not change the fingerprint.
        let before = a.fingerprint();
        let _ = a.probe(&KEY);
        assert_eq!(a.fingerprint(), before);
    }
}
