//! Run-time inspection of index arrays — the alternative the paper
//! argues against (§1: "these methods introduce overhead that is not
//! always negligible and also increase the code size, since the
//! unoptimized version must also be available in case the tests fail").
//!
//! Right before a guarded loop runs, [`inspect_guard`] evaluates its
//! residual checks over the live store. Every check is one scan of an
//! index-array section, [`IndexFacts::scan`], and every scan yields one
//! record, [`IndexFacts`]: the run-time counterpart of what §3 proves
//! once at compile time — the section's value range, whether it is
//! non-decreasing, strictly increasing and injective, and, when a
//! length array is named, that it is an offset chain (§3's closed-form
//! distance). The inspector pays `O(section)` on *every* execution, the
//! compile-time query pays once (`benchmark/`'s `exec.inspect_*_ms` and
//! the `runtime_vs_compiletime` example measure the trade-off).

use crate::interp::{ArrayData, Store};
use irr_driver::{GuardPlan, ResidualCheck};
use irr_frontend::VarId;
use std::borrow::Cow;

/// What one scan found about `array(lo..=hi)` in one store, at one
/// write-version of the array: its least and greatest value, and
/// whether it is non-decreasing, strictly increasing and injective
/// (pairwise distinct). Only [`IndexFacts::scan`] builds one (the fields
/// are private), so a holder cannot claim a section nobody scanned; the
/// parallel executor writes a scatter through `array` in place only
/// under facts that are [`injective`](Self::injective) and still
/// [`cover`](Self::covers) the scattered section in the live store.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IndexFacts {
    /// The store that was scanned: versions count from zero in every
    /// store, so the same version elsewhere says nothing.
    store: u64,
    array: VarId,
    lo: i64,
    hi: i64,
    /// [`Store::array_version`] of `array` when it was scanned.
    version: u64,
    min: i64,
    max: i64,
    non_decreasing: bool,
    strictly_increasing: bool,
    injective: bool,
}

impl IndexFacts {
    /// The one scan of the section `array(lo..=hi)` (1-based), on the
    /// calling thread: splitting it over threads lost at every section
    /// length the benchmark reaches (EXPERIMENTS.md, "One injectivity
    /// inspector").
    ///
    /// With a length array `len`, the section is the offset array's
    /// `array(lo..=hi+1)`, and the same pass checks the chain
    /// `array(k+1) == array(k) + len(k)` with `len(k) >= 0` for `k` in
    /// `lo..=hi`, exactly: extreme values fail the equation instead of
    /// overflowing it (branch-free, so the pass vectorizes; widening to
    /// `i128` kept it scalar). A broken chain yields no
    /// facts; a whole one is non-decreasing from `array(lo)` to
    /// `array(hi+1)`, and strictly increasing exactly when no length is
    /// zero.
    ///
    /// `None` for an empty section (`hi < lo`), a section that leaves
    /// either array, or an array no run allocated. A non-decreasing
    /// section is injective exactly when it is strictly increasing, so
    /// only a section that is not monotone is searched for a duplicate:
    /// a bitmap over its value range, or, when that range is much larger
    /// than the section, a sorted copy — `O(section)` memory whatever
    /// the range. The range is widened to `i128`: `max - min + 1`
    /// overflows `i64` for values near its extremes.
    pub fn scan(store: &Store, array: VarId, len: Option<VarId>, lo: i64, hi: i64) -> Option<Self> {
        if hi < lo {
            return None;
        }
        let end = hi.checked_add(i64::from(len.is_some()))?;
        let values = section(store, array, lo, end)?;
        let (min, max, non_decreasing, strictly_increasing) = match len {
            None => order(&values),
            Some(len) => {
                let lens = section(store, len, lo, hi)?;
                let (mut chained, mut strictly) = (true, true);
                for ((&from, &to), &step) in values.iter().zip(&values[1..]).zip(lens.iter()) {
                    // Exact: with `step >= 0` a sum past `i64::MAX` wraps
                    // below `from`, which `from <= to` rejects.
                    chained &= (step >= 0) & (from <= to) & (from.wrapping_add(step) == to);
                    strictly &= step > 0;
                }
                if !chained {
                    return None;
                }
                (values[0], values[lens.len()], true, strictly)
            }
        };
        // Strictly increasing is injective; otherwise a non-decreasing
        // section has two equal neighbours, and only one that is not
        // monotone needs the search.
        let injective = strictly_increasing || (!non_decreasing && distinct(values, min, max));
        Some(IndexFacts {
            store: store.id(),
            array,
            lo,
            hi: end,
            version: store.array_version(array),
            min,
            max,
            non_decreasing,
            strictly_increasing,
            injective,
        })
    }

    /// Whether these facts are about `array(lo..=hi)` *in `store` as it
    /// is now*: the store that was scanned (not a clone of it, nor
    /// another run's), same array, a section inside the scanned one, and
    /// no write to the array since the scan.
    pub fn covers(&self, store: &Store, array: VarId, lo: i64, hi: i64) -> bool {
        self.store == store.id()
            && self.array == array
            && self.lo <= lo
            && hi <= self.hi
            && store.array_version(array) == self.version
    }

    /// Whether the scanned section's values are pairwise distinct.
    pub fn injective(&self) -> bool {
        self.injective
    }
}

/// Elements `lo..=hi` (1-based, `lo <= hi`) of `arr` as the `i64`
/// subscripts the loop would use; `None` when no run allocated the
/// array yet or the section leaves it. Integer payloads are borrowed
/// and read exactly (no round trip through `f64`, which merges
/// neighbours past 2^53); real payloads are copied, truncated like the
/// interpreter's subscript conversion.
fn section(store: &Store, arr: VarId, lo: i64, hi: i64) -> Option<Cow<'_, [i64]>> {
    let data = store.array_ref(arr)?;
    if lo < 1 || hi as usize > data.len() {
        return None;
    }
    let (from, to) = ((lo - 1) as usize, hi as usize);
    Some(match data {
        ArrayData::Int { data, .. } => Cow::Borrowed(&data[from..to]),
        ArrayData::Real { data, .. } => data[from..to].iter().map(|&v| v as i64).collect(),
    })
}

/// The least and greatest value of a non-empty section, and whether it
/// is non-decreasing and strictly increasing, in one pass: while the
/// section is non-decreasing its first and latest values are its
/// extremes, and past the first descent only the extremes are left to
/// find.
fn order(values: &[i64]) -> (i64, i64, bool, bool) {
    let mut strictly = true;
    for k in 1..values.len() {
        let (a, b) = (values[k - 1], values[k]);
        if a > b {
            let rest = values[k..].iter();
            let (min, max) = rest.fold((values[0], a), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            return (min, max, false, false);
        }
        strictly &= a < b;
    }
    (values[0], values[values.len() - 1], true, strictly)
}

/// Whether `values`, all in `min..=max`, are pairwise distinct: a set
/// bit met again is a duplicate, and so are two equal neighbours once
/// sorted.
fn distinct(values: Cow<'_, [i64]>, min: i64, max: i64) -> bool {
    let range = (max as i128 - min as i128 + 1) as u128;
    if range > 4 * values.len() as u128 + 1024 {
        // Sparse values: the bitmap would be mostly empty pages (and
        // for extreme ranges could not even be allocated).
        let mut sorted = values.into_owned();
        sorted.sort_unstable();
        return sorted.windows(2).all(|w| w[0] != w[1]);
    }
    let mut bits = vec![0u64; (range as usize).div_ceil(64)];
    values.iter().all(|&v| {
        let d = (v - min) as usize;
        let (w, b) = (d / 64, d % 64);
        let fresh = bits[w] & (1 << b) == 0;
        bits[w] |= 1 << b;
        fresh
    })
}

/// Whether `idx(lo..=hi)` holds pairwise-distinct values — §3's
/// injectivity, by [`IndexFacts::scan`]. An empty section is vacuously
/// injective whatever the array's state (a zero-trip loop reads
/// nothing); an out-of-bounds section or an array not allocated is not.
pub fn inspect_injective(store: &Store, idx: VarId, lo: i64, hi: i64) -> bool {
    hi < lo || IndexFacts::scan(store, idx, None, lo, hi).is_some_and(|f| f.injective)
}

/// Whether `ptr` is a proper offset array for lengths `len` over the
/// segments `lo..=hi` — §3's closed-form distance, by
/// [`IndexFacts::scan`]. An empty section has no segments and is
/// vacuously valid.
pub fn inspect_offset_length(store: &Store, ptr: VarId, len: VarId, lo: i64, hi: i64) -> bool {
    hi < lo || IndexFacts::scan(store, ptr, Some(len), lo, hi).is_some()
}

/// Evaluates `guard` for the section `lo..=hi` against the live store,
/// as a conjunction of disjunctions: every group must be cleared, and a
/// group is cleared by *any one* of its checks (each would alone
/// establish that array's independence — the tester's symmetric
/// candidates include checks that legitimately fail while a sibling
/// passes). A group's checks run in order until one passes, and the
/// evaluation stops at the first group none clears.
///
/// Returns the facts of the checks that cleared their groups — `None`
/// when some group was not cleared — and how many checks ran. An empty
/// section clears every check vacuously and needs no facts.
pub fn inspect_guard(
    store: &Store,
    guard: &GuardPlan,
    lo: i64,
    hi: i64,
) -> (Option<Vec<IndexFacts>>, u64) {
    let (mut facts, mut run) = (Vec::new(), 0);
    let cleared = guard.groups.iter().all(|group| {
        group.iter().any(|check| {
            run += 1;
            let scanned = match *check {
                _ if hi < lo => return true,
                ResidualCheck::Injective { array } => {
                    IndexFacts::scan(store, array, None, lo, hi).filter(|f| f.injective)
                }
                ResidualCheck::OffsetLength { ptr, len } => {
                    IndexFacts::scan(store, ptr, Some(len), lo, hi)
                }
            };
            facts.extend(scanned);
            scanned.is_some()
        })
    });
    (cleared.then_some(facts), run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interp;
    use irr_frontend::parse_program;

    fn store_of(src: &str) -> (irr_frontend::Program, Store) {
        let p = parse_program(src).unwrap();
        let out = Interp::new(&p).run().unwrap();
        (p, out.store)
    }

    /// The facts of an injectivity check that clears, as
    /// [`inspect_guard`] keeps them.
    fn certify(store: &Store, idx: VarId, lo: i64, hi: i64) -> Option<IndexFacts> {
        IndexFacts::scan(store, idx, None, lo, hi).filter(|f| f.injective)
    }

    #[test]
    fn injective_inspector() {
        let (p, store) = store_of(
            "program t
             integer idx(10), i
             do i = 1, 10
               idx(i) = 11 - i
             enddo
             idx(10) = 9
             end",
        );
        let idx = p.symbols.lookup("idx").unwrap();
        // idx = [10, 9, ..., 2, 9]: first nine distinct, full range not.
        assert!(inspect_injective(&store, idx, 1, 9));
        assert!(!inspect_injective(&store, idx, 1, 10));
        // Out of bounds is sequential.
        assert!(!inspect_injective(&store, idx, 1, 11));
    }

    #[test]
    fn a_certificate_covers_its_section_until_the_array_is_written() {
        let (p, mut store) = store_with("idx(6), other(6)", &[("idx", vec![4, 2, 9, 7, 1, 2])]);
        let idx = p.symbols.lookup("idx").unwrap();
        let other = p.symbols.lookup("other").unwrap();
        // The duplicate 2 is at both ends: only `1..=5` certifies.
        assert_eq!(certify(&store, idx, 1, 6), None);
        assert_eq!(certify(&store, idx, 4, 3), None, "empty");
        assert_eq!(certify(&store, idx, 1, 7), None, "past the end");
        assert_eq!(certify(&store, other, 1, 6), None, "all zeros");
        let c = certify(&store, idx, 1, 5).expect("distinct");
        assert!(c.covers(&store, idx, 1, 5) && c.covers(&store, idx, 2, 4));
        assert!(!c.covers(&store, idx, 1, 6) && !c.covers(&store, idx, 0, 5));
        assert!(!c.covers(&store, other, 1, 5));
        // Any write moves the version, the value written or not.
        store.write_element(idx, 0, crate::interp::Value::Int(4));
        assert!(!c.covers(&store, idx, 1, 5));
        let fresh = certify(&store, idx, 1, 5).expect("still distinct");
        assert!(fresh != c && fresh.covers(&store, idx, 1, 5));
    }

    /// Versions count from zero in every store: a preset array is at
    /// version 1 whatever it holds. A certificate is about the store
    /// that was scanned, not about any store at the same write count.
    #[test]
    fn a_certificate_does_not_cover_another_store_at_the_same_version() {
        let (p, scanned) = store_with("idx(4)", &[("idx", vec![4, 2, 3, 1])]);
        let (_, colliding) = store_with("idx(4)", &[("idx", vec![2, 2, 2, 2])]);
        let idx = p.symbols.lookup("idx").unwrap();
        assert_eq!(scanned.array_version(idx), colliding.array_version(idx));
        let c = certify(&scanned, idx, 1, 4).expect("distinct");
        assert!(c.covers(&scanned, idx, 1, 4));
        assert!(!c.covers(&colliding, idx, 1, 4));
        // A clone forks the history: it may be written independently.
        assert!(!c.covers(&scanned.clone(), idx, 1, 4));
    }

    #[test]
    fn a_duplicate_at_the_far_end_of_a_dense_section_is_caught() {
        // A permutation with its last element repeating one from the
        // other half: the bitmap sees the bit set 31 elements earlier.
        let (p, store) = store_of(
            "program t
             integer idx(64), i
             do i = 1, 64
               idx(i) = 65 - i
             enddo
             idx(64) = 33
             end",
        );
        let idx = p.symbols.lookup("idx").unwrap();
        assert!(inspect_injective(&store, idx, 1, 63));
        assert!(!inspect_injective(&store, idx, 1, 64));
    }

    #[test]
    fn sparse_values_are_sorted_not_bitmapped() {
        // 4096 entries spread over a ~40M value range: far below the
        // bitmap density threshold. Scrambled (1031 is odd, so
        // `k × 1031 mod 4096` permutes the positions), the section is
        // not monotone and the scan sorts.
        let spread = |duplicate: bool| {
            let mut values: Vec<i64> = (0..4096).map(|k| (k * 1031 % 4096 + 1) * 9973).collect();
            if duplicate {
                values[4095] = values[0];
            }
            store_with("idx(4096)", &[("idx", values)])
        };
        let (p, store) = spread(false);
        let idx = p.symbols.lookup("idx").unwrap();
        let facts = IndexFacts::scan(&store, idx, None, 1, 4096).expect("in bounds");
        assert!(!facts.non_decreasing && facts.max - facts.min > 4 * 4096 + 1024);
        assert!(facts.injective);
        // A duplicate of the first value at the far end is two equal
        // neighbours once sorted.
        let (_, store) = spread(true);
        assert!(!inspect_injective(&store, idx, 1, 4096));
        // The same spread in order is strictly increasing: injective
        // with no sort.
        let values = (1..=4096).map(|i| i * 9973).collect();
        let (_, store) = store_with("idx(4096)", &[("idx", values)]);
        let facts = IndexFacts::scan(&store, idx, None, 1, 4096).expect("in bounds");
        assert!(facts.strictly_increasing && facts.injective);
    }

    #[test]
    fn extreme_index_range_does_not_overflow_the_range_computation() {
        // Values at the far ends of the representable range: computing
        // (max - min + 1) in i64 overflows; the widened computation
        // must route to the sort.
        let (p, store) = store_with("idx(4)", &[("idx", vec![-(1i64 << 62), 1i64 << 62, 0, 1])]);
        let idx = p.symbols.lookup("idx").unwrap();
        assert!(inspect_injective(&store, idx, 1, 4));
        // And with a duplicated extreme value.
        let (_, store2) = store_with(
            "idx(4)",
            &[("idx", vec![-(1i64 << 62), 1i64 << 62, -(1i64 << 62), 1])],
        );
        assert!(!inspect_injective(&store2, idx, 1, 4));
    }

    /// A store holding the given integer arrays, preset verbatim.
    fn store_with(decls: &str, arrays: &[(&str, Vec<i64>)]) -> (irr_frontend::Program, Store) {
        let p = parse_program(&format!("program t\n integer {decls}\n end")).unwrap();
        let mut it = Interp::new(&p);
        for (name, data) in arrays {
            let dims = [data.len()].into();
            let data = data.clone().into();
            it.preset_array(
                p.symbols.lookup(name).unwrap(),
                ArrayData::Int { data, dims },
            );
        }
        let store = it.run().unwrap().store;
        (p, store)
    }

    /// Past 2^53 neighbouring integers share an `f64`: an inspector
    /// reading through a real copy calls distinct values duplicates.
    #[test]
    fn injective_inspector_reads_integers_past_2_53_exactly() {
        let big = 1i64 << 53;
        let (p, store) = store_with("idx(2)", &[("idx", vec![big, big + 1])]);
        let idx = p.symbols.lookup("idx").unwrap();
        assert!(inspect_injective(&store, idx, 1, 2));
    }

    /// The unsound direction of the same rounding: `2^53 + 1` read as a
    /// real is `2^53`, which makes a broken offset chain look proper.
    #[test]
    fn offset_length_inspector_reads_integers_past_2_53_exactly() {
        let big = 1i64 << 53;
        let (p, store) = store_with(
            "ptr(2), len(1)",
            &[("ptr", vec![big + 1, big + 2]), ("len", vec![2])],
        );
        let ptr = p.symbols.lookup("ptr").unwrap();
        let len = p.symbols.lookup("len").unwrap();
        assert!(!inspect_offset_length(&store, ptr, len, 1, 1));
    }

    #[test]
    fn offset_length_inspector() {
        let (p, store) = store_of(
            "program t
             integer ptr(11), len(10), k
             do k = 1, 10
               len(k) = mod(k, 3) + 1
             enddo
             ptr(1) = 1
             do k = 1, 10
               ptr(k + 1) = ptr(k) + len(k)
             enddo
             end",
        );
        let ptr = p.symbols.lookup("ptr").unwrap();
        let len = p.symbols.lookup("len").unwrap();
        assert!(inspect_offset_length(&store, ptr, len, 1, 10));
        // Break one link.
        let (p2, store2) = store_of(
            "program t
             integer ptr(11), len(10), k
             do k = 1, 10
               len(k) = 2
             enddo
             ptr(1) = 1
             do k = 1, 10
               ptr(k + 1) = ptr(k) + len(k)
             enddo
             ptr(5) = 0
             end",
        );
        let ptr2 = p2.symbols.lookup("ptr").unwrap();
        let len2 = p2.symbols.lookup("len").unwrap();
        assert!(!inspect_offset_length(&store2, ptr2, len2, 1, 10));
    }

    /// What a scan must report for `values(lo..=hi)`, by definition:
    /// `(min, max, non-decreasing, strictly increasing, injective)`, each
    /// property read off every pair of positions.
    type Brute = (i64, i64, bool, bool, bool);
    fn brute(values: &[i64], lo: i64, hi: i64) -> Option<Brute> {
        if hi < lo || lo < 1 || hi > values.len() as i64 {
            return None;
        }
        let s = &values[lo as usize - 1..hi as usize];
        let pairs = || (0..s.len()).flat_map(|j| (j + 1..s.len()).map(move |k| (s[j], s[k])));
        let (min, max) = (*s.iter().min()?, *s.iter().max()?);
        let all = |p: fn(i64, i64) -> bool| pairs().all(|(a, b)| p(a, b));
        Some((
            min,
            max,
            all(|a, b| a <= b),
            all(|a, b| a < b),
            all(|a, b| a != b),
        ))
    }

    /// Whether `ptr` is an offset chain for `len` over `lo..=hi`, by
    /// definition: both sections in bounds, every length non-negative
    /// and every step exactly its length.
    fn brute_chain(ptr: &[i64], len: &[i64], lo: i64, hi: i64) -> bool {
        let fits = hi >= lo && lo >= 1 && hi < ptr.len() as i64 && hi <= len.len() as i64;
        fits && (lo as usize..=hi as usize).all(|k| {
            let (p, l) = (ptr[k - 1] as i128, len[k - 1]);
            l >= 0 && ptr[k] as i128 == p + l as i128
        })
    }

    /// Scans `values` (and, with `lens`, the chain over it) at every
    /// `lo..=hi` inside it and one past each edge, and compares every
    /// field of the facts with the brute-force definitions.
    struct Scope {
        p: irr_frontend::Program,
        store: Store,
        scans: u64,
    }

    impl Scope {
        fn new() -> Scope {
            let p = parse_program("program t\n integer a(1), l(1)\n end").unwrap();
            let store = Store::new(&p);
            Scope { p, store, scans: 0 }
        }

        fn preset(&mut self, name: &str, data: ArrayData) -> VarId {
            let var = self.p.symbols.lookup(name).unwrap();
            self.store.preset_array(var, data);
            var
        }

        fn check(&mut self, values: &[i64], data: ArrayData, lens: Option<&[i64]>) {
            let a = self.preset("a", data);
            let l = lens.map(|lens| self.preset("l", ints(lens)));
            let n = values.len() as i64;
            for lo in 0..=n + 1 {
                for hi in lo - 1..=n + 1 {
                    self.scans += 1;
                    let want = match lens {
                        None => brute(values, lo, hi),
                        Some(lens) if brute_chain(values, lens, lo, hi) => {
                            brute(values, lo, hi + 1)
                        }
                        Some(_) => None,
                    };
                    let end = hi + i64::from(lens.is_some());
                    let got = IndexFacts::scan(&self.store, a, l, lo, hi).map(|f| {
                        let at = (self.store.id(), a, lo, end, self.store.array_version(a));
                        assert_eq!((f.store, f.array, f.lo, f.hi, f.version), at);
                        let fields = (f.min, f.max, f.non_decreasing, f.strictly_increasing);
                        (fields.0, fields.1, fields.2, fields.3, f.injective)
                    });
                    assert_eq!(got, want, "{values:?} {lens:?} {lo}..={hi}");
                }
            }
        }
    }

    fn ints(values: &[i64]) -> ArrayData {
        let dims = [values.len()].into();
        ArrayData::Int {
            data: values.to_vec().into(),
            dims,
        }
    }

    /// Every array of each length in `lens` over `alphabet`.
    fn arrays(alphabet: &[i64], lens: std::ops::RangeInclusive<usize>) -> Vec<Vec<i64>> {
        let mut out = Vec::new();
        for n in lens {
            let mut a = vec![0; n];
            for code in 0..alphabet.len().pow(n as u32) {
                let mut c = code;
                for slot in a.iter_mut() {
                    *slot = alphabet[c % alphabet.len()];
                    c /= alphabet.len();
                }
                out.push(a.clone());
            }
        }
        out
    }

    const EDGES: [i64; 7] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];

    /// The scan against its definitions on a small scope: every index
    /// array of length ≤ 5 over −1 … 7 and every array of length ≤ 4
    /// over `i64`-edge values (the bitmap and the sort both run), a few
    /// real arrays (truncated like a subscript), and every offset chain
    /// with `ptr` of length ≤ 4 and `len` of length ≤ 3 over −1 … 2 and
    /// of lengths ≤ 3 / ≤ 2 over edge values — each at every `lo..=hi`
    /// inside the array and one past each edge.
    #[test]
    fn the_scan_matches_its_definitions_on_a_small_scope() {
        let mut scope = Scope::new();
        let small: Vec<i64> = (-1..=7).collect();
        for values in arrays(&small, 0..=5).iter().chain(&arrays(&EDGES, 0..=4)) {
            scope.check(values, ints(values), None);
        }
        let reals = [-1.5, -0.5, 0.5, 1.0, 1.5, 2.7];
        for n in 0..=3 {
            for code in 0..reals.len().pow(n) {
                let real: Vec<f64> = (0..n)
                    .map(|k| reals[code / reals.len().pow(k) % reals.len()])
                    .collect();
                let values: Vec<i64> = real.iter().map(|&v| v as i64).collect();
                let dims = [real.len()].into();
                scope.check(
                    &values,
                    ArrayData::Real {
                        data: real.into(),
                        dims,
                    },
                    None,
                );
            }
        }
        let (steps, chain_edges) = (
            (-1..=2).collect::<Vec<i64>>(),
            [i64::MIN, -1, 0, 1, i64::MAX],
        );
        for (ptrs, lens) in [(1..=4, 0..=3), (1..=3, 0..=2)] {
            let alphabet: &[i64] = if ptrs.end() == &4 {
                &steps
            } else {
                &chain_edges
            };
            for ptr in arrays(alphabet, ptrs) {
                for len in arrays(alphabet, lens.clone()) {
                    scope.check(&ptr, ints(&ptr), Some(&len));
                }
            }
        }
        assert_eq!(scope.scans, 3_145_151, "the scope is fixed");
    }
}
