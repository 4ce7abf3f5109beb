//! Run-time parallelization tests — the alternative the paper argues
//! against (§1: "these methods introduce overhead that is not always
//! negligible and also increase the code size, since the unoptimized
//! version must also be available in case the tests fail").
//!
//! An *inspector* examines index-array values in the live store right
//! before a candidate loop and decides whether the parallel version may
//! run. This module implements the inspectors corresponding to the
//! properties the compile-time analysis verifies statically, and
//! [`inspect_guard`], the one evaluator of a guard's residual checks
//! over them, so the trade-off can be measured (`benchmark/`'s
//! `exec.inspect_*_ms`, and the `runtime_vs_compiletime` example): the
//! inspector pays `O(section)` on *every* execution, the compile-time
//! query pays once.

use crate::interp::{ArrayData, Store};
use irr_driver::{GuardPlan, ResidualCheck};
use irr_frontend::VarId;

/// Result of a run-time inspection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Inspection {
    /// The property holds for this execution: the parallel version may
    /// run (this time).
    ParallelOk,
    /// The property fails: fall back to the sequential version.
    Sequential,
}

/// Proof that an inspection found `array(lo..=hi)` pairwise distinct in
/// one store, at one write-version of the array. Only the injectivity
/// inspectors of this module construct one (the fields are private), so
/// a holder cannot claim a section nobody scanned; the parallel
/// executor accepts it for a scatter through `array` only while
/// [`Self::covers`] holds against the live store.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InjectiveCertificate {
    /// The store that was scanned: versions count from zero in every
    /// store, so the same version elsewhere says nothing.
    store: u64,
    array: VarId,
    lo: i64,
    hi: i64,
    /// [`Store::array_version`] of `array` when it was scanned.
    version: u64,
}

impl InjectiveCertificate {
    /// Whether this certificate proves `array(lo..=hi)` injective *in
    /// `store` as it is now*: the store that was scanned (not a clone
    /// of it, nor another run's), same array, a section inside the
    /// scanned one, and no write to the array since the scan.
    pub fn covers(&self, store: &Store, array: VarId, lo: i64, hi: i64) -> bool {
        self.store == store.id()
            && self.array == array
            && self.lo <= lo
            && hi <= self.hi
            && store.array_version(array) == self.version
    }
}

/// A borrowed section of an index array, read as the `i64` subscripts
/// the loop would use: integer payloads exactly (no round trip through
/// `f64`, which merges neighbours past 2^53), real payloads truncated
/// like the interpreter's subscript conversion.
#[derive(Clone, Copy)]
enum IndexView<'a> {
    Int(&'a [i64]),
    Real(&'a [f64]),
}

impl<'a> IndexView<'a> {
    /// Elements `lo..=hi` (1-based, `lo <= hi`) of `arr`; `None` when
    /// no run allocated the array yet or the section leaves it.
    fn section(store: &'a Store, arr: VarId, lo: i64, hi: i64) -> Option<IndexView<'a>> {
        let data = store.array_ref(arr)?;
        if lo < 1 || hi as usize > data.len() {
            return None;
        }
        let (from, to) = ((lo - 1) as usize, hi as usize);
        Some(match data {
            ArrayData::Int { data, .. } => IndexView::Int(&data[from..to]),
            ArrayData::Real { data, .. } => IndexView::Real(&data[from..to]),
        })
    }

    fn len(self) -> usize {
        match self {
            IndexView::Int(d) => d.len(),
            IndexView::Real(d) => d.len(),
        }
    }

    fn get(self, k: usize) -> i64 {
        match self {
            IndexView::Int(d) => d[k],
            IndexView::Real(d) => d[k] as i64,
        }
    }

    fn iter(self) -> impl Iterator<Item = i64> + 'a {
        (0..self.len()).map(move |k| self.get(k))
    }
}

/// Inspects whether `idx(lo..=hi)` holds pairwise-distinct values — the
/// run-time counterpart of the injectivity property (§3).
///
/// An empty section (`hi < lo`) is vacuously injective — `ParallelOk`
/// regardless of the array's state, checked *before* bounds (a
/// zero-trip loop reads nothing, so nothing can conflict). Otherwise
/// returns `Sequential` when the section is out of bounds or the array
/// is not allocated.
pub fn inspect_injective(store: &Store, idx: VarId, lo: i64, hi: i64) -> Inspection {
    if hi < lo || certify_injective(store, idx, lo, hi).is_some() {
        Inspection::ParallelOk
    } else {
        Inspection::Sequential
    }
}

/// The injectivity inspector: scans the non-empty section
/// `idx(lo..=hi)` and, when its values are pairwise distinct, returns
/// the [`InjectiveCertificate`] that says so (`None` for a duplicate,
/// an empty or out-of-bounds section, or an array not allocated).
///
/// One pass on the calling thread (splitting the scan over threads lost
/// to this at every section length the benchmark reaches — table in
/// EXPERIMENTS.md, "One injectivity inspector"). A min/max pass gives
/// the value range, widened in `i128` so index values near the `i64`
/// extremes cannot overflow it; the scan then marks the values it sees
/// in a bitmap over that range — a set bit seen twice is a duplicate.
/// When the range is much larger than the section (huge max, tiny
/// nonzero count) the bitmap would be mostly empty pages, so below that
/// density the values are sorted instead and a duplicate is two equal
/// neighbours, in `O(section)` memory whatever the range.
pub fn certify_injective(
    store: &Store,
    idx: VarId,
    lo: i64,
    hi: i64,
) -> Option<InjectiveCertificate> {
    if hi < lo {
        return None;
    }
    let section = IndexView::section(store, idx, lo, hi)?;
    let (min, max) = section
        .iter()
        .fold((i64::MAX, i64::MIN), |(mn, mx), v| (mn.min(v), mx.max(v)));
    // Widen before subtracting: with index values near the i64
    // extremes (max - min + 1) overflows i64.
    let range = (max as i128 - min as i128 + 1) as u128;
    let distinct = if range > 4 * section.len() as u128 + 1024 {
        // Sparse values: the bitmap would be mostly empty pages (and
        // for extreme ranges could not even be allocated).
        let mut sorted: Vec<i64> = section.iter().collect();
        sorted.sort_unstable();
        sorted.windows(2).all(|w| w[0] != w[1])
    } else {
        let mut bits = vec![0u64; (range as usize).div_ceil(64)];
        section.iter().all(|v| {
            let d = (v - min) as usize;
            let (w, b) = (d / 64, d % 64);
            let fresh = bits[w] & (1 << b) == 0;
            bits[w] |= 1 << b;
            fresh
        })
    };
    distinct.then(|| InjectiveCertificate {
        store: store.id(),
        array: idx,
        lo,
        hi,
        version: store.array_version(idx),
    })
}

/// Evaluates `guard` for the section `lo..=hi` against the live store,
/// as a conjunction of disjunctions: every group must be cleared, and a
/// group is cleared by *any one* of its checks (each would alone
/// establish that array's independence — the tester's symmetric
/// candidates include checks that legitimately fail while a sibling
/// passes). A group's checks run in order until one passes, and the
/// evaluation stops at the first group none clears.
///
/// Returns what the injectivity checks that cleared their groups
/// certified — `None` when some group was not cleared — and how many
/// checks ran.
pub fn inspect_guard(
    store: &Store,
    guard: &GuardPlan,
    lo: i64,
    hi: i64,
) -> (Option<Vec<InjectiveCertificate>>, u64) {
    let (mut certificates, mut run) = (Vec::new(), 0);
    let cleared = guard.groups.iter().all(|group| {
        group.iter().any(|check| {
            run += 1;
            match check {
                // An empty section is vacuously injective, and a
                // zero-trip dispatch needs no certificate.
                ResidualCheck::Injective { .. } if hi < lo => true,
                ResidualCheck::Injective { array } => {
                    let certificate = certify_injective(store, *array, lo, hi);
                    certificates.extend(certificate);
                    certificate.is_some()
                }
                ResidualCheck::OffsetLength { ptr, len } => {
                    inspect_offset_length(store, *ptr, *len, lo, hi) == Inspection::ParallelOk
                }
            }
        })
    });
    (cleared.then_some(certificates), run)
}

/// Inspects whether `ptr` is a proper offset array for lengths `len`
/// over segments `lo..=hi`: `ptr(k+1) == ptr(k) + len(k)` with
/// `len(k) >= 0` — the run-time counterpart of the closed-form distance
/// property (the check the offset–length test performs statically).
///
/// An empty section (`hi < lo`) has no segments and is vacuously valid —
/// `ParallelOk` before any bounds check.
pub fn inspect_offset_length(
    store: &Store,
    ptr: VarId,
    len: VarId,
    lo: i64,
    hi: i64,
) -> Inspection {
    if hi < lo {
        return Inspection::ParallelOk;
    }
    let sections = hi
        .checked_add(1)
        .and_then(|hi1| IndexView::section(store, ptr, lo, hi1))
        .zip(IndexView::section(store, len, lo, hi));
    let Some((p, l)) = sections else {
        return Inspection::Sequential;
    };
    for k in 0..l.len() {
        let lk = l.get(k);
        if lk < 0 {
            return Inspection::Sequential;
        }
        // Widened like the injectivity inspector's range arithmetic:
        // extreme stored values must fail the equation, not overflow.
        if p.get(k + 1) as i128 != p.get(k) as i128 + lk as i128 {
            return Inspection::Sequential;
        }
    }
    Inspection::ParallelOk
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
        assert_eq!(inspect_injective(&store, idx, 1, 9), Inspection::ParallelOk);
        assert_eq!(
            inspect_injective(&store, idx, 1, 10),
            Inspection::Sequential
        );
        // Out of bounds is sequential.
        assert_eq!(
            inspect_injective(&store, idx, 1, 11),
            Inspection::Sequential
        );
    }

    #[test]
    fn a_certificate_covers_its_section_until_the_array_is_written() {
        let (p, mut store) = store_with("idx(6), other(6)", &[("idx", vec![4, 2, 9, 7, 1, 2])]);
        let idx = p.symbols.lookup("idx").unwrap();
        let other = p.symbols.lookup("other").unwrap();
        // The duplicate 2 is at both ends: only `1..=5` certifies.
        assert_eq!(certify_injective(&store, idx, 1, 6), None);
        assert_eq!(certify_injective(&store, idx, 4, 3), None, "empty");
        assert_eq!(certify_injective(&store, idx, 1, 7), None, "past the end");
        assert_eq!(certify_injective(&store, other, 1, 6), None, "all zeros");
        let c = certify_injective(&store, idx, 1, 5).expect("distinct");
        assert!(c.covers(&store, idx, 1, 5) && c.covers(&store, idx, 2, 4));
        assert!(!c.covers(&store, idx, 1, 6) && !c.covers(&store, idx, 0, 5));
        assert!(!c.covers(&store, other, 1, 5));
        // Any write moves the version, the value written or not.
        store.write_element(idx, 0, crate::interp::Value::Int(4));
        assert!(!c.covers(&store, idx, 1, 5));
        let fresh = certify_injective(&store, idx, 1, 5).expect("still distinct");
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
        let c = certify_injective(&scanned, idx, 1, 4).expect("distinct");
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
        assert_eq!(
            inspect_injective(&store, idx, 1, 63),
            Inspection::ParallelOk
        );
        assert_eq!(
            inspect_injective(&store, idx, 1, 64),
            Inspection::Sequential
        );
    }

    #[test]
    fn sparse_values_are_sorted_not_bitmapped() {
        // 4096 entries spread over a ~40M value range: far below the
        // bitmap density threshold, so the scan sorts.
        let spread = |last: i64| {
            let mut values: Vec<i64> = (1..=4096).map(|i| i * 9973).collect();
            values[4095] = last;
            store_with("idx(4096)", &[("idx", values)])
        };
        let (p, store) = spread(4096 * 9973);
        let idx = p.symbols.lookup("idx").unwrap();
        assert_eq!(
            inspect_injective(&store, idx, 1, 4096),
            Inspection::ParallelOk
        );
        // A duplicate of the first value at the far end is two equal
        // neighbours once sorted.
        let (_, store) = spread(9973);
        assert_eq!(
            inspect_injective(&store, idx, 1, 4096),
            Inspection::Sequential
        );
    }

    #[test]
    fn extreme_index_range_does_not_overflow_the_range_computation() {
        // Values at the far ends of the representable range: computing
        // (max - min + 1) in i64 overflows; the widened computation
        // must route to the sort.
        let (p, store) = store_with("idx(4)", &[("idx", vec![-(1i64 << 62), 1i64 << 62, 0, 1])]);
        let idx = p.symbols.lookup("idx").unwrap();
        assert_eq!(inspect_injective(&store, idx, 1, 4), Inspection::ParallelOk);
        // And with a duplicated extreme value.
        let (_, store2) = store_with(
            "idx(4)",
            &[("idx", vec![-(1i64 << 62), 1i64 << 62, -(1i64 << 62), 1])],
        );
        assert_eq!(
            inspect_injective(&store2, idx, 1, 4),
            Inspection::Sequential
        );
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
        assert_eq!(inspect_injective(&store, idx, 1, 2), Inspection::ParallelOk);
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
        assert_eq!(
            inspect_offset_length(&store, ptr, len, 1, 1),
            Inspection::Sequential
        );
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
        assert_eq!(
            inspect_offset_length(&store, ptr, len, 1, 10),
            Inspection::ParallelOk
        );
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
        assert_eq!(
            inspect_offset_length(&store2, ptr2, len2, 1, 10),
            Inspection::Sequential
        );
    }
}
