//! Run-time parallelization tests — the alternative the paper argues
//! against (§1: "these methods introduce overhead that is not always
//! negligible and also increase the code size, since the unoptimized
//! version must also be available in case the tests fail").
//!
//! An *inspector* examines index-array values in the live store right
//! before a candidate loop and decides whether the parallel version may
//! run. This module implements the inspectors corresponding to the
//! properties the compile-time analysis verifies statically, so the
//! trade-off can be measured (see the `runtime-vs-compile-time` bench
//! group): the inspector pays `O(section)` on *every* execution, the
//! compile-time query pays once.

use crate::interp::{ArrayData, Store};
use irr_frontend::VarId;
use std::collections::HashSet;

/// Result of a run-time inspection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Inspection {
    /// The property holds for this execution: the parallel version may
    /// run (this time).
    ParallelOk,
    /// The property fails: fall back to the sequential version.
    Sequential,
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
    /// the array is not materialized or the section leaves it.
    fn section(store: &'a Store, arr: VarId, lo: i64, hi: i64) -> Option<IndexView<'a>> {
        let data = store.array_ref(arr)?;
        if lo < 1 || hi as usize > data.len() {
            return None;
        }
        let view = match data {
            ArrayData::Int { data, .. } => IndexView::Int(data),
            ArrayData::Real { data, .. } => IndexView::Real(data),
        };
        Some(view.slice((lo - 1) as usize, hi as usize))
    }

    fn slice(self, from: usize, to: usize) -> IndexView<'a> {
        match self {
            IndexView::Int(d) => IndexView::Int(&d[from..to]),
            IndexView::Real(d) => IndexView::Real(&d[from..to]),
        }
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

    /// Contiguous sub-sections of at most `chunk_len` elements.
    fn chunks(self, chunk_len: usize) -> impl Iterator<Item = IndexView<'a>> {
        (0..self.len())
            .step_by(chunk_len)
            .map(move |from| self.slice(from, (from + chunk_len).min(self.len())))
    }
}

/// Inspects whether `idx(lo..=hi)` holds pairwise-distinct values — the
/// run-time counterpart of the injectivity property (§3).
///
/// An empty section (`hi < lo`) is vacuously injective — `ParallelOk`
/// regardless of the array's state, checked *before* materialization and
/// bounds (a zero-trip loop reads nothing, so nothing can conflict).
/// Otherwise returns `Sequential` when the section is out of bounds or
/// the array has not been materialized.
pub fn inspect_injective(store: &Store, idx: VarId, lo: i64, hi: i64) -> Inspection {
    if hi < lo {
        return Inspection::ParallelOk;
    }
    match IndexView::section(store, idx, lo, hi) {
        Some(section) => scan_injective(section),
        None => Inspection::Sequential,
    }
}

/// The sequential hash scan behind [`inspect_injective`].
fn scan_injective(section: IndexView<'_>) -> Inspection {
    let mut seen = HashSet::with_capacity(section.len());
    if section.iter().all(|v| seen.insert(v)) {
        Inspection::ParallelOk
    } else {
        Inspection::Sequential
    }
}

/// Parallel counterpart of [`inspect_injective`]: splits the section
/// into contiguous chunks, each worker marks the values it sees in a
/// private bitmap over the section's value range, and the merge ORs the
/// bitmaps — a set bit seen twice (within a chunk or across chunks) is
/// a duplicate. Chunk results merge at chunk granularity, so the scan
/// parallelizes with no shared state.
///
/// The bitmap needs the value range: a cheap chunked min/max pass runs
/// first, with the range widened in `i128` so pathological index values
/// near the `i64` extremes cannot overflow it. When the range is much
/// larger than the section (huge max, tiny nonzero count), the bitmaps
/// would be mostly empty pages — below that density threshold the
/// inspector switches to a sparse-set variant: each worker sorts its
/// chunk (catching intra-chunk duplicates), and a k-way merge scan
/// catches duplicates across chunks, so the fallback stays parallel
/// instead of degenerating to the sequential hash scan. Verdicts are
/// always identical to [`inspect_injective`].
pub fn inspect_injective_parallel(
    store: &Store,
    idx: VarId,
    lo: i64,
    hi: i64,
    threads: usize,
) -> Inspection {
    if hi < lo {
        return Inspection::ParallelOk;
    }
    let Some(section) = IndexView::section(store, idx, lo, hi) else {
        return Inspection::Sequential;
    };
    let threads = threads.clamp(1, section.len());
    if threads == 1 {
        return scan_injective(section);
    }
    // Chunked min/max pass.
    let chunk_len = section.len().div_ceil(threads);
    let (min, max) = std::thread::scope(|scope| {
        let handles: Vec<_> = section
            .chunks(chunk_len)
            .map(|c| {
                scope.spawn(move || {
                    c.iter()
                        .fold((i64::MAX, i64::MIN), |(mn, mx), v| (mn.min(v), mx.max(v)))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("inspector worker panicked"))
            .fold((i64::MAX, i64::MIN), |(amn, amx), (mn, mx)| {
                (amn.min(mn), amx.max(mx))
            })
    });
    // Widen before subtracting: with index values near the i64
    // extremes (max - min + 1) overflows i64.
    let range = (max as i128 - min as i128 + 1) as u128;
    if range > 4 * section.len() as u128 + 1024 {
        // Sparse values: the bitmap would be mostly empty pages (and
        // for extreme ranges could not even be allocated). Fall back
        // to the chunked sparse-set inspector instead of the
        // sequential hash scan.
        return inspect_injective_sparse_set(section, chunk_len);
    }
    let words = (range as usize).div_ceil(64);
    // Chunked marking pass: each worker owns a private bitmap.
    let bitmaps: Vec<Option<Vec<u64>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = section
            .chunks(chunk_len)
            .map(|c| {
                scope.spawn(move || {
                    let mut bits = vec![0u64; words];
                    for v in c.iter() {
                        let d = (v - min) as usize;
                        let (w, b) = (d / 64, d % 64);
                        if bits[w] & (1 << b) != 0 {
                            return None; // duplicate inside this chunk
                        }
                        bits[w] |= 1 << b;
                    }
                    Some(bits)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("inspector worker panicked"))
            .collect()
    });
    let mut merged = vec![0u64; words];
    for bits in bitmaps {
        let Some(bits) = bits else {
            return Inspection::Sequential;
        };
        for (m, b) in merged.iter_mut().zip(&bits) {
            if *m & *b != 0 {
                return Inspection::Sequential; // cross-chunk duplicate
            }
            *m |= *b;
        }
    }
    Inspection::ParallelOk
}

/// Sparse-set injectivity inspector: the parallel fallback for sections
/// whose value range is too wide for per-chunk bitmaps (huge max, tiny
/// nonzero count). Each worker sorts its chunk's values — a duplicate
/// inside a chunk surfaces as adjacent equal elements — and a k-way
/// merge scan over the sorted chunks catches duplicates across chunks.
/// Memory is `O(section)` regardless of the value range.
fn inspect_injective_sparse_set(section: IndexView<'_>, chunk_len: usize) -> Inspection {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let sorted: Vec<Option<Vec<i64>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = section
            .chunks(chunk_len)
            .map(|c| {
                scope.spawn(move || {
                    let mut v: Vec<i64> = c.iter().collect();
                    v.sort_unstable();
                    if v.windows(2).any(|w| w[0] == w[1]) {
                        return None; // duplicate inside this chunk
                    }
                    Some(v)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("inspector worker panicked"))
            .collect()
    });
    let mut chunks: Vec<Vec<i64>> = Vec::with_capacity(sorted.len());
    for c in sorted {
        let Some(c) = c else {
            return Inspection::Sequential;
        };
        chunks.push(c);
    }
    // K-way merge scan: pop values in ascending order; two equal values
    // in a row are a cross-chunk duplicate.
    let mut heap: BinaryHeap<Reverse<(i64, usize, usize)>> = chunks
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.is_empty())
        .map(|(ci, c)| Reverse((c[0], ci, 0)))
        .collect();
    let mut prev: Option<i64> = None;
    while let Some(Reverse((v, ci, pos))) = heap.pop() {
        if prev == Some(v) {
            return Inspection::Sequential;
        }
        prev = Some(v);
        if let Some(&next) = chunks[ci].get(pos + 1) {
            heap.push(Reverse((next, ci, pos + 1)));
        }
    }
    Inspection::ParallelOk
}

/// Inspects whether `ptr` is a proper offset array for lengths `len`
/// over segments `lo..=hi`: `ptr(k+1) == ptr(k) + len(k)` with
/// `len(k) >= 0` — the run-time counterpart of the closed-form distance
/// property (the check the offset–length test performs statically).
///
/// An empty section (`hi < lo`) has no segments and is vacuously valid —
/// `ParallelOk` before any materialization or bounds check.
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
    fn parallel_inspectors_agree_with_sequential() {
        // Permutation with one duplicate injected at the far end: the
        // duplicate pair spans chunks, so only the merge can see it.
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
        for threads in [1, 2, 3, 4, 8] {
            assert_eq!(
                inspect_injective_parallel(&store, idx, 1, 63, threads),
                inspect_injective(&store, idx, 1, 63),
                "threads={threads}"
            );
            assert_eq!(
                inspect_injective_parallel(&store, idx, 1, 64, threads),
                Inspection::Sequential,
                "threads={threads}"
            );
        }
        // Empty section and out-of-bounds behave like the sequential
        // inspectors.
        assert_eq!(
            inspect_injective_parallel(&store, idx, 5, 4, 4),
            Inspection::ParallelOk
        );
        assert_eq!(
            inspect_injective_parallel(&store, idx, 1, 65, 4),
            Inspection::Sequential
        );
    }

    #[test]
    fn parallel_injective_sparse_values_fall_back_to_sparse_set() {
        // Values spread over a range ~1000x the section length: the
        // bitmap path declines and the sparse-set fallback must still
        // give the sequential inspector's verdict (distinct here).
        let (p, store) = store_of(
            "program t
             integer idx(32), i
             do i = 1, 32
               idx(i) = i * 100000
             enddo
             end",
        );
        let idx = p.symbols.lookup("idx").unwrap();
        assert_eq!(
            inspect_injective_parallel(&store, idx, 1, 32, 4),
            Inspection::ParallelOk
        );
        // Duplicate far apart is still caught by the fallback.
        let (p2, store2) = store_of(
            "program t
             integer idx(32), i
             do i = 1, 32
               idx(i) = i * 100000
             enddo
             idx(32) = 100000
             end",
        );
        let idx2 = p2.symbols.lookup("idx").unwrap();
        assert_eq!(
            inspect_injective_parallel(&store2, idx2, 1, 32, 4),
            Inspection::Sequential
        );
    }

    #[test]
    fn sparse_set_fallback_matches_sequential_across_thread_counts() {
        // 4096 entries spread over a ~40M value range: far below the
        // bitmap density threshold, so every parallel call below takes
        // the sparse-set path.
        let (p, store) = store_of(
            "program t
             integer idx(4096), i
             do i = 1, 4096
               idx(i) = i * 9973
             enddo
             end",
        );
        let idx = p.symbols.lookup("idx").unwrap();
        for threads in [2, 3, 4, 7, 16] {
            assert_eq!(
                inspect_injective_parallel(&store, idx, 1, 4096, threads),
                Inspection::ParallelOk,
                "threads={threads}"
            );
        }
        // A duplicate pair spanning chunk boundaries is only visible to
        // the k-way merge.
        let (p2, store2) = store_of(
            "program t
             integer idx(4096), i
             do i = 1, 4096
               idx(i) = i * 9973
             enddo
             idx(4096) = 9973
             end",
        );
        let idx2 = p2.symbols.lookup("idx").unwrap();
        for threads in [2, 3, 4, 7, 16] {
            assert_eq!(
                inspect_injective_parallel(&store2, idx2, 1, 4096, threads),
                Inspection::Sequential,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn extreme_index_range_does_not_overflow_the_range_computation() {
        // Values at the far ends of the representable range: computing
        // (max - min + 1) in i64 overflows; the widened computation
        // must route to the sparse-set path and return the sequential
        // inspector's verdict.
        let (p, store) = store_with("idx(4)", &[("idx", vec![-(1i64 << 62), 1i64 << 62, 0, 1])]);
        let idx = p.symbols.lookup("idx").unwrap();
        assert_eq!(
            inspect_injective_parallel(&store, idx, 1, 4, 4),
            inspect_injective(&store, idx, 1, 4)
        );
        assert_eq!(
            inspect_injective_parallel(&store, idx, 1, 4, 4),
            Inspection::ParallelOk
        );
        // And with a duplicated extreme value.
        let (_, store2) = store_with(
            "idx(4)",
            &[("idx", vec![-(1i64 << 62), 1i64 << 62, -(1i64 << 62), 1])],
        );
        assert_eq!(
            inspect_injective_parallel(&store2, idx, 1, 4, 4),
            Inspection::Sequential
        );
    }

    /// A store holding the given integer arrays, preset verbatim.
    fn store_with(decls: &str, arrays: &[(&str, Vec<i64>)]) -> (irr_frontend::Program, Store) {
        let p = parse_program(&format!("program t\n integer {decls}\n end")).unwrap();
        let mut it = Interp::new(&p);
        for (name, data) in arrays {
            let dims = vec![data.len()];
            let data = data.clone();
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
    fn injective_inspectors_read_integers_past_2_53_exactly() {
        let big = 1i64 << 53;
        let (p, store) = store_with("idx(2)", &[("idx", vec![big, big + 1])]);
        let idx = p.symbols.lookup("idx").unwrap();
        assert_eq!(inspect_injective(&store, idx, 1, 2), Inspection::ParallelOk);
        assert_eq!(
            inspect_injective_parallel(&store, idx, 1, 2, 2),
            Inspection::ParallelOk
        );
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
