//! SPARK00-class sparse matrix generators (van der Spek et al., see
//! PAPERS.md): deterministic, SplitMix64-driven matrices in CRS or CCS
//! layout with controlled density, bandwidth, and row-length skew.
//!
//! The generators produce exactly the index-array construction patterns
//! the paper's offset–length analysis targets: a prefix-sum-built `ptr`
//! array, per-segment lengths `len(k) = ptr(k+1) - ptr(k)`, and 1-based
//! column (or row) indices per nonzero — ready to be injected into the
//! interpreter as preset arrays (see [`int_array`]/[`real_array`] and
//! `Interp::preset_array`) so a 10M-nonzero workload does not have to
//! be initialized by interpreted loops.
//!
//! Everything is deterministic in `(spec, seed)`: the same
//! [`MatrixSpec`] always yields the same matrix, so verdict-stability
//! tests, the sanitizer's sparse audit mode, and the bench sweep all
//! agree on the workload.

use irr_exec::{ArrayData, SplitMix64};

/// Nonzero placement pattern.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Structure {
    /// Nonzeros clustered within `bandwidth` of the diagonal — the
    /// discretized-PDE shape (balanced segment lengths, local indices).
    Banded {
        /// Maximum |column − row| of a nonzero.
        bandwidth: usize,
    },
    /// Nonzeros uniform over the whole matrix: balanced segment lengths
    /// with scattered indices.
    Uniform,
    /// Graph-shaped skew: segment lengths follow a Zipf-like
    /// distribution, so a few segments are huge and most are tiny —
    /// the adversarial case for static chunking.
    PowerLaw,
}

impl Structure {
    /// Short tag for bench IDs and reports.
    pub fn tag(&self) -> &'static str {
        match self {
            Structure::Banded { .. } => "banded",
            Structure::Uniform => "uniform",
            Structure::PowerLaw => "powerlaw",
        }
    }
}

/// Storage layout. The generated arrays are identical in shape; the
/// layout decides what a "segment" means (a row or a column), which the
/// kernels reflect in their loop nests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layout {
    /// Compressed Row Storage: one segment per row, indices are columns.
    Crs,
    /// Compressed Column Storage: one segment per column, indices are
    /// rows.
    Ccs,
}

impl Layout {
    /// Short tag for bench IDs and reports.
    pub fn tag(&self) -> &'static str {
        match self {
            Layout::Crs => "crs",
            Layout::Ccs => "ccs",
        }
    }
}

/// Everything a generator needs; deterministic in all fields.
#[derive(Clone, Copy, Debug)]
pub struct MatrixSpec {
    pub rows: usize,
    pub cols: usize,
    /// Requested nonzero count (the generator hits it exactly).
    pub nnz: usize,
    pub structure: Structure,
    pub layout: Layout,
    pub seed: u64,
}

impl MatrixSpec {
    /// A square CRS spec with a structure-appropriate default bandwidth.
    pub fn square(n: usize, nnz: usize, structure: Structure, seed: u64) -> MatrixSpec {
        MatrixSpec {
            rows: n,
            cols: n,
            nnz,
            structure,
            layout: Layout::Crs,
            seed,
        }
    }
}

/// A generated sparse matrix. All index values are 1-based, matching
/// the mini-Fortran language; `ptr` is the prefix-sum offset array with
/// `segments() + 1` entries (`ptr[0] == 1`), `len[k] == ptr[k+1] -
/// ptr[k]`, and `idx`/`val` hold one entry per nonzero in segment
/// order.
#[derive(Clone, Debug)]
pub struct SparseMatrix {
    pub rows: usize,
    pub cols: usize,
    pub layout: Layout,
    /// Offsets: `seg k` (1-based) occupies `idx[ptr[k-1]-1 ..
    /// ptr[k]-1]`.
    pub ptr: Vec<i64>,
    /// Segment lengths (redundant with `ptr`, but the offset–length
    /// kernels read both arrays).
    pub len: Vec<i64>,
    /// 1-based cross indices per nonzero (columns for CRS, rows for
    /// CCS).
    pub idx: Vec<i64>,
    /// Nonzero values, in `(0.1, 1.1]`.
    pub val: Vec<f64>,
}

impl SparseMatrix {
    /// Number of segments (rows for CRS, columns for CCS).
    pub fn segments(&self) -> usize {
        self.len.len()
    }

    /// Actual nonzero count.
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// Fraction of positions holding a nonzero.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
    }

    /// Ratio of the longest segment to the mean segment length — 1.0
    /// for perfectly balanced matrices, large for power-law skew.
    pub fn skew(&self) -> f64 {
        let max = self.len.iter().copied().max().unwrap_or(0) as f64;
        let mean = self.nnz() as f64 / self.segments().max(1) as f64;
        if mean == 0.0 {
            return 1.0;
        }
        max / mean
    }

    /// The strictly-lower-triangular restriction (CRS): keeps only
    /// nonzeros with `idx < segment index`, rebuilding `ptr`/`len`.
    /// Values are rescaled by segment length so forward substitution
    /// stays numerically tame. The result feeds the triangular-solve
    /// kernel.
    pub fn strict_lower(&self) -> SparseMatrix {
        let segs = self.segments();
        let mut ptr = Vec::with_capacity(segs + 1);
        let mut len = Vec::with_capacity(segs);
        let mut idx = Vec::new();
        let mut val = Vec::new();
        ptr.push(1i64);
        for k in 1..=segs {
            let (a, b) = self.segment_range(k);
            let kept: Vec<usize> = (a..b).filter(|&e| self.idx[e] < k as i64).collect();
            let scale = 0.5 / (kept.len().max(1) as f64);
            for &e in &kept {
                idx.push(self.idx[e]);
                val.push(self.val[e].min(1.0) * scale);
            }
            len.push(kept.len() as i64);
            ptr.push(ptr[k - 1] + kept.len() as i64);
        }
        SparseMatrix {
            rows: self.rows,
            cols: self.cols,
            layout: self.layout,
            ptr,
            len,
            idx,
            val,
        }
    }

    /// Zero-based element range `[start, end)` of 1-based segment `k`.
    pub fn segment_range(&self, k: usize) -> (usize, usize) {
        ((self.ptr[k - 1] - 1) as usize, (self.ptr[k] - 1) as usize)
    }
}

/// Generates the matrix described by `spec`. Deterministic in the spec
/// (including its seed). Segment lengths always sum to exactly
/// `spec.nnz`; indices are 1-based and within `[1, cross extent]`.
/// Duplicate indices within a segment are possible for the scattered
/// structures (they are harmless to every kernel and realistic for
/// accumulation workloads).
pub fn generate(spec: &MatrixSpec) -> SparseMatrix {
    let segs = match spec.layout {
        Layout::Crs => spec.rows,
        Layout::Ccs => spec.cols,
    };
    let cross = match spec.layout {
        Layout::Crs => spec.cols,
        Layout::Ccs => spec.rows,
    };
    assert!(
        segs > 0 && cross > 0,
        "matrix must have at least one row and column"
    );
    let mut rng = SplitMix64::new(spec.seed);
    let lengths = segment_lengths(&mut rng, segs, spec.nnz, spec.structure);
    let mut ptr = Vec::with_capacity(segs + 1);
    let mut len = Vec::with_capacity(segs);
    let mut idx = Vec::with_capacity(spec.nnz);
    let mut val = Vec::with_capacity(spec.nnz);
    ptr.push(1i64);
    for (k, &lk) in lengths.iter().enumerate() {
        for _ in 0..lk {
            let j = match spec.structure {
                Structure::Banded { bandwidth } => {
                    // Index within the band around the diagonal position
                    // scaled to the cross extent.
                    let center = if segs == 1 {
                        1
                    } else {
                        1 + (k as u64 * (cross as u64 - 1) / (segs as u64 - 1)) as i64
                    };
                    let w = bandwidth.max(1) as i64;
                    let lo = (center - w).max(1);
                    let hi = (center + w).min(cross as i64);
                    rng.range_i64(lo, hi)
                }
                Structure::Uniform | Structure::PowerLaw => rng.range_i64(1, cross as i64),
            };
            idx.push(j);
            val.push(0.1 + rng.next_f64());
        }
        len.push(lk as i64);
        ptr.push(ptr[k] + lk as i64);
    }
    debug_assert_eq!(*ptr.last().unwrap() as usize, spec.nnz + 1);
    SparseMatrix {
        rows: spec.rows,
        cols: spec.cols,
        layout: spec.layout,
        ptr,
        len,
        idx,
        val,
    }
}

/// Distributes `nnz` nonzeros over `segs` segments according to the
/// structure: balanced (±1) for banded and uniform, Zipf-weighted for
/// power-law. Always sums to exactly `nnz`.
fn segment_lengths(
    rng: &mut SplitMix64,
    segs: usize,
    nnz: usize,
    structure: Structure,
) -> Vec<usize> {
    match structure {
        Structure::Banded { .. } | Structure::Uniform => {
            let base = nnz / segs;
            let extra = nnz % segs;
            // The `extra` remainder entries land on random distinct
            // segments so the boundary is not always the same segment.
            let mut lengths = vec![base; segs];
            let mut bonus: Vec<usize> = (0..segs).collect();
            // Partial Fisher–Yates: pick `extra` distinct positions.
            for i in 0..extra.min(segs) {
                let j = i + rng.range_usize(0, segs - 1 - i);
                bonus.swap(i, j);
                lengths[bonus[i]] += 1;
            }
            lengths
        }
        Structure::PowerLaw => {
            // Zipf-like weights 1/(k+1); then largest-remainder
            // apportionment so the total is exact. The weight ranks are
            // shuffled so the heavy segments are scattered, not always
            // the leading ones.
            let mut ranks: Vec<usize> = (0..segs).collect();
            for i in 0..segs.saturating_sub(1) {
                let j = i + rng.range_usize(0, segs - 1 - i);
                ranks.swap(i, j);
            }
            let weights: Vec<f64> = (0..segs).map(|r| 1.0 / (r + 1) as f64).collect();
            let total: f64 = weights.iter().sum();
            let mut lengths = vec![0usize; segs];
            let mut assigned = 0usize;
            let mut remainders: Vec<(f64, usize)> = Vec::with_capacity(segs);
            for (r, &w) in weights.iter().enumerate() {
                let exact = nnz as f64 * w / total;
                let floor = exact.floor() as usize;
                lengths[ranks[r]] = floor;
                assigned += floor;
                remainders.push((exact - floor as f64, ranks[r]));
            }
            remainders.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            for (_, seg) in remainders.into_iter().take(nnz - assigned) {
                lengths[seg] += 1;
            }
            lengths
        }
    }
}

/// A random permutation of `1..=n` (1-based values), deterministic in
/// the seed — the workload for the injectivity-guarded scatter kernel.
pub fn random_permutation(n: usize, seed: u64) -> Vec<i64> {
    let mut rng = SplitMix64::new(seed);
    let mut perm: Vec<i64> = (1..=n as i64).collect();
    for i in 0..n.saturating_sub(1) {
        let j = i + rng.range_usize(0, n - 1 - i);
        perm.swap(i, j);
    }
    perm
}

/// A random successor map over `1..=n` (each node points at some node),
/// deterministic in the seed — the workload for the pointer-chasing
/// kernel. Not necessarily a permutation.
pub fn random_successors(n: usize, seed: u64) -> Vec<i64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.range_i64(1, n.max(1) as i64)).collect()
}

/// Packs `values` as an integer preset array, padding an empty slice to
/// one zero element (the interpreter rejects zero extents).
pub fn int_array(values: &[i64]) -> ArrayData {
    let data: Vec<i64> = if values.is_empty() {
        vec![0]
    } else {
        values.to_vec()
    };
    let dims = [data.len()].into();
    ArrayData::Int {
        data: data.into(),
        dims,
    }
}

/// Packs `values` as a real preset array, padding an empty slice to one
/// zero element.
pub fn real_array(values: &[f64]) -> ArrayData {
    let data: Vec<f64> = if values.is_empty() {
        vec![0.0]
    } else {
        values.to_vec()
    };
    let dims = [data.len()].into();
    ArrayData::Real {
        data: data.into(),
        dims,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<MatrixSpec> {
        vec![
            MatrixSpec::square(64, 640, Structure::Banded { bandwidth: 8 }, 1),
            MatrixSpec::square(64, 640, Structure::Uniform, 2),
            MatrixSpec::square(64, 640, Structure::PowerLaw, 3),
            MatrixSpec {
                rows: 32,
                cols: 96,
                nnz: 500,
                structure: Structure::Uniform,
                layout: Layout::Ccs,
                seed: 4,
            },
        ]
    }

    #[test]
    fn generation_is_deterministic_and_well_formed() {
        for spec in specs() {
            let m = generate(&spec);
            let m2 = generate(&spec);
            assert_eq!(m.ptr, m2.ptr);
            assert_eq!(m.idx, m2.idx);
            assert_eq!(m.nnz(), spec.nnz, "{spec:?}");
            // Prefix-sum invariant: ptr[k+1] = ptr[k] + len[k], ptr[0]=1.
            assert_eq!(m.ptr[0], 1);
            assert_eq!(m.ptr.len(), m.segments() + 1);
            for k in 0..m.segments() {
                assert_eq!(m.ptr[k + 1], m.ptr[k] + m.len[k], "{spec:?} seg {k}");
                assert!(m.len[k] >= 0);
            }
            let cross = match spec.layout {
                Layout::Crs => spec.cols,
                Layout::Ccs => spec.rows,
            } as i64;
            assert!(m.idx.iter().all(|&j| j >= 1 && j <= cross), "{spec:?}");
            assert!(m.val.iter().all(|&v| v > 0.0 && v <= 1.1 + 1e-12));
        }
    }

    #[test]
    fn banded_indices_stay_in_band() {
        let spec = MatrixSpec::square(100, 1000, Structure::Banded { bandwidth: 5 }, 7);
        let m = generate(&spec);
        for k in 1..=m.segments() {
            let (a, b) = m.segment_range(k);
            for e in a..b {
                assert!((m.idx[e] - k as i64).abs() <= 5, "seg {k} idx {}", m.idx[e]);
            }
        }
    }

    #[test]
    fn power_law_is_skewed_and_uniform_is_not() {
        let pl = generate(&MatrixSpec::square(256, 8192, Structure::PowerLaw, 11));
        let un = generate(&MatrixSpec::square(256, 8192, Structure::Uniform, 11));
        assert!(pl.skew() > 4.0, "power-law skew {}", pl.skew());
        assert!(un.skew() < 1.5, "uniform skew {}", un.skew());
        assert_eq!(pl.nnz(), 8192);
        assert_eq!(un.nnz(), 8192);
    }

    #[test]
    fn edge_matrices_zero_nnz_and_single_row() {
        let zero = generate(&MatrixSpec::square(16, 0, Structure::Uniform, 5));
        assert_eq!(zero.nnz(), 0);
        assert!(zero.len.iter().all(|&l| l == 0));
        assert_eq!(zero.ptr, vec![1; 17]);
        let single = generate(&MatrixSpec {
            rows: 1,
            cols: 64,
            nnz: 10,
            structure: Structure::Banded { bandwidth: 3 },
            layout: Layout::Crs,
            seed: 6,
        });
        assert_eq!(single.segments(), 1);
        assert_eq!(single.len, vec![10]);
        assert_eq!(single.ptr, vec![1, 11]);
    }

    #[test]
    fn strict_lower_keeps_only_below_diagonal() {
        let m = generate(&MatrixSpec::square(64, 1024, Structure::Uniform, 9));
        let l = m.strict_lower();
        for k in 1..=l.segments() {
            let (a, b) = l.segment_range(k);
            for e in a..b {
                assert!(l.idx[e] < k as i64);
            }
            assert_eq!(l.ptr[k], l.ptr[k - 1] + l.len[k - 1]);
        }
        assert_eq!(l.len[0], 0, "row 1 has nothing below the diagonal");
        assert_eq!(l.nnz(), (*l.ptr.last().unwrap() - 1) as usize);
    }

    #[test]
    fn permutation_and_successors() {
        let p = random_permutation(257, 42);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (1..=257).collect::<Vec<i64>>());
        assert_ne!(p, (1..=257).collect::<Vec<i64>>(), "shuffled");
        let s = random_successors(100, 42);
        assert!(s.iter().all(|&x| (1..=100).contains(&x)));
    }

    #[test]
    fn preset_packing_pads_empty() {
        assert_eq!(int_array(&[]).len(), 1);
        assert_eq!(real_array(&[]).len(), 1);
        assert_eq!(int_array(&[3, 4]).dims(), &[2]);
    }
}
