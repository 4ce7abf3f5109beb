//! Order statistics over timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), because that is what the acceptance check of the
//! benchmark uses for its spread: the repeat check here and the check
//! outside must agree on what "the distance between the quartiles" is.

/// Sorts samples ascending. Timings are never NaN.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    v
}

/// The `p`-quantile (`0.0..=1.0`) of an ascending slice, linearly
/// interpolated between the two nearest ranks. Empty input gives 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The median of an ascending slice.
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 0.5)
}

/// The median of samples in any order.
pub fn median_of(samples: &[f64]) -> f64 {
    median(&sorted(samples.to_vec()))
}

/// `(q1, q2, q3)` of an ascending slice by the exclusive method:
/// quartile `k` sits at rank `k·(n+1)/4`, interpolated between (or, at
/// the ends, extrapolated from) the two nearest samples exactly as
/// Python does. Fewer than two samples give the sample (or 0) three
/// times.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let at = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// Latencies in nanoseconds in buckets a 256th of their value wide:
/// the memory a run spends on recording requests is the same however
/// many it serves, so `peak_rss_mb` measures the service and not the
/// log. Values below 512 ns are exact.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    const SUB_BITS: u32 = 8;

    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; ((64 - Self::SUB_BITS as usize) + 1) << Self::SUB_BITS],
            total: 0,
        }
    }

    fn index(ns: u64) -> usize {
        let octave = (63 - ns.max(1).leading_zeros()).max(Self::SUB_BITS);
        let shift = octave - Self::SUB_BITS;
        (((octave - Self::SUB_BITS) as usize) << Self::SUB_BITS) + (ns >> shift) as usize
    }

    /// `(lowest value, width)` of bucket `i`.
    fn bucket(i: usize) -> (u64, u64) {
        let per = 1usize << Self::SUB_BITS;
        if i < 2 * per {
            return (i as u64, 1);
        }
        let shift = (i / per - 1) as u32;
        (((per + i % per) as u64) << shift, 1 << shift)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// The `p`-quantile in nanoseconds, interpolated inside its bucket.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = p.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && rank < (below + c) as f64 {
                let (lo, width) = Self::bucket(i);
                let inside = (rank - below as f64 + 0.5) / c as f64;
                return lo as f64 + (width - 1) as f64 * inside.min(1.0);
            }
            below += c;
        }
        unreachable!("rank lies below the total count")
    }
}

/// Median, quartiles and count of one timed item.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples.to_vec());
        let (q1, median, q3) = quartiles(&s);
        Summary {
            n: s.len(),
            median,
            q1,
            q3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 0.5), 30.0);
        assert_eq!(percentile(&s, 1.0), 50.0);
        assert_eq!(percentile(&s, 0.125), 15.0);
        assert_eq!(percentile(&s, 0.9), 46.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2], n=4) == [1, 3, 5]
        let s = sorted(vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]);
        assert_eq!(quartiles(&s), (1.0, 3.0, 5.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn summary_is_median_and_quartiles() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (3, 1.0, 2.0, 3.0));
    }

    #[test]
    fn histogram_buckets_tile_the_range() {
        // Every value lands in the bucket that contains it, buckets are
        // contiguous, and none is wider than a 256th of its values.
        let mut next = 0;
        for i in 0..Histogram::new().counts.len() - 256 {
            let (lo, width) = Histogram::bucket(i);
            assert_eq!(lo, next, "bucket {i}");
            assert_eq!(Histogram::index(lo), i);
            assert_eq!(Histogram::index(lo + width - 1), i);
            assert!(width == 1 || width * 256 <= lo);
            next = lo + width;
        }
        assert!(Histogram::index(u64::MAX) < Histogram::new().counts.len());
    }

    #[test]
    fn histogram_percentiles_track_the_exact_ones() {
        let values: Vec<f64> = (0..10_000).map(|i| 3_000.0 + 17.0 * f64::from(i)).collect();
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        for (i, v) in values.iter().enumerate() {
            if i % 2 == 0 { &mut a } else { &mut b }.record(*v as u64);
        }
        a.merge(&b);
        assert_eq!(a.len(), 10_000);
        for p in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
            let (exact, got) = (percentile(&values, p), a.percentile(p));
            assert!(
                (got - exact).abs() <= exact / 200.0,
                "p{p}: {got} vs {exact}"
            );
        }
        assert_eq!(Histogram::new().percentile(0.5), 0.0);
        let mut one = Histogram::new();
        one.record(300);
        assert_eq!(one.percentile(0.99), 300.0);
    }
}
