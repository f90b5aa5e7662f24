//! Sample statistics: a streaming [`Summary`], exact [`Percentiles`] for
//! the serving layer's latency tails, and [`arithmetic_mean`] for Fig. 8's
//! averages over the `[prefill:decode]` grid.

use std::fmt;

/// Streaming mean/min/max accumulator for scalar samples.
///
/// # Example
///
/// ```
/// use looplynx_sim::stats::Summary;
///
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.add(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.min(), Some(1.0));
/// assert_eq!(s.max(), Some(3.0));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    pub fn add(&mut self, x: f64) {
        assert!(x.is_finite(), "non-finite sample: {x}");
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of the samples, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            write!(f, "no samples")
        } else {
            write!(
                f,
                "n={} mean={:.3} min={:.3} max={:.3}",
                self.count,
                self.mean(),
                self.min,
                self.max
            )
        }
    }
}

/// Exact-sorted sample set with percentile queries — the
/// percentile-capable variant of [`Summary`] used by the serving layer
/// for TTFT/TPOT/end-to-end latency tails.
///
/// Samples are kept fully sorted (insertion is `O(n)`), so every
/// percentile is exact rather than estimated; the workloads this repo
/// simulates produce at most a few thousand samples, where exactness is
/// worth more than a reservoir's constant memory.
///
/// # Example
///
/// ```
/// use looplynx_sim::stats::Percentiles;
///
/// let mut p = Percentiles::new();
/// for x in 1..=100 {
///     p.add(x as f64);
/// }
/// assert_eq!(p.percentile(50.0), Some(50.0));
/// assert_eq!(p.p99(), Some(99.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Percentiles {
    sorted: Vec<f64>,
}

impl Percentiles {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Percentiles { sorted: Vec::new() }
    }

    /// Adds one sample, keeping the set sorted.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    pub fn add(&mut self, x: f64) {
        assert!(x.is_finite(), "non-finite sample: {x}");
        let at = self.sorted.partition_point(|&s| s < x);
        self.sorted.insert(at, x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.sorted.len() as u64
    }

    /// Whether no sample has been added yet.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Mean of the samples, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }

    /// Smallest sample, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest sample, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Exact nearest-rank percentile: the smallest sample such that at
    /// least `p` percent of all samples are ≤ it. `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.sorted.is_empty() {
            return None;
        }
        let n = self.sorted.len();
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        Some(self.sorted[rank - 1])
    }

    /// Median (50th percentile), `None` when empty.
    pub fn p50(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// 95th percentile, `None` when empty.
    pub fn p95(&self) -> Option<f64> {
        self.percentile(95.0)
    }

    /// 99th percentile, `None` when empty.
    pub fn p99(&self) -> Option<f64> {
        self.percentile(99.0)
    }

    /// Collapses the samples into a streaming [`Summary`] (count, mean,
    /// min, max).
    pub fn summary(&self) -> Summary {
        let mut s = Summary::new();
        for &x in &self.sorted {
            s.add(x);
        }
        s
    }
}

impl fmt::Display for Percentiles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sorted.is_empty() {
            write!(f, "no samples")
        } else {
            write!(
                f,
                "n={} mean={:.3} p50={:.3} p95={:.3} p99={:.3} max={:.3}",
                self.count(),
                self.mean(),
                self.p50().expect("non-empty"),
                self.p95().expect("non-empty"),
                self.p99().expect("non-empty"),
                self.max().expect("non-empty"),
            )
        }
    }
}

/// Arithmetic mean; returns `None` for an empty slice.
pub fn arithmetic_mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_empty() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.to_string(), "no samples");
    }

    #[test]
    fn summary_tracks_extremes() {
        let mut s = Summary::new();
        for x in [4.0, -1.0, 7.5] {
            s.add(x);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.min(), Some(-1.0));
        assert_eq!(s.max(), Some(7.5));
        assert!((s.mean() - 3.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn summary_rejects_nan() {
        Summary::new().add(f64::NAN);
    }

    #[test]
    fn percentiles_empty() {
        let p = Percentiles::new();
        assert!(p.is_empty());
        assert_eq!(p.p50(), None);
        assert_eq!(p.mean(), 0.0);
        assert_eq!(p.to_string(), "no samples");
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let mut p = Percentiles::new();
        // insert out of order to exercise the sorted insert
        for x in [5.0, 1.0, 4.0, 2.0, 3.0] {
            p.add(x);
        }
        assert_eq!(p.count(), 5);
        assert_eq!(p.min(), Some(1.0));
        assert_eq!(p.max(), Some(5.0));
        assert_eq!(p.percentile(0.0), Some(1.0));
        assert_eq!(p.p50(), Some(3.0));
        assert_eq!(p.percentile(100.0), Some(5.0));
        // with 5 samples, p95 and p99 both resolve to the maximum
        assert_eq!(p.p95(), Some(5.0));
        assert_eq!(p.p99(), Some(5.0));
        assert!((p.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_match_summary() {
        let mut p = Percentiles::new();
        for x in [4.0, -1.0, 7.5] {
            p.add(x);
        }
        let s = p.summary();
        assert_eq!(s.count(), 3);
        assert_eq!(s.min(), Some(-1.0));
        assert_eq!(s.max(), Some(7.5));
        assert!((s.mean() - p.mean()).abs() < 1e-12);
    }

    #[test]
    fn percentiles_are_monotone_in_p() {
        let mut p = Percentiles::new();
        for i in 0..200 {
            p.add((i * 37 % 101) as f64);
        }
        let mut last = f64::NEG_INFINITY;
        for q in [0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
            let v = p.percentile(q).unwrap();
            assert!(v >= last, "percentile({q}) regressed: {v} < {last}");
            last = v;
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn percentiles_reject_nan() {
        Percentiles::new().add(f64::NAN);
    }

    #[test]
    fn arithmetic_mean_basic() {
        assert!((arithmetic_mean(&[1.0, 2.0, 3.0]).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(arithmetic_mean(&[]), None);
    }
}
