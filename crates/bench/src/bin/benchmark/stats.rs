//! Percentile, median-of-reps and spread helpers.

/// Samples a percentile needs beyond it before it is worth reporting.
pub const MIN_BEYOND: usize = 10;

/// Exact nearest-rank percentile of `samples` (any order): the smallest
/// sample with at least `p` percent of all samples at or below it.
/// `None` when there are no samples.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or a sample is NaN.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n ≥ 1` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond percentile `p` of `n` samples; a percentile
/// with fewer than [`MIN_BEYOND`] is too thin to report.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// [`percentile`], or 0 when there are no samples — the form result lines
/// need, where every metric is a number.
pub fn percentile_or_zero(samples: &[f64], p: f64) -> f64 {
    percentile(samples, p).unwrap_or(0.0)
}

/// Median of per-rep values: the middle one, or the mean of the middle
/// two. `None` when there are no values.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("values are not NaN"));
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// `(max − min) / median` of per-rep values; 0 for fewer than two values
/// or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    let Some(mid) = median(values) else {
        return 0.0;
    };
    if values.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / mid
}

/// `num / den`, or 0 when the denominator is not positive — the form
/// result lines need, where every metric is a finite number.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_on_unsorted_input() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
    }

    #[test]
    fn empty_samples_have_no_percentile() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile_or_zero(&[], 90.0), 0.0);
        assert_eq!(samples_beyond(0, 90.0), 0);
        assert_eq!(median(&[]), None);
        assert_eq!(spread(&[]), 0.0);
    }

    #[test]
    fn p90_of_104_samples_has_ten_beyond_and_of_99_too_few() {
        assert_eq!(samples_beyond(104, 90.0), 10);
        assert!(samples_beyond(99, 90.0) < MIN_BEYOND);
        assert_eq!(samples_beyond(20, 90.0), 2);
        assert_eq!(samples_beyond(20, 50.0), 10);
    }

    #[test]
    fn median_of_reps_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[5.0]), Some(5.0));
    }

    #[test]
    fn spread_is_range_over_median() {
        assert!((spread(&[9.0, 10.0, 12.0]) - 0.3).abs() < 1e-12);
        assert_eq!(spread(&[10.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
    }
}
