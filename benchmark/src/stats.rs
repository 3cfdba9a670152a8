//! The few order statistics the ledger reports: the best of repeated
//! timings, medians, quartile spread for the noise figures, and the rule
//! that picks which tail percentile a sample is large enough to state.

/// The smallest of `values`: the estimate of a repeated timing on a box
/// where interference only ever adds time. Infinite for no samples.
pub fn best(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), which is
/// what the acceptance check of the run-to-run spread uses. Needs at least
/// two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        // Position i*(n+1)/4 in 1-based order statistics, clamped to the
        // sample and interpolated linearly.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median (0 for fewer than two
/// samples or a zero median).
pub fn iqr_frac(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m
    }
}

/// [`iqr_frac`] of several groups of repeated timings pooled, each sample
/// over the median of its own group, so that groups of different
/// magnitude (a BT step and a CG step) share one scale.
pub fn pooled_iqr_frac(groups: &[Vec<f64>]) -> f64 {
    let pool: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .flat_map(|g| {
            let m = median(g);
            g.iter().map(move |x| x / m)
        })
        .collect();
    iqr_frac(&pool)
}

/// Sum of the odd-indexed over the sum of the even-indexed values, minus
/// one: the tracing overhead of a run whose odd rounds are traced. `None`
/// without one of each.
pub fn odd_over_even(values: &[f64]) -> Option<f64> {
    let sum = |parity: usize| -> f64 { values.iter().skip(parity).step_by(2).sum() };
    (values.len() >= 2 && sum(0) > 0.0).then(|| sum(1) / sum(0) - 1.0)
}

/// Nearest-rank percentile `p` (0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it in a sample of `n`, or `None` when even p50 has not.
/// 400 samples support p95 (20 beyond), 200 support p95 (10), 1000 support
/// p99 (10).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // Per mille, so that the count beyond is exact integer arithmetic.
    [999usize, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|p| n * (1000 - p) / 1000 >= 10)
        .map(|p| p as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_is_the_minimum() {
        assert_eq!(best(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(best(&[]), f64::INFINITY);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 22.5]
        let (q1, q3) = quartiles(&[10.0, 20.0]);
        assert!((q1 - 7.5).abs() < 1e-12 && (q3 - 22.5).abs() < 1e-12);
    }

    #[test]
    fn iqr_frac_is_spread_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_frac(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_frac(&[5.0]), 0.0);
        assert_eq!(iqr_frac(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn pooled_spread_puts_groups_on_one_scale() {
        // Two groups with the same relative spread at different magnitudes
        // pool to that spread; an empty group is ignored.
        let a: Vec<f64> = (1..=10).map(f64::from).collect();
        let b: Vec<f64> = a.iter().map(|x| x * 1000.0).collect();
        let one = pooled_iqr_frac(std::slice::from_ref(&a));
        assert!((one - iqr_frac(&a)).abs() < 1e-12);
        let both = pooled_iqr_frac(&[a, b, vec![]]);
        assert!((both - 0.9).abs() < 0.2, "{both}");
        assert_eq!(pooled_iqr_frac(&[]), 0.0);
    }

    #[test]
    fn tracing_overhead_is_odd_rounds_over_even_rounds() {
        assert_eq!(odd_over_even(&[2.0, 3.0]), Some(0.5));
        assert_eq!(odd_over_even(&[1.0, 2.0, 3.0, 2.0]), Some(0.0));
        assert_eq!(odd_over_even(&[1.0]), None);
        assert_eq!(odd_over_even(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[9.0], 95.0), 9.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(400), Some(95.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
    }
}
