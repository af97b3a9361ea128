//! The benchmark's own statistics: medians, quartiles, tail percentiles
//! that the sample supports, and the failure fraction.

/// Sorted copy of `values` (NaNs sort last and never occur in practice).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; the mean of the middle two for an even count.
/// `None` when there are no values.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spreads this benchmark reports match the ones its acceptance
/// check computes. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the run-to-run spread
/// a bound is compared against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    Some(v[rank(v.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` in `n` sorted samples. The
/// epsilon keeps decimal percentiles such as 99.9 from rounding up a rank
/// (99.9 / 100 × 10 000 is 9990.000000000002 in binary floating point).
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples that lie beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Tail percentiles the benchmark reports, lowest first.
pub const TAIL_PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest of [`TAIL_PERCENTILES`] that has at least `min_beyond`
/// samples beyond it in a sample of `n`, or `None` when even the median
/// does not.
pub fn highest_supported_percentile(n: usize, min_beyond: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= min_beyond)
}

/// Failed operations as a share of attempted ones (0 when none were
/// attempted, which the benchmark reports as a failure by itself).
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from `statistics.quantiles(data, n=4)`.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        assert_eq!(
            quartiles(&[10.0, 12.0, 11.0, 30.0, 13.0]),
            Some([10.5, 12.0, 21.5])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0; 6]), Some(0.0));
        assert_eq!(spread(&[0.0; 4]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(percentile(&hundred, 99.0), Some(99.0));
        assert_eq!(percentile(&[4.0, 1.0, 3.0], 90.0), Some(4.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn highest_percentile_with_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19, 10), None);
        assert_eq!(highest_supported_percentile(20, 10), Some(50.0));
        assert_eq!(highest_supported_percentile(99, 10), Some(50.0));
        assert_eq!(highest_supported_percentile(100, 10), Some(90.0));
        assert_eq!(highest_supported_percentile(999, 10), Some(90.0));
        assert_eq!(highest_supported_percentile(1000, 10), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000, 10), Some(99.9));
    }

    #[test]
    fn failed_fraction() {
        assert_eq!(failed_frac(0, 120), 0.0);
        assert_eq!(failed_frac(3, 12), 0.25);
        assert_eq!(failed_frac(0, 0), 0.0);
    }
}
