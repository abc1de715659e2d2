//! Order statistics the ledger reports: medians, quartiles, the percentile
//! rule, and the run-to-run spread.

/// The median of `values` (mean of the middle pair for even counts).
/// `NaN` for an empty slice, which callers count as a failed measurement.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), p).clamp(1, v.len()) - 1]
}

/// The highest of the percentiles the ledger reports that still has at
/// least ten samples beyond it — the rule that decides whether a tail
/// figure is a measurement or an anecdote. `None` below 40 samples, where
/// only the median qualifies.
pub fn highest_percentile(samples: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| samples_beyond(samples, *p) >= 10)
}

/// Samples strictly beyond nearest-rank percentile `p` among `samples`.
pub fn samples_beyond(samples: usize, p: f64) -> usize {
    samples - nearest_rank(samples, p).min(samples)
}

/// `ceil(p% of samples)`, forgiving the last-bit float error that would
/// otherwise push an exact product such as 99.9% of 10 000 up a rank.
fn nearest_rank(samples: usize, p: f64) -> usize {
    (p * samples as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// First, second and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method) — the
/// same rule the driver applies to a set of runs. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Run-to-run spread: the inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_order_free_and_splits_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_rule_wants_ten_samples_beyond() {
        // 240 samples: 24 lie beyond p90, 12 beyond p95, 3 beyond p99.
        assert_eq!(samples_beyond(240, 90.0), 24);
        assert_eq!(highest_percentile(240), Some(95.0));
        // 100 samples: exactly 10 beyond p90.
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(99), Some(75.0));
        assert_eq!(highest_percentile(40), Some(75.0));
        assert_eq!(highest_percentile(39), None);
        assert_eq!(highest_percentile(1001), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            Some([15.0, 40.0, 120.0])
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }
}
