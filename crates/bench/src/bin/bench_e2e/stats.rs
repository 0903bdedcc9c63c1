//! Order statistics for the ledger: medians, quartiles and tail percentiles.
//!
//! Two rules from the metrics guide live here. A timing is reported as a
//! median with the quartiles beside it (the driver judges run-to-run spread
//! by the same `statistics.quantiles(values, n=4)` rule, so [`quartiles`]
//! reproduces Python's default "exclusive" method exactly). A tail percentile
//! is only reported when at least [`MIN_BEYOND`] samples lie beyond it —
//! [`percentile_checked`] refuses otherwise.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// An ascending copy, for the `*_sorted` functions.
pub fn ascending(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median (mean of the two middle values for an even count); 0 for an
/// empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = ascending(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)` gives
/// them (the "exclusive" method). A sample of one is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = ascending(values);
    let m = v.len();
    match m {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| -> f64 {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile of an ascending sample (`q` in `[0, 1]`).
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// How many samples lie strictly beyond the nearest-rank `q` percentile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    n - rank
}

/// The `q` percentile, or `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond it (the sample does not support that percentile).
pub fn percentile_checked(sorted: &[f64], q: f64) -> Option<f64> {
    (samples_beyond(sorted.len(), q) >= MIN_BEYOND).then(|| percentile_sorted(sorted, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, med, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((med - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, med, q3) = quartiles(&[40.0, 10.0, 20.0]);
        assert_eq!((q1, med, q3), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, med, q3) = quartiles(&[1.0, 2.0]);
        assert_eq!((q1, med, q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200 → rank 190, 10 beyond: supported, exactly.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(percentile_checked(&v, 0.95), Some(190.0));
        // p99 of 200 → rank 198, 2 beyond: refused.
        assert_eq!(percentile_checked(&v, 0.99), None);
        assert_eq!(percentile_checked(&v[..199], 0.95), None);
    }

    #[test]
    fn nearest_rank_edges() {
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        assert_eq!(percentile_sorted(&[7.0], 0.0), 7.0);
        assert_eq!(percentile_sorted(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(percentile_sorted(&[1.0, 2.0, 3.0, 4.0], 1.0), 4.0);
    }
}
