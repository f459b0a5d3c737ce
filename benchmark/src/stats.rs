//! Order statistics the report is built from: medians over run segments,
//! the percentile rule of the metrics guide, and the quartile spread the
//! driver judges steadiness by.

/// Median of `v` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one segment.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Samples a percentile must leave beyond itself before it may be quoted.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (`0 < p < 1`) by nearest rank, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it — p90 needs 100
/// samples, p99 needs 1000.
pub fn percentile(v: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile wants 0 < p < 1");
    let n = v.len();
    let rank = (p * n as f64).ceil() as usize; // 1-based nearest rank
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank - 1])
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them; `None` below two samples.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let n = v.len();
    if n < 2 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |i: usize| {
        let j = (i * (n + 1)) / 4;
        let j = j.clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median — the spread the driver
/// holds against a metric's bound. 0 below two samples or at a zero median.
pub fn iqr_share(v: &[f64]) -> f64 {
    match quartiles(v) {
        Some((q1, q3)) => {
            let m = median(v);
            if m == 0.0 {
                0.0
            } else {
                (q3 - q1).abs() / m.abs()
            }
        }
        None => 0.0,
    }
}

/// Split `0..n` into at most `parts` contiguous ranges of near-equal
/// length (the first `n % parts` ranges are one longer). Segments are how
/// a run reports a median and its own noise.
pub fn segments(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.min(n).max(1);
    let (base, extra) = (n / parts, n % parts);
    let mut out = Vec::with_capacity(parts);
    let mut at = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(at..at + len);
        at += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p90_is_refused_below_a_hundred_samples() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(
            percentile(&v, 0.9),
            None,
            "99 samples leave only 9 beyond p90"
        );
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            percentile(&v, 0.9),
            Some(90.0),
            "100 samples leave exactly 10"
        );
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), None, "p99 wants a thousand");
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 22.5)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), Some((1.5, 12.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0]), 0.0);
        assert_eq!(iqr_share(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn segments_cover_everything_once() {
        let s = segments(12, 5);
        assert_eq!(s, vec![0..3, 3..6, 6..8, 8..10, 10..12]);
        assert_eq!(segments(3, 5), vec![0..1, 1..2, 2..3]);
        assert_eq!(segments(1, 5), vec![0..1]);
    }
}
