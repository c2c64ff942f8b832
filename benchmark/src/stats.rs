//! Sample statistics: medians, percentiles, the tail-percentile rule
//! and the quartile spread the regression bounds are judged against.

/// Sorts `v` in place (NaN-free input) and returns it for chaining.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median of the samples; 0.0 for an empty set.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of already sorted samples (`pct` in 0..=100).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// Nearest rank (1-based) of the `pct` percentile among `n >= 1`
/// samples, in per-mille integer arithmetic so 99.9 % of 10 000 is
/// rank 9 990 exactly.
fn rank(n: usize, pct: f64) -> usize {
    let per_mille = (pct * 10.0).round() as usize;
    (n * per_mille).div_ceil(1000).clamp(1, n)
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it, or `None` when even the median has fewer (a tail
/// read off fewer than ten samples is one slow job, not a percentile).
pub fn tail_percentile(n: usize) -> Option<f64> {
    const CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
    if n == 0 {
        return None;
    }
    CANDIDATES.into_iter().find(|&p| n - rank(n, p) >= 10)
}

/// `(pct, value)` of the tail percentile chosen by [`tail_percentile`];
/// `(0, median)` when no percentile qualifies.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    match tail_percentile(samples.len()) {
        Some(p) => (p, percentile(&sorted(samples.to_vec()), p)),
        None => (0.0, median(samples)),
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them; needs at least two samples.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v.to_vec());
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let q = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median; 0.0 when there are
/// too few samples to have one.
pub fn spread(v: &[f64]) -> f64 {
    let m = median(v);
    match quartiles(v) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None, "p50 of 19 leaves only 9 beyond");
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(
            tail_percentile(199),
            Some(90.0),
            "p95 of 199 leaves 9 beyond"
        );
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn tail_reads_the_chosen_percentile() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&samples), (95.0, 190.0));
        let few: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&few), (0.0, 3.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_and_percentile_basics() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s = sorted(vec![5.0, 1.0, 3.0]);
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
    }
}
