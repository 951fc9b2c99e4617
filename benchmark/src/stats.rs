//! Order statistics and the regression rule, shared by single runs (median
//! over slices and reps) and by the suite (spread over seeds).

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `ratio` for counts: per-call means, per-transaction rates, shares.
pub fn per(num: u64, den: u64) -> f64 {
    ratio(num as f64, den as f64)
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default exclusive method) gives
/// them — the driver computes spreads with that function.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    assert!(v.len() >= 2, "quartiles need two values");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let ld = s.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median:
/// the run-to-run spread the driver holds against a metric's bound.
pub fn spread(v: &[f64]) -> f64 {
    let med = median(v);
    if v.len() < 2 || med == 0.0 {
        return 0.0;
    }
    let q = quartiles(v);
    (q[2] - q[0]) / med.abs()
}

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n >= 1` samples
/// (the epsilon keeps `0.99 * 1000` from rounding up to rank 991).
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Mean of the slowest `share` of an ascending slice (at least one sample);
/// 0 when empty. Unlike a percentile of quantised virtual latencies it
/// never repeats exactly from seed to seed.
pub fn mean_of_slowest(sorted: &[u64], share: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = ((sorted.len() as f64 * share).round() as usize).clamp(1, sorted.len());
    let slowest = &sorted[sorted.len() - n..];
    slowest.iter().sum::<u64>() as f64 / n as f64
}

/// The highest of p90 / p99 / p99.9 that still has at least ten samples
/// beyond it, as `(percent, value, samples_beyond)`. Falls back to p90 when
/// even that is thinly supported (the count says so).
pub fn tail(sorted: &[u64]) -> (f64, u64, usize) {
    let n = sorted.len();
    let mut pick = (90.0, percentile(sorted, 0.90), beyond(n, 0.90));
    for (p, percent) in [(0.99, 99.0), (0.999, 99.9)] {
        if beyond(n, p) >= 10 {
            pick = (percent, percentile(sorted, p), beyond(n, p));
        }
    }
    pick
}

/// By what share of the parent's median the change's median is worse
/// (negative when it is better). `higher_is_better` flips the direction.
pub fn worse_by(parent: f64, change: f64, higher_is_better: bool) -> f64 {
    if parent == 0.0 {
        return 0.0;
    }
    let delta = if higher_is_better {
        parent - change
    } else {
        change - parent
    };
    delta / parent.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        // p99 leaves 10 beyond, p99.9 leaves 1.
        assert_eq!(tail(&v), (99.0, 990, 10));
        let v: Vec<u64> = (1..=20_000).collect();
        assert_eq!(tail(&v), (99.9, 19_980, 20));
        let v: Vec<u64> = (1..=50).collect();
        assert_eq!(tail(&v), (90.0, 45, 5));
        assert_eq!(tail(&[]), (90.0, 0, 0));
    }

    #[test]
    fn mean_of_slowest_takes_the_top_share() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(mean_of_slowest(&v, 0.05), 98.0);
        assert_eq!(mean_of_slowest(&[7], 0.05), 7.0);
        assert_eq!(mean_of_slowest(&[], 0.05), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [10, 20, 30, 40];
        assert_eq!(percentile(&v, 0.5), 20);
        assert_eq!(percentile(&v, 0.75), 30);
        assert_eq!(percentile(&v, 1.0), 40);
        assert_eq!(percentile(&v, 0.0), 10);
    }

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 5.0, false), 0.0);
    }
}
