//! Order statistics over timing samples.

/// Percentile levels tried for a tail, highest first.
const TAIL_LEVELS: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A tail needs this many samples above it before it is reported.
const SAMPLES_BEYOND: usize = 10;

/// Sorts samples ascending. Timing samples are never NaN.
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Nearest-rank percentile of ascending `sorted`: the smallest sample
/// with at least `pct` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), pct) - 1]
}

/// One-based nearest rank of `pct` among `n` samples. The product is
/// nudged down before rounding up: 99.9% of 10 000 is 9990, not the
/// 9990.000000000002 floating point makes of it.
fn rank(n: usize, pct: f64) -> usize {
    ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest of the fixed percentile levels that still has at least
/// ten samples beyond it, with its value; `None` below twenty samples.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    TAIL_LEVELS
        .iter()
        .find(|&&pct| n - rank(n, pct) >= SAMPLES_BEYOND)
        .map(|&pct| (pct, percentile(sorted, pct)))
}

/// Median of ascending `sorted` (mean of the middle pair when even).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of samples in any order.
pub fn median_of(samples: &[f64]) -> f64 {
    median(&sorted(samples.to_vec()))
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method),
/// so spreads printed here match the ones the acceptance run computes.
/// A single sample is its own quartiles.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let m = sorted.len();
    assert!(m > 0, "quartiles of an empty sample");
    if m == 1 {
        return (sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = ramp(100);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        // 7 samples: p50 → ceil(3.5) = rank 4.
        assert_eq!(percentile(&ramp(7), 50.0), 4.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 999 samples: rank(99) = 990 leaves 9 beyond → falls to p95.
        assert_eq!(tail(&ramp(999)).map(|t| t.0), Some(95.0));
        assert_eq!(tail(&ramp(10_000)).map(|t| t.0), Some(99.9));
        // 150 withdraws: p90 leaves 15 beyond, p95 only 7.
        assert_eq!(tail(&ramp(150)), Some((90.0, 135.0)));
        // 20 samples: only the median qualifies; 19: nothing does.
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&ramp(2)), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }
}
