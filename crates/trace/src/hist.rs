//! Power-of-two latency histogram.
//!
//! The solver session records per-check solve latencies here; the
//! metrics writer serialises the non-empty buckets. Buckets are
//! `[2^i, 2^{i+1})` nanoseconds for `i` in `0..32` (the last bucket
//! absorbs everything ≥ 2^31 ns ≈ 2.1 s), which keeps the struct
//! `Copy`-sized and mergeable with plain saturating adds — important
//! because per-worker `SolverStats` are folded in chunk order.

/// Number of power-of-two buckets.
pub const BUCKETS: usize = 32;

/// A fixed-size power-of-two histogram of nanosecond durations.
///
/// Bucket `i` counts samples in `[2^i, 2^{i+1})` ns; a sample of 0 ns
/// lands in bucket 0. All arithmetic saturates, so merging partial
/// histograms from workers can never wrap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket(ns: u64) -> usize {
        (63 - u64::leading_zeros(ns.max(1)) as usize).min(BUCKETS - 1)
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] = self.counts[Self::bucket(ns)].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Folds `other` into `self` (saturating).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ..= 1.0`); 0 when empty. A bucket upper bound, not an
    /// interpolated value — good enough for a profile report.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(*c);
            if seen >= rank {
                return Self::bucket_bounds(i).1;
            }
        }
        Self::bucket_bounds(BUCKETS - 1).1
    }

    /// `(lo, hi)` nanosecond bounds of bucket `i`: `[lo, hi)`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        let lo = if i == 0 { 0 } else { 1u64 << i };
        let hi = if i + 1 >= 64 {
            u64::MAX
        } else {
            1u64 << (i + 1)
        };
        (lo, hi)
    }

    /// All per-bucket counts, low bucket first. Bucket `i` counts
    /// samples in [`Histogram::bucket_bounds`]`(i)`; the Prometheus
    /// renderer turns these into cumulative `_bucket` series.
    pub fn counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// The samples recorded since `earlier` (an older snapshot of the
    /// same histogram), bucket-wise. Counters only grow, so a
    /// saturating subtraction is exact for genuine snapshots and
    /// clamps at zero if the baseline is from another histogram.
    pub fn since(&self, earlier: &Histogram) -> Histogram {
        let mut out = *self;
        for (a, b) in out.counts.iter_mut().zip(earlier.counts.iter()) {
            *a = a.saturating_sub(*b);
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.sum_ns = self.sum_ns.saturating_sub(earlier.sum_ns);
        out
    }

    /// Non-empty buckets as `(lo_ns, hi_ns, count)`, low to high.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| {
                let (lo, hi) = Self::bucket_bounds(i);
                (lo, hi, *c)
            })
            .collect()
    }

    /// JSON array of the non-empty buckets:
    /// `[{"lo_ns":..,"hi_ns":..,"count":..}, ...]`.
    pub fn to_json(&self) -> String {
        crate::json::array(|a| {
            for (lo, hi, c) in self.nonzero_buckets() {
                a.object(|o| {
                    o.field("lo_ns", lo).field("hi_ns", hi).field("count", c);
                });
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_power_of_two() {
        let mut h = Histogram::new();
        h.record(0); // bucket 0: [0, 2)
        h.record(1); // bucket 0
        h.record(2); // bucket 1: [2, 4)
        h.record(3); // bucket 1
        h.record(4); // bucket 2
        h.record(1023); // bucket 9
        h.record(1024); // bucket 10
        assert_eq!(
            h.nonzero_buckets(),
            vec![
                (0, 2, 2),
                (2, 4, 2),
                (4, 8, 1),
                (512, 1024, 1),
                (1024, 2048, 1),
            ]
        );
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum_ns(), 1 + 2 + 3 + 4 + 1023 + 1024);
    }

    #[test]
    fn huge_samples_clamp_to_last_bucket() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].0, 1u64 << 31);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = Histogram::new();
        a.record(3);
        a.record(100);
        let mut b = Histogram::new();
        b.record(3);
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.sum_ns(), 106);
        let by_hand = {
            let mut h = Histogram::new();
            h.record(3);
            h.record(100);
            h.record(3);
            h
        };
        assert_eq!(merged, by_hand);
    }

    #[test]
    fn merge_saturates() {
        let mut a = Histogram::new();
        a.record(1);
        a.sum_ns = u64::MAX;
        a.count = u64::MAX;
        let mut b = Histogram::new();
        b.record(1);
        a.merge(&b);
        assert_eq!(a.count(), u64::MAX);
        assert_eq!(a.sum_ns(), u64::MAX);
    }

    #[test]
    fn quantiles_hit_bucket_upper_bounds() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(10); // bucket 3: [8, 16)
        }
        for _ in 0..10 {
            h.record(1000); // bucket 9: [512, 1024)
        }
        assert_eq!(h.quantile(0.5), 16);
        assert_eq!(h.quantile(0.99), 1024);
        assert_eq!(h.mean_ns(), (90 * 10 + 10 * 1000) / 100);
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn json_lists_nonzero_buckets() {
        let mut h = Histogram::new();
        h.record(5);
        assert_eq!(h.to_json(), "[{\"lo_ns\":4,\"hi_ns\":8,\"count\":1}]");
        assert_eq!(Histogram::new().to_json(), "[]");
    }
}
