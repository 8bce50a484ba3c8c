//! The integer latency histogram behind the per-tenant QoS metrics.

/// Number of fixed-width buckets in a [`LatencyHistogram`].
pub const LATENCY_BUCKETS: usize = 512;
/// Width of each [`LatencyHistogram`] bucket in cycles.
pub const LATENCY_BUCKET_CYCLES: u64 = 128;

/// A fixed-bucket integer histogram for per-request latencies (cycles).
///
/// The accumulator is all-integer, so two runs that observe the same
/// latencies produce **byte-identical** histograms — the property the
/// per-tenant determinism tests (serial vs pooled executor, event vs
/// reference stepper) assert on. The layout is fixed at
/// [`LATENCY_BUCKETS`] buckets of [`LATENCY_BUCKET_CYCLES`] cycles each
/// (bucket `i` covers `[i*W, (i+1)*W)`); anything beyond the last edge lands
/// in a dedicated overflow bucket whose percentile estimate falls back to
/// the exact maximum. Exact min/max/sum ride along so the mean and the
/// distribution extremes stay bucket-error-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; LATENCY_BUCKETS],
            overflow: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one latency sample (cycles).
    pub fn record(&mut self, cycles: u64) {
        self.count += 1;
        self.sum += cycles;
        self.min = self.min.min(cycles);
        self.max = self.max.max(cycles);
        let idx = (cycles / LATENCY_BUCKET_CYCLES) as usize;
        if idx < self.buckets.len() {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (cycles).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Samples beyond the bucketed range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Arithmetic mean in cycles (0 for an empty histogram). Exact: computed
    /// from the running sum, not from bucket midpoints.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// The `q`-quantile latency estimate in cycles, `q` in `[0, 1]`.
    ///
    /// Walks the cumulative bucket counts to the bucket containing the
    /// `ceil(q * count)`-th sample and reports that bucket's inclusive upper
    /// edge, clamped to the exact observed `[min, max]` (so `percentile(0.5)`
    /// is within one bucket width of the true median and `percentile(1.0)`
    /// is the exact maximum). Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = (i as u64 + 1) * LATENCY_BUCKET_CYCLES - 1;
                return upper.clamp(self.min, self.max);
            }
        }
        // Rank falls into the overflow bucket: the exact max is the best
        // (and a safe upper) estimate.
        self.max
    }

    /// Folds another histogram into this one: the result is byte-identical
    /// to recording both sample streams into a single histogram (bucket
    /// layout is fixed, so merging is element-wise). The sharded system
    /// uses this to combine per-shard and per-tenant histograms into run
    /// aggregates without losing exactness.
    pub fn merge(&mut self, other: &Self) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        // An empty histogram's internal min is u64::MAX, so plain min/max
        // folds are correct for every emptiness combination.
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Median estimate (`percentile(0.5)`).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// 99th-percentile tail-latency estimate.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_histogram_empty_is_safe() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h, LatencyHistogram::default());
    }

    #[test]
    fn latency_histogram_mean_and_extremes_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in [100, 200, 1000, 5000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 6300);
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), 5000);
        assert!((h.mean() - 1575.0).abs() < 1e-12);
        // p100 is the exact maximum regardless of bucketing.
        assert_eq!(h.percentile(1.0), 5000);
        assert_eq!(h.percentile(0.0), h.percentile(1e-9));
    }

    #[test]
    fn latency_percentiles_are_within_one_bucket() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v * 10); // 10..=10_000 cycles
        }
        let true_p50 = 5000.0;
        let true_p95 = 9500.0;
        assert!((h.p50() as f64 - true_p50).abs() <= LATENCY_BUCKET_CYCLES as f64);
        assert!((h.p95() as f64 - true_p95).abs() <= LATENCY_BUCKET_CYCLES as f64);
        assert!(h.p50() <= h.p95() && h.p95() <= h.p99());
        assert!(h.p99() <= h.max());
    }

    #[test]
    fn latency_overflow_falls_back_to_exact_max() {
        let mut h = LatencyHistogram::new();
        let beyond = LATENCY_BUCKETS as u64 * LATENCY_BUCKET_CYCLES + 12_345;
        h.record(64);
        h.record(beyond);
        h.record(beyond + 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.percentile(0.99), beyond + 1);
        assert_eq!(h.max(), beyond + 1);
    }

    #[test]
    fn merging_equals_recording_the_concatenated_stream() {
        let beyond = LATENCY_BUCKETS as u64 * LATENCY_BUCKET_CYCLES + 99;
        let left: Vec<u64> = (0..300).map(|i| (i * 41) % 7000).collect();
        let right: Vec<u64> = (0..200)
            .map(|i| (i * 13) % 9000 + 50)
            .chain([beyond])
            .collect();
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut combined = LatencyHistogram::new();
        for &s in &left {
            a.record(s);
            combined.record(s);
        }
        for &s in &right {
            b.record(s);
            combined.record(s);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, combined);
        // Merging an empty histogram in either direction is the identity.
        let mut with_empty = a.clone();
        with_empty.merge(&LatencyHistogram::new());
        assert_eq!(with_empty, a);
        let mut empty = LatencyHistogram::new();
        empty.merge(&a);
        assert_eq!(empty, a);
    }

    #[test]
    fn identical_sample_streams_build_identical_histograms() {
        let samples: Vec<u64> = (0..500).map(|i| (i * 37) % 9000).collect();
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for &s in &samples {
            a.record(s);
        }
        for &s in &samples {
            b.record(s);
        }
        assert_eq!(a, b);
        b.record(1);
        assert_ne!(a, b);
    }
}
