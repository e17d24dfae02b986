//! A bounded log-bucketed histogram for long-lived replicas.
//!
//! Keeping every sample is exact but grows without bound — fatal for a
//! replica that stays up for weeks. [`BoundedHistogram`] instead keeps a
//! fixed array of counters: values below [`SUBBUCKETS`] get their own
//! bucket (exact), larger values share one bucket per `1/SUBBUCKETS` slice
//! of their power-of-two octave. Memory is constant (~8 KiB) regardless of
//! sample count and quantiles carry a bounded relative error of at most
//! `1/SUBBUCKETS` (6.25%).

use serde::{Deserialize, Serialize};

/// Linear sub-buckets per power-of-two octave; also the threshold below
/// which every value gets an exact bucket.
pub const SUBBUCKETS: u64 = 16;

const SUB_BITS: u32 = 4; // log2(SUBBUCKETS)

/// Total number of buckets: 16 exact low buckets plus 16 per octave for
/// the remaining 60 octaves of the `u64` range.
pub const BUCKETS: usize = (SUBBUCKETS as usize) * (64 - SUB_BITS as usize + 1);

/// Bucket index for a value. Exact below [`SUBBUCKETS`], log-bucketed above.
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    if value < SUBBUCKETS {
        value as usize
    } else {
        let msb = 63 - value.leading_zeros(); // >= SUB_BITS
        let sub = (value >> (msb - SUB_BITS)) & (SUBBUCKETS - 1);
        ((msb - SUB_BITS + 1) as usize) * SUBBUCKETS as usize + sub as usize
    }
}

/// Upper bound (inclusive) of a bucket — the representative value quantile
/// queries report, so reported quantiles never under-estimate by more than
/// the bucket width.
#[inline]
pub(crate) fn bucket_value(index: usize) -> u64 {
    if index < SUBBUCKETS as usize {
        index as u64
    } else {
        let octave = (index / SUBBUCKETS as usize) as u32 - 1 + SUB_BITS;
        let sub = (index % SUBBUCKETS as usize) as u64;
        let width = 1u64 << (octave - SUB_BITS);
        (SUBBUCKETS + sub) * width + (width - 1)
    }
}

/// A constant-memory histogram of `u64` samples (latencies in µs, sizes, …)
/// safe to keep for the lifetime of a replica.
///
/// `percentile` returns a bucket representative within 6.25% of the exact
/// value; `count`, `sum`, `min` and `max` are tracked exactly on the side.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct BoundedHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for BoundedHistogram {
    fn default() -> Self {
        Self {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl BoundedHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        self.record_n(sample, 1);
    }

    /// Records `n` occurrences of `sample`.
    pub fn record_n(&mut self, sample: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(sample)] += n;
        self.count += n;
        self.sum += sample as u128 * n as u128;
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact minimum sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate percentile (0.0–1.0, nearest-rank over buckets), or 0 if
    /// empty. The result is the upper bound of the bucket holding the
    /// nearest-rank sample, clamped into `[min, max]`, so it is within
    /// `1/16` (6.25%) of the exact nearest-rank answer.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "percentile must be in [0,1], got {p}"
        );
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &BoundedHistogram) {
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Replaces the exact moment cells with externally tracked values —
    /// used by `AtomicHistogram::load`, whose buckets only know bucket
    /// representatives but whose count/sum/min/max cells are exact.
    pub(crate) fn overwrite_moments(&mut self, count: u64, sum: u128, min: u64, max: u64) {
        self.count = count;
        self.sum = sum;
        self.min = min;
        self.max = max;
    }

    /// Resets the histogram to empty without releasing its (constant) memory.
    pub fn clear(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_values_are_exact() {
        let mut h = BoundedHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        assert_eq!(h.percentile(0.5), 7);
        assert_eq!(h.percentile(1.0), 15);
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        for v in [0u64, 1, 15, 16, 17, 255, 256, 1000, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "index {i} out of range for {v}");
            let hi = bucket_value(i);
            assert!(hi >= v, "bucket upper bound {hi} below value {v}");
            // Relative error bound: bucket width <= v / 16 for v >= 16.
            if v >= 16 {
                assert!(hi - v <= v / 16, "value {v} bucket bound {hi} too wide");
            }
        }
        // Indexes are monotone in the value.
        let mut last = 0;
        for shift in 0..64 {
            let i = bucket_index(1u64 << shift);
            assert!(i >= last);
            last = i;
        }
    }

    #[test]
    fn percentile_error_is_bounded() {
        let mut h = BoundedHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
            let exact = ((p * 10_000f64).ceil() as u64).clamp(1, 10_000);
            let approx = h.percentile(p);
            assert!(
                approx >= exact && approx - exact <= exact / 16 + 1,
                "p={p}: approx {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn merge_and_clear() {
        let mut a = BoundedHistogram::new();
        let mut b = BoundedHistogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
        assert_eq!(a.sum(), 1_000_010);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), 0);
        assert_eq!(a.percentile(0.99), 0);
    }

    #[test]
    fn serde_round_trip() {
        let mut h = BoundedHistogram::new();
        for v in [1u64, 50, 3_000, 1 << 40] {
            h.record(v);
        }
        let mut bytes = Vec::new();
        serde::Serialize::serialize(&h, &mut bytes);
        let mut r = serde::Reader::new(&bytes);
        let back = <BoundedHistogram as serde::Deserialize>::deserialize(&mut r).expect("decodes");
        assert_eq!(h, back);
    }
}
