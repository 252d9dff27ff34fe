//! Summary statistics for experiment reporting.
//!
//! The paper reports medians of timing populations; [`Summary`] computes
//! those plus the usual descriptive statistics, and [`LogHistogram`] keeps
//! always-on latency distributions in fixed memory.

use crate::time::Duration;

/// Descriptive statistics over a population of `f64` observations.
///
/// Construction sorts a copy of the data once; all queries are then O(1) or
/// O(log n).
#[derive(Clone, Debug)]
pub struct Summary {
    sorted: Vec<f64>,
    sum: f64,
}

impl Summary {
    /// Builds a summary from observations. Non-finite values are rejected.
    ///
    /// # Panics
    /// Panics if any observation is NaN or infinite.
    pub fn new(mut values: Vec<f64>) -> Self {
        assert!(
            values.iter().all(|v| v.is_finite()),
            "Summary: non-finite observation"
        );
        values.sort_by(f64::total_cmp);
        let sum = values.iter().sum();
        Summary { sorted: values, sum }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` if there are no observations.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.is_empty() {
            None
        } else {
            Some(self.sum / self.len() as f64)
        }
    }

    /// Population standard deviation, or `None` if empty.
    pub fn std_dev(&self) -> Option<f64> {
        let mean = self.mean()?;
        let var = self
            .sorted
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / self.len() as f64;
        Some(var.sqrt())
    }

    /// Smallest observation.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest observation.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// The median (50th percentile).
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Linear-interpolated percentile `p` in `[0, 100]`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.is_empty() {
            return None;
        }
        let n = self.sorted.len();
        if n == 1 {
            return Some(self.sorted[0]);
        }
        let rank = p / 100.0 * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        Some(self.sorted[lo] + (self.sorted[hi] - self.sorted[lo]) * frac)
    }

    /// The sorted observations.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }
}

/// Sub-buckets per power-of-two octave in a [`LogHistogram`]. Eight linear
/// sub-buckets bound the relative quantile error at ~6 %.
const LOG_SUB: u64 = 8;

/// A log-scale histogram over `u64` nanosecond observations, sized for
/// always-on metrics: fixed memory (one bucket per octave sub-division over
/// the whole `u64` range), O(1) record, and approximate quantiles good to a
/// few percent — plenty for p50/p95/p99 reporting where the populations span
/// microseconds to minutes.
///
/// Unlike [`Summary`] it never stores observations, so it can sit on the
/// telemetry hot path without unbounded growth.
#[derive(Clone, Debug, Default)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for `value`: octave (floor log2) plus a linear
    /// sub-position within the octave.
    fn bucket(value: u64) -> usize {
        if value < LOG_SUB {
            return value as usize;
        }
        let octave = 63 - value.leading_zeros() as u64;
        // Shift so the top bits after the leading one select the sub-bucket.
        let sub = (value >> (octave - 3)) & (LOG_SUB - 1);
        (octave * LOG_SUB + sub) as usize
    }

    /// Lower bound of bucket `idx` (inverse of [`Self::bucket`]).
    fn bucket_floor(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < LOG_SUB {
            return idx;
        }
        let octave = idx / LOG_SUB;
        let sub = idx % LOG_SUB;
        (1u64 << octave) + (sub << (octave - 3))
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let idx = Self::bucket(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a [`Duration`] in nanoseconds.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_nanos());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact largest observation, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Approximate percentile `p` in `[0, 100]`: the lower bound of the
    /// bucket holding the rank-`p` observation, clamped to the exact
    /// min/max. Relative error is bounded by the sub-bucket width (~6 %).
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.count == 0 {
            return None;
        }
        let rank = (p / 100.0 * self.count as f64).ceil().max(1.0) as u64;
        if rank >= self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_floor(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary() {
        let s = Summary::new(vec![]);
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.median(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.std_dev(), None);
    }

    #[test]
    fn single_value() {
        let s = Summary::new(vec![3.0]);
        assert_eq!(s.mean(), Some(3.0));
        assert_eq!(s.median(), Some(3.0));
        assert_eq!(s.percentile(0.0), Some(3.0));
        assert_eq!(s.percentile(100.0), Some(3.0));
        assert_eq!(s.std_dev(), Some(0.0));
    }

    #[test]
    fn median_odd_and_even() {
        let odd = Summary::new(vec![5.0, 1.0, 3.0]);
        assert_eq!(odd.median(), Some(3.0));
        let even = Summary::new(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(even.median(), Some(2.5));
    }

    #[test]
    fn percentiles_interpolate() {
        let s = Summary::new((1..=5).map(|i| i as f64).collect());
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(25.0), Some(2.0));
        assert_eq!(s.percentile(100.0), Some(5.0));
        assert_eq!(s.percentile(87.5), Some(4.5));
    }

    #[test]
    fn mean_and_std() {
        let s = Summary::new(vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.mean(), Some(5.0));
        assert_eq!(s.std_dev(), Some(2.0));
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan() {
        Summary::new(vec![1.0, f64::NAN]);
    }

    #[test]
    fn log_histogram_small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..8u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(7));
        assert_eq!(h.percentile(0.0), Some(0));
        assert_eq!(h.percentile(100.0), Some(7));
    }

    #[test]
    fn log_histogram_quantiles_within_sub_bucket_error() {
        let mut h = LogHistogram::new();
        // Uniform 1..=100_000 ns: p50 ≈ 50_000, p99 ≈ 99_000.
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let p50 = h.percentile(50.0).unwrap() as f64;
        let p99 = h.percentile(99.0).unwrap() as f64;
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.07, "p50={p50}");
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.07, "p99={p99}");
        assert_eq!(h.percentile(100.0), Some(100_000));
        assert!((h.mean().unwrap() - 50_000.5).abs() < 1.0);
    }

    #[test]
    fn log_histogram_merge_equals_combined_record() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for v in [3u64, 900, 1_000_000, 17] {
            a.record(v);
            all.record(v);
        }
        for v in [40_000u64, 5, 123_456_789] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        for p in [0.0, 25.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(a.percentile(p), all.percentile(p));
        }
        // Merging an empty histogram is a no-op.
        let before = a.percentile(50.0);
        a.merge(&LogHistogram::new());
        assert_eq!(a.percentile(50.0), before);
        assert!(LogHistogram::new().percentile(50.0).is_none());
    }
}
