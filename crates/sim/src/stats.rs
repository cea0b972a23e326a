//! Statistics collection used by the metric system.
//!
//! The simulation records many per-packet and per-route observations; these
//! helpers compute numerically stable summaries (Welford running statistics),
//! fixed-bin histograms with percentile queries, time-weighted averages for
//! sampled quantities (e.g. neighbour count over time) and plain counters.

use crate::time::SimTime;

/// Numerically stable running mean / variance / min / max (Welford).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation.
    pub fn record(&mut self, x: f64) {
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            if x < self.min {
                self.min = x;
            }
            if x > self.max {
                self.max = x;
            }
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 if no observations.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0 for fewer than two observations.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation, or 0 if empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum observation, or 0 if empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Whether no observations were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// A monotone event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments by one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// A histogram with uniform bins over `[low, high)` plus under/overflow bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    low: f64,
    high: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    values: RunningStats,
}

impl Histogram {
    /// Creates a histogram over `[low, high)` with `bins` uniform bins.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high` or `bins == 0`.
    #[must_use]
    pub fn new(low: f64, high: f64, bins: usize) -> Self {
        assert!(low < high, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            low,
            high,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            values: RunningStats::new(),
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.values.record(x);
        if x < self.low {
            self.underflow += 1;
        } else if x >= self.high {
            self.overflow += 1;
        } else {
            let width = (self.high - self.low) / self.bins.len() as f64;
            let idx = ((x - self.low) / width) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total number of observations (including under/overflow).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.values.count()
    }

    /// Summary statistics of the raw observations.
    #[must_use]
    pub fn stats(&self) -> &RunningStats {
        &self.values
    }

    /// Approximate `q`-quantile (0 ≤ q ≤ 1) from the binned data.
    ///
    /// Returns 0 for an empty histogram. Under/overflow observations are
    /// treated as lying at the range edges.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * total as f64).ceil().max(1.0) as u64;
        let mut cum = self.underflow;
        if cum >= target {
            return self.low;
        }
        let width = (self.high - self.low) / self.bins.len() as f64;
        for (i, b) in self.bins.iter().enumerate() {
            cum += b;
            if cum >= target {
                return self.low + (i as f64 + 0.5) * width;
            }
        }
        self.high
    }

    /// Per-bin counts (excluding under/overflow).
    #[must_use]
    pub fn bin_counts(&self) -> &[u64] {
        &self.bins
    }

    /// Count of observations below the histogram range.
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count of observations at or above the histogram range.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }
}

/// Time-weighted average of a piecewise-constant sampled quantity.
///
/// Used for metrics like "average neighbour count": each call to
/// [`TimeWeightedAverage::update`] closes the previous interval at its value.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeWeightedAverage {
    last_time: Option<SimTime>,
    last_value: f64,
    weighted_sum: f64,
    total_time: f64,
}

impl Default for TimeWeightedAverage {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeightedAverage {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        TimeWeightedAverage {
            last_time: None,
            last_value: 0.0,
            weighted_sum: 0.0,
            total_time: 0.0,
        }
    }

    /// Records that the quantity takes value `value` from time `now` onward.
    pub fn update(&mut self, now: SimTime, value: f64) {
        if let Some(prev) = self.last_time {
            let dt = now.saturating_since(prev).as_secs();
            self.weighted_sum += self.last_value * dt;
            self.total_time += dt;
        }
        self.last_time = Some(now);
        self.last_value = value;
    }

    /// Closes the observation window at `now` and returns the average.
    #[must_use]
    pub fn finish(mut self, now: SimTime) -> f64 {
        self.update(now, self.last_value);
        self.average()
    }

    /// The time-weighted average over the closed intervals so far.
    #[must_use]
    pub fn average(&self) -> f64 {
        if self.total_time == 0.0 {
            self.last_value
        } else {
            self.weighted_sum / self.total_time
        }
    }
}

/// Computes the exact quantile of a slice (sorted copy, nearest-rank method).
///
/// Returns 0 for an empty slice.
#[must_use]
pub fn exact_quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basic() {
        let mut s = RunningStats::new();
        assert!(s.is_empty());
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn merge_matches_single_pass() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37 - 5.0).collect();
        let mut whole = RunningStats::new();
        for &x in &data {
            whole.record(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &data[..37] {
            a.record(x);
        }
        for &x in &data[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty() {
        let mut a = RunningStats::new();
        a.record(1.0);
        let b = RunningStats::new();
        let mut a2 = a.clone();
        a2.merge(&b);
        assert_eq!(a2, a);
        let mut empty = RunningStats::new();
        empty.merge(&a);
        assert_eq!(empty.mean(), 1.0);
    }

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.value(), 5);
    }

    #[test]
    fn histogram_bins_and_quantiles() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..100 {
            h.record(i as f64 / 10.0);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.bin_counts().iter().sum::<u64>(), 100);
        let median = h.quantile(0.5);
        assert!((median - 5.0).abs() < 1.0, "median {median} not near 5");
        assert!(h.quantile(0.0) <= h.quantile(1.0));
    }

    #[test]
    fn histogram_overflow_underflow() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-1.0);
        h.record(2.0);
        h.record(0.5);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn time_weighted_average() {
        let mut twa = TimeWeightedAverage::new();
        twa.update(SimTime::from_secs(0.0), 10.0);
        twa.update(SimTime::from_secs(1.0), 20.0);
        // 10 for 1s, 20 for 3s => (10 + 60) / 4 = 17.5
        let avg = twa.finish(SimTime::from_secs(4.0));
        assert!((avg - 17.5).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_average_single_sample() {
        let mut twa = TimeWeightedAverage::new();
        twa.update(SimTime::from_secs(1.0), 3.0);
        assert_eq!(twa.average(), 3.0);
    }

    #[test]
    fn exact_quantile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(exact_quantile(&v, 0.0), 1.0);
        assert_eq!(exact_quantile(&v, 0.5), 3.0);
        assert_eq!(exact_quantile(&v, 1.0), 5.0);
        assert_eq!(exact_quantile(&[], 0.5), 0.0);
    }
}
