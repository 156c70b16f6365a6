//! Statistics collection: time series, percentile summaries, and rate
//! tracking for the evaluation plots.

/// A recorded time series of `(time_ns, value)` points.
///
/// # Examples
///
/// ```
/// use tiered_sim::TimeSeries;
///
/// let mut ts = TimeSeries::new("promotion_rate");
/// ts.record(0, 10.0);
/// ts.record(1_000, 30.0);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.mean(), Some(20.0));
/// assert_eq!(ts.max(), Some(30.0));
/// ```
#[derive(Clone, Debug)]
pub struct TimeSeries {
    name: String,
    points: Vec<(u64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series called `name`.
    pub fn new(name: impl Into<String>) -> TimeSeries {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a point. Times must be non-decreasing.
    ///
    /// # Panics
    ///
    /// Panics if `time_ns` is earlier than the previous point.
    pub fn record(&mut self, time_ns: u64, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(time_ns >= last, "time went backwards: {time_ns} < {last}");
        }
        self.points.push((time_ns, value));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// All points in time order.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Just the values, in time order.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, v)| v).collect()
    }

    /// Arithmetic mean of the values.
    pub fn mean(&self) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        Some(self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64)
    }

    /// Maximum value.
    pub fn max(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Minimum value.
    pub fn min(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank on sorted values.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        percentile(&self.values(), q)
    }

    /// Mean of the values within `[start_ns, end_ns)`.
    pub fn mean_between(&self, start_ns: u64, end_ns: u64) -> Option<f64> {
        let vals: Vec<f64> = self
            .points
            .iter()
            .filter(|&&(t, _)| t >= start_ns && t < end_ns)
            .map(|&(_, v)| v)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }
}

/// A log₂-bucketed histogram for latency-like values: constant memory,
/// O(1) insert, ~2× value resolution on percentiles.
///
/// # Examples
///
/// ```
/// use tiered_sim::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in [100, 200, 400, 800, 100_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.percentile(0.5) >= 200 && h.percentile(0.5) <= 511);
/// assert!(h.percentile(1.0) >= 100_000);
/// ```
#[derive(Clone, Debug)]
pub struct LogHistogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    max: u64,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let bucket = 63 - value.max(1).leading_zeros() as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate `q`-percentile: the upper bound of the bucket holding
    /// the nearest-rank sample (exact for the maximum). Returns 0 when
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
                return upper.min(self.max);
            }
        }
        self.max
    }
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

/// Nearest-rank percentile of a sample set (0 ≤ q ≤ 1).
///
/// Returns `None` for empty input.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or any sample is NaN.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Converts a counter delta over an interval into a per-second rate.
///
/// # Examples
///
/// ```
/// use tiered_sim::{rate_per_sec, SEC};
/// assert_eq!(rate_per_sec(500, 2 * SEC), 250.0);
/// ```
pub fn rate_per_sec(delta: u64, interval_ns: u64) -> f64 {
    if interval_ns == 0 {
        return 0.0;
    }
    delta as f64 * crate::clock::SEC as f64 / interval_ns as f64
}

/// Fraction helper that is well-defined at zero denominators.
///
/// # Examples
///
/// ```
/// assert_eq!(tiered_sim::fraction(3, 4), 0.75);
/// assert_eq!(tiered_sim::fraction(0, 0), 0.0);
/// ```
pub fn fraction(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SEC;

    #[test]
    fn series_statistics() {
        let mut ts = TimeSeries::new("t");
        for (i, v) in [5.0, 1.0, 9.0, 3.0].iter().enumerate() {
            ts.record(i as u64 * 10, *v);
        }
        assert_eq!(ts.mean(), Some(4.5));
        assert_eq!(ts.min(), Some(1.0));
        assert_eq!(ts.max(), Some(9.0));
        assert_eq!(ts.percentile(0.5), Some(3.0));
        assert_eq!(ts.percentile(1.0), Some(9.0));
        assert_eq!(ts.percentile(0.0), Some(1.0));
    }

    #[test]
    fn empty_series_yields_none() {
        let ts = TimeSeries::new("e");
        assert!(ts.is_empty());
        assert_eq!(ts.mean(), None);
        assert_eq!(ts.max(), None);
        assert_eq!(ts.percentile(0.9), None);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn time_must_be_monotone() {
        let mut ts = TimeSeries::new("t");
        ts.record(10, 1.0);
        ts.record(5, 2.0);
    }

    #[test]
    fn mean_between_windows() {
        let mut ts = TimeSeries::new("t");
        ts.record(0, 10.0);
        ts.record(100, 20.0);
        ts.record(200, 40.0);
        assert_eq!(ts.mean_between(0, 150), Some(15.0));
        assert_eq!(ts.mean_between(150, 400), Some(40.0));
        assert_eq!(ts.mean_between(500, 600), None);
    }

    #[test]
    fn percentile_of_singleton() {
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn log_histogram_percentiles() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        assert_eq!(h.max(), 1000);
        // p50 of 1..1000 is 500; bucket upper bound 511.
        let p50 = h.percentile(0.5);
        assert!((500..=511).contains(&p50), "p50={p50}");
        assert_eq!(h.percentile(1.0), 1000);
        assert_eq!(LogHistogram::new().percentile(0.99), 0);
    }

    #[test]
    fn log_histogram_handles_extremes() {
        let mut h = LogHistogram::new();
        h.record(0); // clamped into the first bucket
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(1.0), u64::MAX);
    }

    #[test]
    fn rates_and_fractions() {
        assert_eq!(rate_per_sec(100, SEC), 100.0);
        assert_eq!(rate_per_sec(100, 0), 0.0);
        assert_eq!(fraction(1, 2), 0.5);
        assert_eq!(fraction(5, 0), 0.0);
    }
}
