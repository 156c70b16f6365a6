//! Property-style tests for the simulation engine's arithmetic, driven
//! by seeded [`SimRng`] loops (no external proptest dependency).

use tiered_sim::{LogHistogram, Periodic, SimRng, TimeSeries};

/// A Periodic timer fired at arbitrary increasing instants reports
/// exactly `floor(t / period)` total fires — no deadline is ever
/// skipped or double-counted.
#[test]
fn periodic_conserves_fires() {
    let mut rng = SimRng::seed(0x9E21);
    for case in 0..64u64 {
        let period = rng.range(1..1_000);
        let mut timer = Periodic::new(period);
        let mut now = 0u64;
        let mut fired = 0u64;
        let steps = rng.range(1..50);
        for _ in 0..steps {
            now += rng.range(0..10_000);
            fired += timer.fire(now) as u64;
        }
        assert_eq!(fired, now / period, "case {case} period {period}");
    }
}

/// LogHistogram percentiles are monotone in q, bounded by the max,
/// and the p100 equals the exact maximum.
#[test]
fn log_histogram_percentiles_are_sane() {
    let mut rng = SimRng::seed(0x6157);
    for case in 0..64u64 {
        let len = rng.range(1..300);
        let values: Vec<u64> = (0..len).map(|_| rng.range(1..1_000_000_000)).collect();
        let mut h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let max = *values.iter().max().unwrap();
        assert_eq!(h.max(), max, "case {case}");
        assert_eq!(h.percentile(1.0), max);
        let mut prev = 0u64;
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let p = h.percentile(q);
            assert!(p >= prev, "percentile not monotone at q={q}");
            assert!(p <= max);
            prev = p;
        }
        // The mean is within the value range.
        let mean = h.mean();
        assert!(mean >= 1.0 && mean <= max as f64);
    }
}

/// TimeSeries aggregate functions agree with naive recomputation.
#[test]
fn time_series_aggregates_match_naive() {
    let mut rng = SimRng::seed(0x7135);
    for case in 0..64u64 {
        let len = rng.range(1..100);
        let values: Vec<f64> = (0..len).map(|_| (rng.f64() - 0.5) * 2e6).collect();
        let mut ts = TimeSeries::new("t");
        for (i, &v) in values.iter().enumerate() {
            ts.record(i as u64, v);
        }
        let naive_mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!(
            (ts.mean().unwrap() - naive_mean).abs() < 1e-6,
            "case {case}"
        );
        let naive_max = values.iter().cloned().fold(f64::MIN, f64::max);
        assert_eq!(ts.max().unwrap(), naive_max);
        let naive_min = values.iter().cloned().fold(f64::MAX, f64::min);
        assert_eq!(ts.min().unwrap(), naive_min);
        // Percentile 1.0 is the max, 0.0 is the min.
        assert_eq!(ts.percentile(1.0).unwrap(), naive_max);
        assert_eq!(ts.percentile(0.0).unwrap(), naive_min);
    }
}
