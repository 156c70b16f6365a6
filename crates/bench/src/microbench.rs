//! A tiny self-contained micro-benchmark harness.
//!
//! The crates registry is unreachable from the build environment, so the
//! benches cannot use Criterion; this module provides the minimal subset
//! the repo needs: auto-calibrated iteration counts, a warm-up pass,
//! multiple samples, and a `name  median ns/iter (min .. max)` report
//! line. All benches run with `harness = false` and call [`bench()`] (or
//! [`bench_with_setup`] for `iter_batched`-style cases) from `main`.

use std::time::{Duration, Instant};

/// Target wall-clock spent measuring one benchmark (split over samples).
const MEASURE_TARGET: Duration = Duration::from_millis(600);
/// Warm-up budget before any timing is recorded.
const WARMUP_TARGET: Duration = Duration::from_millis(150);
/// Number of timed samples; the median is reported.
const SAMPLES: usize = 5;

/// Runs `f` repeatedly and prints a one-line timing report.
///
/// The closure is invoked continuously (like Criterion's `Bencher::iter`);
/// state captured mutably persists across iterations.
pub fn bench<F: FnMut()>(name: &str, mut f: F) {
    // Calibrate: double the batch size until one batch is long enough to
    // time reliably, warming caches as a side effect.
    let mut batch = 1u64;
    let warmup_start = Instant::now();
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        let elapsed = t.elapsed();
        if elapsed >= MEASURE_TARGET / (SAMPLES as u32 * 2) {
            break;
        }
        if warmup_start.elapsed() >= WARMUP_TARGET && elapsed >= Duration::from_micros(100) {
            break;
        }
        batch = batch.saturating_mul(2);
    }

    let mut per_iter: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.total_cmp(b));
    report(name, &per_iter, batch);
}

/// `iter_batched` equivalent: `setup` builds fresh input for every timed
/// call of `f`, and only `f` is on the clock.
pub fn bench_with_setup<T, S: FnMut() -> T, F: FnMut(T)>(name: &str, mut setup: S, mut f: F) {
    // Warm up once (untimed) so allocation and code paths are hot.
    f(setup());
    let mut per_iter: Vec<f64> = Vec::with_capacity(SAMPLES);
    let mut spent = Duration::ZERO;
    while per_iter.len() < SAMPLES || spent < MEASURE_TARGET {
        let input = setup();
        let t = Instant::now();
        f(input);
        let elapsed = t.elapsed();
        spent += elapsed;
        per_iter.push(elapsed.as_nanos() as f64);
        if per_iter.len() >= SAMPLES * 8 {
            break;
        }
    }
    per_iter.sort_by(|a, b| a.total_cmp(b));
    report(name, &per_iter, 1);
}

fn report(name: &str, sorted_ns: &[f64], batch: u64) {
    let median = sorted_ns[sorted_ns.len() / 2];
    let min = sorted_ns[0];
    let max = sorted_ns[sorted_ns.len() - 1];
    println!(
        "{name:<44} {:>12} ns/iter  (min {}, max {}, batch {batch})",
        fmt_ns(median),
        fmt_ns(min),
        fmt_ns(max)
    );
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}us", ns / 1e3)
    } else {
        format!("{ns:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let mut count = 0u64;
        // `black_box` keeps the optimiser from folding the closure away,
        // which would leave the calibration loop doubling forever.
        bench("test/noop_counter", || {
            count = std::hint::black_box(count + 1);
        });
        assert!(count > 0);
    }

    #[test]
    fn bench_with_setup_runs_each_input_once() {
        let mut built = 0u64;
        let mut consumed = 0u64;
        bench_with_setup(
            "test/setup_case",
            || {
                built += 1;
                vec![0u8; 1024]
            },
            |v| {
                consumed += v.len() as u64;
            },
        );
        assert!(built >= 2);
        assert_eq!(consumed, built * 1024);
    }

    #[test]
    fn fmt_ns_scales_units() {
        assert_eq!(fmt_ns(950.0), "950");
        assert_eq!(fmt_ns(1_500.0), "1.5us");
        assert_eq!(fmt_ns(2_500_000.0), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000.0), "3.00s");
    }
}
