//! A tiny self-contained micro-benchmark harness.
//!
//! The crates registry is unreachable from the build environment, so the
//! benches cannot use Criterion; this module provides the minimal subset
//! the repo needs: auto-calibrated iteration counts, a warm-up pass,
//! multiple samples, and a `name  median ns/iter (min .. max)` report
//! line. All benches run with `harness = false` and call [`bench()`] (or
//! [`bench_with_setup`] for `iter_batched`-style cases) from `main`.
//!
//! The same statistics summarise a row over repeated runs of a bench
//! binary: [`parse_report`] reads a report line back and [`quartiles`]
//! gives the median and quartiles the `bench_ledger` binary records.

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

/// The first quartile, median and third quartile of `sorted` (ascending,
/// non-empty), each interpolated linearly between the two nearest values.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let at = |p: f64| {
        let h = p * (sorted.len() - 1) as f64;
        let lo = h as usize;
        match sorted.get(lo + 1) {
            Some(&next) => sorted[lo] + (h - lo as f64) * (next - sorted[lo]),
            None => sorted[lo],
        }
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// The row name and median ns/iter of a report line, `None` for any
/// other line.
pub fn parse_report(line: &str) -> Option<(&str, f64)> {
    let mut fields = line.split_whitespace();
    let name = fields.next()?;
    let median = fields.next()?;
    if fields.next() != Some("ns/iter") {
        return None;
    }
    let (digits, scale) = [("us", 1e3), ("ms", 1e6), ("s", 1e9)]
        .into_iter()
        .find_map(|(unit, scale)| Some((median.strip_suffix(unit)?, scale)))
        .unwrap_or((median, 1.0));
    Some((name, digits.parse::<f64>().ok()? * scale))
}

fn report(name: &str, sorted_ns: &[f64], batch: u64) {
    let [_, median, _] = quartiles(sorted_ns);
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
    fn quartiles_interpolate_between_samples() {
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 5.0]), [1.75, 2.5, 3.5]);
    }

    #[test]
    fn report_lines_parse_back_to_their_median() {
        for ns in [23.0, 950.0, 1_500.0, 2_500_000.0, 3_000_000_000.0] {
            let line = format!("row/x {:>12} ns/iter  (min 1, max 2, batch 8)", fmt_ns(ns));
            assert_eq!(parse_report(&line), Some(("row/x", ns)));
        }
        assert_eq!(parse_report("running hotpath microbenches..."), None);
        assert_eq!(parse_report(""), None);
    }

    #[test]
    fn fmt_ns_scales_units() {
        assert_eq!(fmt_ns(950.0), "950");
        assert_eq!(fmt_ns(1_500.0), "1.5us");
        assert_eq!(fmt_ns(2_500_000.0), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000.0), "3.00s");
    }
}
