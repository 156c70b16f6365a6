//! Benchmark of the TPP simulator.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One invocation repeats one workload (a full simulated run, see
//! [`workloads`]) with one seed until `--seconds` of host time have passed,
//! checks every repetition (see [`check`]), and prints a report followed by
//! one JSON result line. With `--trace 0` the result holds the end-to-end
//! metrics, medians over the repetitions. With `--trace 1` untraced and
//! traced repetitions alternate; the result holds the per-layer metrics
//! from the traced ones (see [`trace`]) and the tracing overhead against
//! the untraced ones. `--workload all` runs every workload in both modes.

mod check;
mod host;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tiered_mem::VmEvent;

use check::{check, Outcome};
use host::Sched;
use trace::{Layers, Tracer};
use workloads::Workload;

/// End-to-end metrics, `--trace 0`: name and unit.
const END_TO_END: [(&str, &str); 6] = [
    ("sim_accesses_per_s", "accesses/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_throughput_ops_s", "ops/s"),
    ("local_traffic_frac", "frac"),
];

/// Per-layer metrics, `--trace 1`: name and unit.
const PER_LAYER: [(&str, &str); 36] = [
    ("workloads.next_op.calls", "count"),
    ("workloads.next_op.ns_per_call", "ns"),
    ("workloads.next_op.share", "frac"),
    ("workloads.accesses_per_op", "count"),
    ("system.access.ns_per_access", "ns"),
    ("system.access.share", "frac"),
    ("multi.access.ns_per_access", "ns"),
    ("multi.access.share", "frac"),
    ("policy.fault.calls", "count"),
    ("policy.fault.ns_per_call", "ns"),
    ("policy.fault.share", "frac"),
    ("policy.hint_fault.calls", "count"),
    ("policy.hint_fault.ns_per_call", "ns"),
    ("policy.hint_fault.share", "frac"),
    ("policy.tick.calls", "count"),
    ("policy.tick.ns_per_call", "ns"),
    ("policy.tick.max_ns", "ns"),
    ("policy.tick.share", "frac"),
    ("mem.numa_hint_faults", "count"),
    ("mem.pgpromote_attempt", "count"),
    ("mem.pgpromote_success", "count"),
    ("mem.promote_success_ratio", "frac"),
    ("mem.pgdemote", "count"),
    ("mem.pgmigrate_success", "count"),
    ("mem.pgmigrate_fail", "count"),
    ("mem.pgscan", "count"),
    ("mem.pgsteal", "count"),
    ("mem.reclaim_efficiency", "frac"),
    ("mem.pswpout", "count"),
    ("mem.pswpin", "count"),
    ("mem.pgfault", "count"),
    ("mem.pgmajfault", "count"),
    ("mem.thp_fault_alloc", "count"),
    ("mem.thp_collapse_alloc", "count"),
    ("mem.thp_split", "count"),
    ("mem.compact_success_ratio", "frac"),
];

/// Per-layer metrics continued: the modelled stall and the tracing
/// overhead.
const PER_LAYER_TAIL: [(&str, &str); 2] = [
    ("sim.mem_stall_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Untimed set-ups before the timed repetitions; their times join the
/// repetitions' own in the `setup_s` median.
const SETUP_SAMPLES: usize = 15;

/// Fewest repetitions of each kind a run makes, however long they take.
const MIN_REPS: usize = 2;

/// Calibration time at the reference host speed: host times are reported
/// as measured times multiplied by this over the calibration time measured
/// around each repetition. It is the calibration's time on a quiet 2-vCPU
/// Xeon VM, so reported times are close to raw times there.
const CALIBRATION_REF_S: f64 = 0.05;

/// Fig 16: TPP's Cache1 throughput on the 1:4 machine is 0.5% below
/// all-local.
const PAPER_FIG16_TPP_VS_ALL_LOCAL: f64 = 0.995;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    traces: Vec<bool>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 42, 10, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("bad --trace {value} (0 or 1)")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = workload.ok_or_else(|| format!("--workload <{}|all>", names.join("|")))?;
    let workloads = if workload == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload {workload}; one of {}", names.join(", ")))?]
    };
    let traces = match (workload.as_str(), trace) {
        ("all", _) => vec![false, true],
        (_, Some(t)) => vec![t],
        (_, None) => vec![false],
    };
    Ok(Args {
        workloads,
        seed,
        seconds,
        traces,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("provenance {}", host::provenance(args.seed));
    let budget = Duration::from_secs(args.seconds);
    let mut all_correct = true;
    for &w in &args.workloads {
        for &traced in &args.traces {
            let result = if traced {
                traced_run(w, args.seed, budget)
            } else {
                untraced_run(w, args.seed, budget)
            };
            all_correct &= result.correct;
            println!("{}", result.json());
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One repetition: set up, run, check.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    sched: Sched,
    outcome: Outcome,
    layers: Option<Layers>,
    /// Factor that takes this repetition's host times to the reference
    /// host speed (see [`host::calibration_s`]).
    scale: f64,
}

impl Rep {
    /// Host wall seconds of the run at the reference host speed.
    fn wall(&self) -> f64 {
        self.wall_s * self.scale
    }
}

fn repetition(w: Workload, seed: u64, traced: bool) -> Result<Rep, String> {
    let tracer = traced.then(Tracer::default);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let start = Instant::now();
        let mut run = w.build(seed, tracer.as_ref()).map_err(|e| e.to_string())?;
        let setup_s = start.elapsed().as_secs_f64();
        let sched = Sched::now();
        let start = Instant::now();
        run.run(w.sim_duration_ns());
        let wall_s = start.elapsed().as_secs_f64();
        let sched = Sched::now().since(sched);
        let outcome = check(&run, w.sim_duration_ns())?;
        Ok(Rep {
            setup_s,
            wall_s,
            sched,
            outcome,
            layers: tracer.as_ref().map(Tracer::layers),
            scale: 1.0,
        })
    }));
    result.unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "unknown panic".to_string());
        Err(format!("panic: {msg}"))
    })
}

/// Repetitions of one workload and seed, and whether they all agree.
struct Series {
    reps: Vec<Rep>,
    attempted: usize,
    failed: usize,
    digests_agree: bool,
    /// The calibration time measured after the latest repetition.
    calibration_s: Option<f64>,
}

impl Series {
    fn new() -> Series {
        Series {
            reps: Vec::new(),
            attempted: 0,
            failed: 0,
            digests_agree: true,
            calibration_s: None,
        }
    }

    fn push(&mut self, w: Workload, seed: u64, traced: bool) {
        self.attempted += 1;
        let before = self.calibration_s.unwrap_or_else(host::calibration_s);
        let result = repetition(w, seed, traced);
        let after = host::calibration_s();
        self.calibration_s = Some(after);
        match result {
            Ok(mut rep) => {
                rep.scale = CALIBRATION_REF_S / ((before + after) / 2.0);
                let first = self.reps.first().map(|r| r.outcome.digest);
                let agrees = first.is_none_or(|d| d == rep.outcome.digest);
                self.digests_agree &= agrees;
                println!(
                    "rep {:>2} {:8} setup {:.4} s  wall {:.3} s  calibration {:.4} s  wall at reference speed {:.3} s  thread cpu {:.3} s  runq wait {:.3} s  accesses {}  digest {}{}",
                    self.attempted,
                    if traced { "traced" } else { "untraced" },
                    rep.setup_s,
                    rep.wall_s,
                    (before + after) / 2.0,
                    rep.wall(),
                    rep.sched.cpu_ns as f64 / 1e9,
                    rep.sched.wait_ns as f64 / 1e9,
                    rep.outcome.accesses,
                    rep.outcome.digest_hex(),
                    if agrees { "" } else { "  MISMATCH" },
                );
                self.reps.push(rep);
            }
            Err(e) => {
                self.failed += 1;
                println!("rep {:>2} FAILED: {e}", self.attempted);
            }
        }
    }

    fn untraced(&self) -> impl Iterator<Item = &Rep> {
        self.reps.iter().filter(|r| r.layers.is_none())
    }

    fn traced(&self) -> impl Iterator<Item = (&Rep, Layers)> {
        self.reps.iter().filter_map(|r| r.layers.map(|l| (r, l)))
    }

    fn outcome(&self) -> Option<&Outcome> {
        self.reps.first().map(|r| &r.outcome)
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.digests_agree && !self.reps.is_empty()
    }

    /// The median speed factor over the repetitions.
    fn scale(&self) -> f64 {
        median(&self.reps.iter().map(|r| r.scale).collect::<Vec<_>>())
    }
}

/// A finished benchmark run, ready to print.
struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl RunResult {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn header(w: Workload, seed: u64, budget: Duration, traced: bool) {
    println!(
        "== {} seed={seed} seconds={} trace={} sim_duration={} s ws_pages={} {}",
        w.name(),
        budget.as_secs(),
        u8::from(traced),
        w.sim_duration_ns() / tiered_sim::SEC,
        workloads::WS_PAGES,
        if w.validated() {
            "validated against paper Fig 16"
        } else {
            "unvalidated (beyond-paper configuration)"
        }
    );
}

/// `--trace 0`: untraced repetitions until the budget is spent; the
/// end-to-end metrics are their medians.
fn untraced_run(w: Workload, seed: u64, budget: Duration) -> RunResult {
    header(w, seed, budget, false);
    let mut setups = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let start = Instant::now();
        let built = w.build(seed, None);
        setups.push(start.elapsed().as_secs_f64());
        drop(built);
    }
    let mut series = Series::new();
    let start = Instant::now();
    while series.attempted < MIN_REPS || start.elapsed() < budget {
        series.push(w, seed, false);
    }
    let peak_rss = host::peak_rss_mib();
    for s in &mut setups {
        *s *= series.scale();
    }
    setups.extend(series.reps.iter().map(|r| r.setup_s * r.scale));
    let walls: Vec<f64> = series.reps.iter().map(Rep::wall).collect();
    let rates: Vec<f64> = series
        .reps
        .iter()
        .map(|r| r.outcome.accesses as f64 / r.wall())
        .collect();
    let raw_walls: Vec<f64> = series.reps.iter().map(|r| r.wall_s).collect();
    println!(
        "host speed: median raw wall {:.3} s; median calibration factor {:.3} (1 = reference speed)",
        median(&raw_walls),
        series.scale()
    );
    let (throughput, local) = series
        .outcome()
        .map_or((0.0, 0.0), |o| (o.throughput, o.local_traffic));
    let metrics = vec![
        ("sim_accesses_per_s", "accesses/s", median(&rates)),
        ("wall_s", "s", median(&walls)),
        ("setup_s", "s", median(&setups)),
        ("peak_rss_mib", "MiB", peak_rss),
        ("sim_throughput_ops_s", "ops/s", throughput),
        ("local_traffic_frac", "frac", local),
    ];
    debug_assert!(metrics.iter().map(|m| (m.0, m.1)).eq(END_TO_END));
    for (name, unit, values) in [
        ("sim_accesses_per_s", "accesses/s", &rates),
        ("wall_s", "s", &walls),
        ("setup_s", "s", &setups),
    ] {
        let (q1, q3) = quartiles(values);
        println!(
            "{name:<22} {:>14.6} {unit:<10} median of {}; quartiles {q1:.6} .. {q3:.6}",
            median(values),
            values.len()
        );
    }
    if let Some(o) = series.outcome() {
        println!("{:<22} {peak_rss:>14.3} MiB", "peak_rss_mib");
        println!(
            "{:<22} {:>14.3} ops/s",
            "sim_throughput_ops_s", o.throughput
        );
        println!(
            "{:<22} {:>14.6} frac",
            "local_traffic_frac", o.local_traffic
        );
        println!(
            "{:<22} {:>14} ns (log2 buckets; report only)",
            "sim_op_latency_p99_ns", o.op_latency_p99_ns
        );
        println!("vmstat{}", o.vmstat_line());
        if w.validated() {
            accuracy_line(seed, o);
        }
    }
    println!(
        "failed_runs {}/{}{}",
        series.failed,
        series.attempted,
        if series.digests_agree {
            ""
        } else {
            "  (digests differ between repetitions)"
        }
    );
    RunResult {
        correct: series.correct(),
        attempted: series.attempted,
        failed: series.failed,
        metrics,
    }
}

/// Compares `tpp_expand`'s simulated throughput with an all-local `cache1`
/// run of the same seed and length, and with the paper's Fig 16 value.
fn accuracy_line(seed: u64, tpp: &Outcome) {
    let mut base = workloads::all_local_cache1(seed);
    base.run(Workload::TppExpand.sim_duration_ns());
    let half = Workload::TppExpand.sim_duration_ns() / 2;
    let base_throughput = base.metrics().steady_throughput(half, u64::MAX);
    let ratio = tpp.throughput / base_throughput;
    println!(
        "accuracy tpp_expand: {:.0} ops/s = {:.4}x all-local cache1 ({base_throughput:.0} ops/s); paper Fig 16 TPP {:.4}x; gap {:+.2} points",
        tpp.throughput,
        ratio,
        PAPER_FIG16_TPP_VS_ALL_LOCAL,
        (ratio - PAPER_FIG16_TPP_VS_ALL_LOCAL) * 100.0
    );
}

/// `--trace 1`: untraced and traced repetitions alternate until the budget
/// is spent; the per-layer metrics come from the traced ones.
fn traced_run(w: Workload, seed: u64, budget: Duration) -> RunResult {
    header(w, seed, budget, true);
    let mut series = Series::new();
    let start = Instant::now();
    while series.attempted < 2 * MIN_REPS || start.elapsed() < budget {
        let traced = series.attempted % 2 == 1;
        series.push(w, seed, traced);
    }
    let untraced_walls: Vec<f64> = series.untraced().map(Rep::wall).collect();
    let traced_walls: Vec<f64> = series.traced().map(|(r, _)| r.wall()).collect();
    let overhead = median(&traced_walls) / median(&untraced_walls) - 1.0;
    let mut metrics = Vec::new();
    if let Some(o) = series.outcome() {
        metrics = layer_metrics(w, &series, o);
    }
    metrics.push(("trace.overhead_frac", "frac", overhead));
    let complete = metrics
        .iter()
        .map(|m| (m.0, m.1))
        .eq(PER_LAYER.into_iter().chain(PER_LAYER_TAIL));
    for (name, unit, v) in &metrics {
        println!("{name:<32} {v:>16.6} {unit}");
    }
    println!(
        "tracing overhead {:+.1}% (median traced wall {:.3} s over median untraced {:.3} s)",
        overhead * 100.0,
        median(&traced_walls),
        median(&untraced_walls)
    );
    println!(
        "failed_runs {}/{}; traced and untraced digests {}",
        series.failed,
        series.attempted,
        if series.digests_agree {
            "agree"
        } else {
            "DIFFER"
        }
    );
    RunResult {
        correct: series.correct() && complete,
        attempted: series.attempted,
        failed: series.failed,
        metrics,
    }
}

/// Per-layer metrics: host-time figures are medians over the traced
/// repetitions; counts come from the (identical) simulated outcome.
fn layer_metrics(
    w: Workload,
    series: &Series,
    o: &Outcome,
) -> Vec<(&'static str, &'static str, f64)> {
    let traced: Vec<(&Rep, Layers)> = series.traced().collect();
    let med = |f: &dyn Fn(&Rep, &Layers) -> f64| {
        median(&traced.iter().map(|(r, l)| f(r, l)).collect::<Vec<_>>())
    };
    let wall_ns = |r: &Rep| r.wall_s * 1e9;
    let share = |pick: fn(&Layers) -> u64| med(&|r, l| pick(l) as f64 / wall_ns(r));
    let per_access = med(&|r, l| (wall_ns(r) - l.timed_ns() as f64) * r.scale / o.accesses as f64);
    let access_share = med(&|r, l| 1.0 - l.timed_ns() as f64 / wall_ns(r));
    let multi = w == Workload::Colocated;
    let first = traced.first().map(|(_, l)| *l).unwrap_or_default();
    let vm = |e: VmEvent| o.vmstat.get(e) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let promoted = vm(VmEvent::PgPromoteSuccessAnon) + vm(VmEvent::PgPromoteSuccessFile);
    let compact_ok = vm(VmEvent::CompactSuccess);
    vec![
        (
            "workloads.next_op.calls",
            "count",
            first.next_op.calls as f64,
        ),
        (
            "workloads.next_op.ns_per_call",
            "ns",
            med(&|r, l| l.next_op.ns_per_call() * r.scale),
        ),
        ("workloads.next_op.share", "frac", share(|l| l.next_op.ns)),
        (
            "workloads.accesses_per_op",
            "count",
            o.accesses as f64 / o.ops as f64,
        ),
        (
            "system.access.ns_per_access",
            "ns",
            if multi { 0.0 } else { per_access },
        ),
        (
            "system.access.share",
            "frac",
            if multi { 0.0 } else { access_share },
        ),
        (
            "multi.access.ns_per_access",
            "ns",
            if multi { per_access } else { 0.0 },
        ),
        (
            "multi.access.share",
            "frac",
            if multi { access_share } else { 0.0 },
        ),
        ("policy.fault.calls", "count", first.fault.calls as f64),
        (
            "policy.fault.ns_per_call",
            "ns",
            med(&|r, l| l.fault.ns_per_call() * r.scale),
        ),
        ("policy.fault.share", "frac", share(|l| l.fault.ns)),
        (
            "policy.hint_fault.calls",
            "count",
            first.hint_fault.calls as f64,
        ),
        (
            "policy.hint_fault.ns_per_call",
            "ns",
            med(&|r, l| l.hint_fault.ns_per_call() * r.scale),
        ),
        (
            "policy.hint_fault.share",
            "frac",
            share(|l| l.hint_fault.ns),
        ),
        ("policy.tick.calls", "count", first.tick.calls as f64),
        (
            "policy.tick.ns_per_call",
            "ns",
            med(&|r, l| l.tick.ns_per_call() * r.scale),
        ),
        (
            "policy.tick.max_ns",
            "ns",
            med(&|r, l| l.tick.max_ns as f64 * r.scale),
        ),
        ("policy.tick.share", "frac", share(|l| l.tick.ns)),
        ("mem.numa_hint_faults", "count", vm(VmEvent::NumaHintFaults)),
        (
            "mem.pgpromote_attempt",
            "count",
            vm(VmEvent::PgPromoteAttempt),
        ),
        ("mem.pgpromote_success", "count", promoted),
        (
            "mem.promote_success_ratio",
            "frac",
            ratio(promoted, vm(VmEvent::PgPromoteAttempt)),
        ),
        ("mem.pgdemote", "count", o.vmstat.demoted_total() as f64),
        (
            "mem.pgmigrate_success",
            "count",
            vm(VmEvent::PgMigrateSuccess),
        ),
        ("mem.pgmigrate_fail", "count", vm(VmEvent::PgMigrateFail)),
        ("mem.pgscan", "count", vm(VmEvent::PgScan)),
        ("mem.pgsteal", "count", vm(VmEvent::PgSteal)),
        (
            "mem.reclaim_efficiency",
            "frac",
            ratio(vm(VmEvent::PgSteal), vm(VmEvent::PgScan)),
        ),
        ("mem.pswpout", "count", vm(VmEvent::PswpOut)),
        ("mem.pswpin", "count", vm(VmEvent::PswpIn)),
        ("mem.pgfault", "count", vm(VmEvent::PgFault)),
        ("mem.pgmajfault", "count", vm(VmEvent::PgMajFault)),
        ("mem.thp_fault_alloc", "count", vm(VmEvent::ThpFaultAlloc)),
        (
            "mem.thp_collapse_alloc",
            "count",
            vm(VmEvent::ThpCollapseAlloc),
        ),
        ("mem.thp_split", "count", vm(VmEvent::ThpSplit)),
        (
            "mem.compact_success_ratio",
            "frac",
            ratio(compact_ok, compact_ok + vm(VmEvent::CompactFail)),
        ),
        ("sim.mem_stall_frac", "frac", o.mem_stall_frac),
    ]
}

/// Median (mean of the middle two for an even count); 0 when empty.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive); the median repeated
/// when there are fewer than two values.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let m = median(&v);
        return (m, m);
    }
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one array section of a JSON file
    /// written one metric object per line.
    fn section(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closed")];
        let field = |line: &str, f: &str| {
            let rest = &line[line.find(&format!("\"{f}\": \"")).expect("field") + f.len() + 5..];
            rest[..rest.find('"').expect("string closed")].to_string()
        };
        body.lines()
            .filter(|l| l.contains("\"name\""))
            .map(|l| (field(l, "name"), field(l, "unit")))
            .collect()
    }

    fn owned(
        list: impl IntoIterator<Item = (&'static str, &'static str)>,
    ) -> Vec<(String, String)> {
        list.into_iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_metrics_the_binary_prints() {
        let json = include_str!("../../BENCHMARK.json");
        assert_eq!(section(json, "end_to_end"), owned(END_TO_END));
        assert_eq!(
            section(json, "per_layer"),
            owned(PER_LAYER.into_iter().chain(PER_LAYER_TAIL))
        );
        for w in Workload::ALL {
            assert!(json.contains(&format!("{{\"name\": \"{}\"", w.name())));
        }
    }

    #[test]
    fn layer_map_names_every_per_layer_metric_once() {
        let map = include_str!("../layers.json");
        for (name, _) in PER_LAYER.into_iter().chain(PER_LAYER_TAIL) {
            assert_eq!(map.matches(&format!("\"{name}\"")).count(), 1, "{name}");
        }
    }

    #[test]
    fn tracing_decorators_leave_the_simulation_unchanged() {
        let duration = 2 * tiered_sim::SEC;
        for w in Workload::ALL {
            let mut plain = w.build(7, None).unwrap();
            plain.run(duration);
            let tracer = Tracer::default();
            let mut traced = w.build(7, Some(&tracer)).unwrap();
            traced.run(duration);
            let (plain, traced) = (check(&plain, duration), check(&traced, duration));
            assert_eq!(
                plain.unwrap().digest,
                traced.unwrap().digest,
                "{}: a traced run simulated something else",
                w.name()
            );
            let layers = tracer.layers();
            assert!(layers.next_op.calls > 0 && layers.fault.calls > 0 && layers.tick.calls > 0);
        }
    }

    #[test]
    fn quartiles_follow_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
