//! `repro` — regenerates every table and figure of the TPP paper.
//!
//! ```text
//! cargo run --release -p tpp-bench --bin repro -- all
//! cargo run --release -p tpp-bench --bin repro -- fig15 [--quick]
//! cargo run --release -p tpp-bench --bin repro -- --trace /tmp/t.jsonl
//! ```
//!
//! Every target is a plan: the jobs it needs and how its table renders
//! from their outcomes. `repro` runs the distinct jobs of all selected
//! targets once, in one queue over `--jobs N` workers, then prints every
//! table in target order and writes it as CSV into `results/` (override
//! with `--csv <dir>`); a CSV directory that cannot be created stops the
//! run before any job runs, and a failed write makes it exit non-zero.
//! `--timings-json <path>` writes the wall time of every job run and the
//! render time of every target. At standard scale, the tables this run
//! produced are compared against the checked-in snapshots in
//! `crates/bench/expected/`; the run exits non-zero if any deviates
//! beyond tolerance.
//!
//! `--trace <path>` appends a dedicated instrumented run (cache1 on the
//! 1:4 machine under TPP) that streams every kernel-style event to
//! `<path>` as JSONL, prints the counter-parity table, the per-policy
//! decision summary and the §5.5 ping-pong report, and exits non-zero if
//! the trace disagrees with the vmstat counters. `--metrics-dir <path>`
//! additionally exports that run's metrics (CSV/JSON). Figure targets
//! always run untraced, so their numbers are unchanged by `--trace`.

use std::path::PathBuf;
use std::time::Instant;

use tpp_bench::executor::{self, Plan};
use tpp_bench::{charfig, evalfig, sweeps, Scale};

/// A target's name, its one-line description (`repro --list`) and its
/// plan: the jobs it needs and how its table is rendered from them.
type Target = (&'static str, &'static str, fn(&Scale) -> Plan);

/// Every runnable experiment target, in `all` execution order.
const TARGETS: &[Target] = &[
    (
        "fig2",
        "memory-tier latency hierarchy of the simulated machine",
        |_| Plan::new(Vec::new(), |_| charfig::fig2()),
    ),
    (
        "fig7",
        "total tracked memory vs. memory accessed in 1-/2-interval windows",
        |s| charfig::characterized(s, charfig::fig7),
    ),
    (
        "fig8",
        "per-page-type hotness within a 2-interval window",
        |s| charfig::characterized(s, charfig::fig8),
    ),
    (
        "fig9",
        "anon/file shares of resident memory over time",
        |s| charfig::characterized(s, charfig::fig9),
    ),
    (
        "fig10",
        "throughput vs. page-type utilisation per interval",
        |s| charfig::characterized(s, charfig::fig10),
    ),
    ("fig11", "re-access-interval CDF per workload", |s| {
        charfig::characterized(s, charfig::fig11)
    }),
    (
        "fig15",
        "production 2:1 machine, Linux vs TPP, all four workloads",
        evalfig::fig15,
    ),
    (
        "fig16",
        "memory expansion 1:4, Cache workloads",
        evalfig::fig16,
    ),
    (
        "fig17",
        "ablation: allocation/reclamation watermark decoupling",
        evalfig::fig17,
    ),
    (
        "fig18",
        "ablation: active-LRU promotion filter",
        evalfig::fig18,
    ),
    (
        "table1",
        "page-type-aware allocation (caches to CXL)",
        evalfig::table1,
    ),
    (
        "fig19",
        "TPP vs NUMA balancing vs AutoTiering",
        evalfig::fig19,
    ),
    (
        "reclaim_rate",
        "reclaim mechanism rate probe (paper: ~44x)",
        |_| Plan::new(Vec::new(), |_| sweeps::reclaim_rate_comparison()),
    ),
    (
        "zswap",
        "CXL as swap pool vs CXL as memory",
        sweeps::zswap_comparison,
    ),
    (
        "colocation",
        "co-located cache1 + data_warehouse on one machine",
        sweeps::colocation,
    ),
    (
        "sweep_dsf",
        "sweep demote_scale_factor on Cache1 1:4 under TPP",
        sweeps::sweep_demote_scale,
    ),
    (
        "sweep_latency",
        "sweep CXL device latency on Cache1 1:4",
        sweeps::sweep_cxl_latency,
    ),
    (
        "sweep_ratio",
        "sweep the local:CXL capacity ratio",
        sweeps::sweep_ratio,
    ),
    (
        "topology",
        "multi-socket/multi-CXL presets (2s2c, pooled, 3tier), Cache1/Web",
        sweeps::sweep_topology,
    ),
    (
        "thp",
        "transparent huge pages (never/madvise/always), Linux vs TPP",
        sweeps::sweep_thp,
    ),
];

struct Args {
    quick: bool,
    jobs: usize,
    csv_dir: PathBuf,
    trace: Option<PathBuf>,
    metrics_dir: Option<PathBuf>,
    timings_json: Option<PathBuf>,
    /// The targets to run, in order (empty for a capture-only run).
    targets: Vec<&'static Target>,
}

/// Worker threads to use when `--jobs` is not given: every core.
fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn parse_args() -> Args {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        quick: false,
        jobs: default_jobs(),
        csv_dir: PathBuf::from("results"),
        trace: None,
        metrics_dir: None,
        timings_json: None,
        targets: Vec::new(),
    };
    let mut names: Vec<String> = Vec::new();
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        let mut value_of = |flag: &str| match it.next() {
            Some(v) => v,
            None => {
                eprintln!("{flag} requires an argument");
                std::process::exit(2);
            }
        };
        match a.as_str() {
            "--list" => {
                let width = TARGETS.iter().map(|(n, ..)| n.len()).max().unwrap_or(0);
                for (name, desc, _) in TARGETS {
                    println!("{name:width$}  {desc}");
                }
                std::process::exit(0);
            }
            "--quick" => args.quick = true,
            "--jobs" => {
                let v = value_of("--jobs");
                args.jobs = match v.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("--jobs requires a positive integer, got {v:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--csv" => args.csv_dir = PathBuf::from(value_of("--csv")),
            "--trace" => args.trace = Some(PathBuf::from(value_of("--trace"))),
            "--metrics-dir" => args.metrics_dir = Some(PathBuf::from(value_of("--metrics-dir"))),
            "--timings-json" => {
                args.timings_json = Some(PathBuf::from(value_of("--timings-json")));
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag: {other}");
                eprintln!(
                    "flags: --list --quick --jobs <n> --csv <dir> --trace <path> \
                     --metrics-dir <dir> --timings-json <path>"
                );
                std::process::exit(2);
            }
            target => names.push(target.to_string()),
        }
    }
    // Reject a misspelt target before any target runs, not after the
    // ones named before it.
    let find = |t: &str| TARGETS.iter().find(|(name, ..)| *name == t);
    if let Some(other) = names.iter().find(|t| *t != "all" && find(t).is_none()) {
        eprintln!("unknown target: {other}");
        let known: Vec<&str> = TARGETS.iter().map(|(name, ..)| *name).collect();
        eprintln!("known: {} all (see --list)", known.join(" "));
        std::process::exit(2);
    }
    // A bare `--trace`/`--metrics-dir` invocation asks only for the
    // instrumented capture run; figure targets still default to `all`
    // when named explicitly or when no telemetry flag is present.
    let capture_only = args.trace.is_some() || args.metrics_dir.is_some();
    args.targets = if names.is_empty() && !capture_only || names.iter().any(|t| t == "all") {
        TARGETS.iter().collect()
    } else {
        // A target named twice runs once, where it was first named.
        let mut targets: Vec<&Target> = Vec::new();
        for target in names.iter().filter_map(|t| find(t)) {
            if !targets.iter().any(|&t| std::ptr::eq(t, target)) {
                targets.push(target);
            }
        }
        targets
    };
    args
}

fn main() {
    let args = parse_args();
    let scale = if args.quick {
        Scale::quick()
    } else {
        Scale::standard()
    };
    // Every table lands in the CSV directory, so a directory that cannot
    // be made fails the run before anything runs.
    if let Err(e) = std::fs::create_dir_all(&args.csv_dir) {
        eprintln!("cannot create csv dir {}: {e}", args.csv_dir.display());
        std::process::exit(1);
    }

    let run_start = Instant::now();
    let mut failed = false;

    // One queue for every selected target: each distinct job runs once,
    // then the tables render in target order.
    let plans: Vec<Plan> = args
        .targets
        .iter()
        .map(|(_, _, plan)| plan(&scale))
        .collect();
    let batch = executor::run(&plans, args.jobs);
    eprintln!(
        "jobs: {} run, {} reused",
        batch.jobs_run(),
        batch.jobs_reused()
    );

    let mut timings: Vec<(String, f64)> = Vec::new();
    let mut tables = Vec::new();
    for ((name, ..), plan) in args.targets.iter().zip(plans) {
        let t = Instant::now();
        let table = batch.table(plan);
        table.print();
        if let Err(e) = table.write_csv(&args.csv_dir) {
            eprintln!("{e}");
            failed = true;
        }
        timings.push((name.to_string(), t.elapsed().as_secs_f64()));
        tables.push(table);
    }

    if let Some(path) = &args.timings_json {
        let total_wall_s = run_start.elapsed().as_secs_f64();
        let accesses = batch.accesses();
        // One JSON row per job run, or per rendered target.
        let rows = |key: &str, rows: Vec<(String, f64)>| {
            let rows: Vec<String> = rows
                .iter()
                .map(|(name, secs)| format!("    {{\"{key}\": {name:?}, \"wall_s\": {secs:.3}}}"))
                .collect();
            rows.join(",\n")
        };
        let json = format!(
            "{{\n  \"jobs\": {},\n  \"scale\": \"{}\",\n  \"total_wall_s\": {:.3},\n  \
             \"simulated_accesses\": {accesses},\n  \"aggregate_ops_per_s\": {:.0},\n  \
             \"jobs_run\": {},\n  \"jobs_reused\": {},\n  \"job_timings\": [\n{}\n  ],\n  \
             \"targets\": [\n{}\n  ]\n}}\n",
            args.jobs,
            if args.quick { "quick" } else { "standard" },
            total_wall_s,
            accesses as f64 / total_wall_s.max(1e-9),
            batch.jobs_run(),
            batch.jobs_reused(),
            rows("job", batch.timings().collect()),
            rows("target", timings),
        );
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("cannot write timings to {}: {e}", path.display());
            failed = true;
        } else {
            eprintln!("timings written to {}", path.display());
        }
    }

    // Regression gate: at standard scale the simulator is deterministic,
    // so produced tables must match the checked-in snapshots.
    if !args.quick && !tables.is_empty() {
        let expected = tpp_bench::tolerance::expected_dir();
        let check = tpp_bench::tolerance::check_tables(&tables, &expected);
        if check.deviations.is_empty() {
            eprintln!(
                "tolerance check: {} table(s) match the expected snapshots",
                check.checked
            );
        } else {
            eprintln!(
                "tolerance check FAILED ({} table(s) checked):",
                check.checked
            );
            for d in &check.deviations {
                eprintln!("  {d}");
            }
            failed = true;
        }
        // Every target ran, so every snapshot must have met its table: one
        // left over belongs to a figure that no longer produces it.
        if args.targets.len() == TARGETS.len() && !check.unmatched.is_empty() {
            eprintln!("tolerance check FAILED: no table produced these snapshots:");
            for name in &check.unmatched {
                eprintln!("  {name}");
            }
            failed = true;
        }
    }

    if args.trace.is_some() || args.metrics_dir.is_some() {
        eprintln!("running instrumented capture (cache1, 1:4, tpp)...");
        match tpp_bench::capture::capture_run(
            &scale,
            &args.csv_dir,
            args.trace.as_deref(),
            args.metrics_dir.as_deref(),
        ) {
            Ok(outcome) => {
                if let Some(path) = &args.trace {
                    eprintln!(
                        "trace: {} events written to {}",
                        outcome.records.len(),
                        path.display()
                    );
                }
                if !outcome.parity_mismatches.is_empty() {
                    eprintln!("trace parity FAILED:");
                    for m in &outcome.parity_mismatches {
                        eprintln!("  {m}");
                    }
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("capture run failed: {e}");
                failed = true;
            }
        }
    }

    if failed {
        std::process::exit(1);
    }
}
