//! `repro` — regenerates every table and figure of the TPP paper.
//!
//! ```text
//! cargo run --release -p tpp-bench --bin repro -- all
//! cargo run --release -p tpp-bench --bin repro -- fig15 [--quick]
//! cargo run --release -p tpp-bench --bin repro -- --trace /tmp/t.jsonl
//! ```
//!
//! `repro` prints every table a target returns and writes it as CSV into
//! `results/` (override with `--csv <dir>`); a CSV directory that cannot
//! be created stops the run before any target runs, and a failed write
//! makes it exit non-zero. At standard scale, the tables this run
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

use tpp_bench::charfig::{self, Characterization};
use tpp_bench::evalfig;
use tpp_bench::sweeps;
use tpp_bench::{Scale, Table};

/// How a target computes its table: from the run's scale, or from the
/// characterization pass, which runs once before the first target when
/// any selected target takes it.
enum Run {
    Scaled(fn(&Scale) -> Table),
    Characterized(fn(&[Characterization]) -> Table),
}
use Run::{Characterized, Scaled};

/// A target's name, its one-line description (`repro --list`) and how it
/// runs.
type Target = (&'static str, &'static str, Run);

/// Every runnable experiment target, in `all` execution order.
const TARGETS: &[Target] = &[
    (
        "fig2",
        "memory-tier latency hierarchy of the simulated machine",
        Scaled(|_| charfig::fig2()),
    ),
    (
        "fig7",
        "total tracked memory vs. memory accessed in 1-/2-interval windows",
        Characterized(charfig::fig7),
    ),
    (
        "fig8",
        "per-page-type hotness within a 2-interval window",
        Characterized(charfig::fig8),
    ),
    (
        "fig9",
        "anon/file shares of resident memory over time",
        Characterized(charfig::fig9),
    ),
    (
        "fig10",
        "throughput vs. page-type utilisation per interval",
        Characterized(charfig::fig10),
    ),
    (
        "fig11",
        "re-access-interval CDF per workload",
        Characterized(charfig::fig11),
    ),
    (
        "fig15",
        "production 2:1 machine, Linux vs TPP, all four workloads",
        Scaled(evalfig::fig15),
    ),
    (
        "fig16",
        "memory expansion 1:4, Cache workloads",
        Scaled(evalfig::fig16),
    ),
    (
        "fig17",
        "ablation: allocation/reclamation watermark decoupling",
        Scaled(evalfig::fig17),
    ),
    (
        "fig18",
        "ablation: active-LRU promotion filter",
        Scaled(evalfig::fig18),
    ),
    (
        "table1",
        "page-type-aware allocation (caches to CXL)",
        Scaled(evalfig::table1),
    ),
    (
        "fig19",
        "TPP vs NUMA balancing vs AutoTiering",
        Scaled(evalfig::fig19),
    ),
    (
        "reclaim_rate",
        "reclaim mechanism rate probe (paper: ~44x)",
        Scaled(sweeps::reclaim_rate_comparison),
    ),
    (
        "zswap",
        "CXL as swap pool vs CXL as memory",
        Scaled(sweeps::zswap_comparison),
    ),
    (
        "colocation",
        "co-located cache1 + data_warehouse on one machine",
        Scaled(sweeps::colocation),
    ),
    (
        "sweep_dsf",
        "sweep demote_scale_factor on Cache1 1:4 under TPP",
        Scaled(sweeps::sweep_demote_scale),
    ),
    (
        "sweep_latency",
        "sweep CXL device latency on Cache1 1:4",
        Scaled(sweeps::sweep_cxl_latency),
    ),
    (
        "sweep_ratio",
        "sweep the local:CXL capacity ratio",
        Scaled(sweeps::sweep_ratio),
    ),
    (
        "topology",
        "multi-socket/multi-CXL presets (2s2c, pooled, 3tier), Cache1/Web",
        Scaled(sweeps::sweep_topology),
    ),
    (
        "thp",
        "transparent huge pages (never/madvise/always), Linux vs TPP",
        Scaled(sweeps::sweep_thp),
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
        names.iter().filter_map(|t| find(t)).collect()
    };
    args
}

fn main() {
    let args = parse_args();
    let mut scale = if args.quick {
        Scale::quick()
    } else {
        Scale::standard()
    };
    scale.jobs = args.jobs;
    // Every table lands in the CSV directory, so a directory that cannot
    // be made fails the run before anything runs.
    if let Err(e) = std::fs::create_dir_all(&args.csv_dir) {
        eprintln!("cannot create csv dir {}: {e}", args.csv_dir.display());
        std::process::exit(1);
    }

    let run_start = Instant::now();
    let mut timings: Vec<(&str, f64)> = Vec::new();
    let mut failed = false;

    let chars = if args
        .targets
        .iter()
        .any(|(_, _, run)| matches!(run, Characterized(_)))
    {
        eprintln!("characterizing workloads (Chameleon)...");
        let t = Instant::now();
        let chars = charfig::characterize_all(&scale);
        timings.push(("characterize", t.elapsed().as_secs_f64()));
        chars
    } else {
        Vec::new()
    };

    let mut tables = Vec::new();
    for (name, _, run) in &args.targets {
        eprintln!("running {name}...");
        let t = Instant::now();
        let table = match run {
            Scaled(f) => f(&scale),
            Characterized(f) => f(&chars),
        };
        table.print();
        if let Err(e) = table.write_csv(&args.csv_dir) {
            eprintln!("{e}");
            failed = true;
        }
        timings.push((name, t.elapsed().as_secs_f64()));
        tables.push(table);
    }

    // Every target ran its cells through `scale`, so each distinct cell
    // ran once; the rest were answered from its cache.
    let (cells_run, cells_reused) = (scale.cells.cells_run(), scale.cells.cells_reused());
    if cells_run > 0 {
        eprintln!("cells: {cells_run} run, {cells_reused} reused");
    }

    if let Some(path) = &args.timings_json {
        let total_wall_s = run_start.elapsed().as_secs_f64();
        let ops = tpp_bench::executor::ops_total();
        let per_target: Vec<String> = timings
            .iter()
            .map(|(name, secs)| format!("    {{\"target\": \"{name}\", \"wall_s\": {secs:.3}}}"))
            .collect();
        let json = format!(
            "{{\n  \"jobs\": {},\n  \"scale\": \"{}\",\n  \"total_wall_s\": {:.3},\n  \
             \"simulated_accesses\": {},\n  \"aggregate_ops_per_s\": {:.0},\n  \
             \"cells_run\": {cells_run},\n  \"cells_reused\": {cells_reused},\n  \"targets\": [\n{}\n  ]\n}}\n",
            scale.jobs,
            if args.quick { "quick" } else { "standard" },
            total_wall_s,
            ops,
            ops as f64 / total_wall_s.max(1e-9),
            per_target.join(",\n"),
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
        let (checked, deviations) = tpp_bench::tolerance::check_tables(&tables, &expected);
        if deviations.is_empty() {
            eprintln!("tolerance check: {checked} table(s) match the expected snapshots");
        } else {
            eprintln!("tolerance check FAILED ({checked} table(s) checked):");
            for d in &deviations {
                eprintln!("  {d}");
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
