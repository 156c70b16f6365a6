//! The `repro --trace` capture run: one instrumented TPP run whose full
//! event stream is recorded, checked for counter parity, diagnosed for
//! ping-pong churn, and exported in machine-readable form.
//!
//! The figure targets themselves always run untraced, so their numbers
//! are bit-identical whether or not a capture is requested; the capture
//! is a separate, dedicated run.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use tiered_mem::telemetry::{replay_counters, write_jsonl, TraceRecord, TRACED_COUNTERS};
use tiered_sim::{fraction, SEC};
use tpp::configs::Shape;
use tpp::experiment::PolicyChoice;
use tpp::metrics::{decision_summary, ping_pong_report, vmstat_csv};

use crate::scale::{Scale, Table};

/// Everything the capture run produced.
pub struct CaptureOutcome {
    /// The full event stream, one JSONL line each in the `--trace` file.
    pub records: Vec<TraceRecord>,
    /// Counters where the replayed trace disagrees with vmstat (must be
    /// empty: `Memory::record` bumps both from one call).
    pub parity_mismatches: Vec<String>,
}

/// Runs the dedicated capture workload (cache1 on the 1:4 machine under
/// TPP) with tracing on, writes its records to `trace_path` (JSONL, when
/// given), then prints the parity table, the decision summary, the
/// ping-pong report and a trace section (the event span, placement
/// churn and events by kind). The three tables are also written as CSV
/// into `csv_dir`. Exports the run's metrics into `metrics_dir` when
/// given.
///
/// # Errors
///
/// Propagates filesystem errors from the trace file, the CSV tables or
/// the metrics exports.
pub fn capture_run(
    scale: &Scale,
    csv_dir: &Path,
    trace_path: Option<&Path>,
    metrics_dir: Option<&Path>,
) -> std::io::Result<CaptureOutcome> {
    let profile = tiered_workloads::cache1(scale.ws_pages);
    // The capture cell is the same spec the figures use, built here so
    // tracing can be enabled before it runs.
    let spec = crate::evalfig::cell(&profile, Shape::Ratio(1, 4), PolicyChoice::Tpp, scale);
    let mut system = spec.build_system().expect("tpp supports the 1:4 machine");
    // Open the trace file first so a bad path fails before the run.
    let trace_file = trace_path.map(File::create).transpose()?;

    system.enable_trace();
    // The capture run is a diagnosis run, not a figure run: a bounded
    // duration keeps the in-memory trace small while still exercising
    // every event class (faults, promotion, demotion, reclaim).
    system.run(scale.duration_ns.min(30 * SEC));
    let records = system.take_trace();
    if let Some(file) = trace_file {
        let mut out = BufWriter::new(file);
        write_jsonl(&records, &mut out)?;
        out.flush()?;
    }

    let vmstat = system.memory().vmstat();
    let replayed = replay_counters(&records);
    let mut parity_mismatches = Vec::new();
    let rows: Vec<Vec<String>> = TRACED_COUNTERS
        .iter()
        .map(|&e| {
            let counted = vmstat.get(e);
            let traced = replayed.get(e);
            if counted != traced {
                parity_mismatches.push(format!("{}: vmstat {counted} vs trace {traced}", e.name()));
            }
            vec![
                e.name().to_string(),
                counted.to_string(),
                traced.to_string(),
                if counted == traced { "ok" } else { "MISMATCH" }.to_string(),
            ]
        })
        .collect();
    let emit = |table: &Table| {
        table.print();
        table.write_csv(csv_dir)
    };
    emit(&Table::new(
        "Trace parity — vmstat counters vs replayed trace events",
        &["counter", "vmstat", "trace", "status"],
        rows,
    ))?;

    let summaries = decision_summary(&records);
    let decisions = Table::new(
        "Policy decisions (from trace)",
        &["policy", "reason", "count"],
        summaries
            .iter()
            .flat_map(|s| {
                s.reasons
                    .iter()
                    .map(|(reason, count)| {
                        vec![s.policy.clone(), reason.clone(), count.to_string()]
                    })
                    .collect::<Vec<_>>()
            })
            .collect(),
    );
    emit(&decisions)?;

    let ping_pong = ping_pong_report(&records);
    emit(&Table::new(
        "Ping-pong report (paper §5.5)",
        &[
            "promotions",
            "demotions",
            "candidates",
            "candidate_demoted",
            "round_trips",
            "thrashing",
        ],
        vec![vec![
            ping_pong.promotions.to_string(),
            ping_pong.demotions.to_string(),
            ping_pong.promote_candidates.to_string(),
            ping_pong.candidates_recently_demoted.to_string(),
            ping_pong.round_trips.to_string(),
            ping_pong.is_thrashing().to_string(),
        ]],
    ))?;

    let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
    for r in &records {
        *by_kind.entry(r.event.name()).or_insert(0) += 1;
    }
    let first_ns = records.first().map_or(0, |r| r.ts_ns);
    let span_ns = records
        .last()
        .map_or(0, |r| r.ts_ns)
        .saturating_sub(first_ns);
    println!("\n== Trace section: {} ==", profile.name);
    println!(
        "events: {} over {:.1}s simulated",
        records.len(),
        span_ns as f64 / 1e9
    );
    println!(
        "placement: {} promotions, {} demotions, churn {:.1}% of {} candidates",
        ping_pong.promotions,
        ping_pong.demotions,
        fraction(
            ping_pong.candidates_recently_demoted,
            ping_pong.promote_candidates
        ) * 100.0,
        ping_pong.promote_candidates
    );
    println!("events by kind:");
    for (name, count) in &by_kind {
        println!("  {name:<28} {count}");
    }
    if !decisions.rows.is_empty() {
        println!("policy decisions:");
        for row in &decisions.rows {
            println!("  {}/{}: {}", row[0], row[1], row[2]);
        }
    }
    println!();

    if let Some(dir) = metrics_dir {
        std::fs::create_dir_all(dir)?;
        system.metrics().write_exports(dir, "capture_cache1_tpp")?;
        std::fs::write(
            dir.join("capture_cache1_tpp_vmstat.csv"),
            vmstat_csv(vmstat),
        )?;
        let mut pp = ping_pong.to_json();
        pp.push('\n');
        std::fs::write(dir.join("capture_cache1_tpp_ping_pong.json"), pp)?;
        eprintln!("metrics exported to {}", dir.display());
    }

    Ok(CaptureOutcome {
        records,
        parity_mismatches,
    })
}
