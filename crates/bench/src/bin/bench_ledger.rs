//! Summarises repeated runs of the microbench suites for the performance
//! ledger (`scripts/bench.sh`).
//!
//! Reads report lines, as [`tpp_bench::microbench`] prints them, from
//! stdin: the output of several runs of the same bench binaries, one after
//! another. Prints one JSON object member per row, in the order rows first
//! appear, with the median and quartiles of the row's per-run medians and
//! the number of runs:
//!
//! ```text
//! "hotpath/zipf_sample": {"median": 23.0, "q1": 22.5, "q3": 24.0, "runs": 5},
//! ```
//!
//! The last member has no trailing comma, so the output drops into a JSON
//! object as is.
//!
//!   cargo bench -q -p tpp-bench --bench hotpath | bench_ledger

use std::io::BufRead;

use tpp_bench::microbench::{parse_report, quartiles};

fn main() -> std::io::Result<()> {
    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    for line in std::io::stdin().lock().lines() {
        let line = line?;
        let Some((name, ns)) = parse_report(&line) else {
            continue;
        };
        match rows.iter_mut().find(|(n, _)| n == name) {
            Some((_, runs)) => runs.push(ns),
            None => rows.push((name.to_string(), vec![ns])),
        }
    }
    let count = rows.len();
    for (i, (name, runs)) in rows.iter_mut().enumerate() {
        runs.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles(runs);
        let sep = if i + 1 < count { "," } else { "" };
        println!(
            "\"{name}\": {{\"median\": {median:.1}, \"q1\": {q1:.1}, \"q3\": {q3:.1}, \"runs\": {}}}{sep}",
            runs.len()
        );
    }
    Ok(())
}
