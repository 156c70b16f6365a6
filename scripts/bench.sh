#!/usr/bin/env bash
# Performance snapshot: the substrate, hotpath and policy microbench
# suites plus two timed standard-scale `repro all` runs, merged into one
# JSON report (default: BENCH_repro.json at the repo root, which is
# checked in). The `repro` section runs at `--jobs 2`, the `repro_jobs1`
# section at `--jobs 1` (the serial cost, free of scheduling effects).
#
# One run of a microbench row moves more between runs of the same
# binary than most code changes move it, so the three suites run RUNS
# times in a row and each row records the median and quartiles of its
# per-run medians (the `bench_ledger` binary, on the harness's own
# statistics). `scripts/bench_delta.sh` calls a row moved only when two
# reports' quartile ranges do not overlap.
#
# The microbench section carries its own baseline: the
# `hashmap_*_baseline` entries measure a std::collections::HashMap page
# table under the same load as the radix table's `translate_*` entries.
#
#   scripts/bench.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_repro.json}"

RUNS=5

cargo build --release -q -p tpp-bench --benches --bin repro --bin bench_ledger

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

for ((run = 1; run <= RUNS; run++)); do
  for suite in substrate hotpath policies; do
    echo "running $suite microbenches ($run/$RUNS)..." >&2
    cargo bench -q -p tpp-bench --bench "$suite" 2>/dev/null | tee -a "$tmp/micro.txt" >&2
  done
done

for jobs in 2 1; do
  echo "running standard-scale repro (--jobs $jobs)..." >&2
  ./target/release/repro all --jobs "$jobs" --csv "$tmp/results$jobs" \
    --timings-json "$tmp/repro$jobs.json" >"$tmp/repro$jobs.out"
done

# Assemble the report: host info (including the CPU model, since
# reports from different hosts differ by several times on every row,
# and the revision the numbers were measured at), what the access
# counts count, each microbench row's median and quartiles over the
# runs (ns/iter), and both repro timing JSONs verbatim.
GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
git diff --quiet HEAD 2>/dev/null || GIT_REV="$GIT_REV-dirty"
CPU="$(sed -n 's/^model name[[:space:]]*: *//p' /proc/cpuinfo 2>/dev/null | head -n 1)"
{
  echo "{"
  echo "  \"host\": {\"cpus\": $(nproc), \"cpu\": \"${CPU:-unknown}\", \"os\": \"$(uname -sr)\", \"git_rev\": \"$GIT_REV\"},"
  echo "  \"accounting\": \"simulated_accesses and aggregate_ops_per_s count the cells_run distinct cells; the cells_reused repeats take an earlier cell's result and simulate nothing\","
  echo "  \"microbench_ns_per_iter\": {"
  ./target/release/bench_ledger <"$tmp/micro.txt" | sed 's/^/    /'
  echo "  },"
  echo "  \"repro\":"
  sed 's/^/  /; $s/$/,/' "$tmp/repro2.json"
  echo "  \"repro_jobs1\":"
  sed 's/^/  /' "$tmp/repro1.json"
  echo "}"
} >"$OUT"

echo "report written to $OUT" >&2

# Make regressions visible in review: print the delta against the
# checked-in baseline (skipped when the report IS the committed one).
if git show HEAD:BENCH_repro.json >"$tmp/baseline.json" 2>/dev/null; then
  echo "delta vs BENCH_repro.json at HEAD:" >&2
  scripts/bench_delta.sh "$tmp/baseline.json" "$OUT" >&2 || true
fi
