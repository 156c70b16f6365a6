#!/usr/bin/env bash
# Full local gate: formatting, lints (warnings are errors), and the
# complete workspace test suite. CI and pre-PR checks run exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test -q --workspace
# The microbench harness's own tests must finish under optimisation too
# (a closure the optimiser folds away makes its calibration loop spin).
cargo test --release -q -p tpp-bench --lib microbench
# Rustdoc must build warnings-clean (broken intra-doc links etc.).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q --workspace
# Benches must at least compile (running them is bench.sh's job).
cargo bench --no-run -q -p tpp-bench
# The policy benches assert what each pass did (every demotion-tick
# machine demoted, kswapd freed pages), so run them too (~4 s).
cargo bench -q -p tpp-bench --bench policies >/dev/null
# Every example must run to completion, not only compile (~9 s).
cargo build --release -q --examples
for example in examples/*.rs; do
  name="$(basename "$example" .rs)"
  ./target/release/examples/"$name" >/dev/null || {
    echo "example $name FAILED" >&2
    exit 1
  }
done
echo "examples: every example ran to completion"
# The benchmark package lives outside the workspace and implements the
# public `Workload` and `PlacementPolicy` traits, so a public-API change
# that breaks it must fail here too.
cargo build --release -q --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench
# Every workload's run digest must match the checked-in pin (~15 s).
scripts/perfbench_digests.sh target/perfbench/release/perfbench

# Executor determinism gates: a reduced-scale repro target must produce
# byte-identical tables and stdout with and without the parallel
# executor. (The checked-in expected/ CSV snapshots are standard-scale,
# so each quick run is gated against itself: --jobs 1 vs --jobs 2; the
# `all` run is also gated against expected/quick.sha256 below.)
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo build --release -q -p tpp-bench --bin repro
# An unknown target is rejected before any target runs: exit 2, no CSV.
status=0
./target/release/repro fig2 no_such_target --quick --csv "$tmp/bad" >/dev/null 2>&1 || status=$?
if [ "$status" -ne 2 ] || [ -n "$(find "$tmp/bad" -name '*.csv' 2>/dev/null)" ]; then
  echo "unknown-target gate FAILED: repro exited $status or wrote a CSV before rejecting the target" >&2
  exit 1
fi
echo "unknown-target gate: repro rejects a misspelt target before running any"
# The tolerance gate checks the tables this run produced, not whatever
# CSVs the output directory holds: a deviating Figure 15 snapshot left
# there must not fail a fig2 run (standard scale, no cells, <1 s).
mkdir -p "$tmp/stale"
sed '2s/[0-9]/9/g' crates/bench/expected/figure_15_2_1_local_cxl_default_linux_vs_tpp.csv \
  >"$tmp/stale/figure_15_2_1_local_cxl_default_linux_vs_tpp.csv"
status=0
./target/release/repro fig2 --csv "$tmp/stale" >/dev/null 2>"$tmp/stale.err" || status=$?
if [ "$status" -ne 0 ] || ! grep -q "tolerance check: 1 table(s) match" "$tmp/stale.err"; then
  echo "stale-csv gate FAILED: repro fig2 exited $status or did not check exactly its own table" >&2
  cat "$tmp/stale.err" >&2
  exit 1
fi
echo "stale-csv gate: repro fig2 checks only the table it produced"
# A CSV directory that cannot be created fails the run before any target.
touch "$tmp/regular_file"
status=0
./target/release/repro fig2 --csv "$tmp/regular_file/csv" >/dev/null 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
  echo "unwritable-csv gate FAILED: repro exited $status, not 1, for a --csv path under a regular file" >&2
  exit 1
fi
echo "unwritable-csv gate: repro exits 1 when the CSV directory cannot be created"
# A target named twice runs, writes and gates once: one fig2 timing row.
./target/release/repro --quick fig2 fig2 --csv "$tmp/dup" --timings-json "$tmp/dup.json" >/dev/null 2>&1
rows="$(grep -c '"target": "fig2"' "$tmp/dup.json" || true)"
if [ "$rows" -ne 1 ]; then
  echo "duplicate-target gate FAILED: repro fig2 fig2 wrote $rows fig2 timing rows, not 1" >&2
  exit 1
fi
echo "duplicate-target gate: repro fig2 fig2 runs fig2 once"

# determinism_gate <target> <label>
determinism_gate() {
  local target="$1" label="$2" out="$tmp/$1"
  ./target/release/repro "$target" --quick --jobs 1 --csv "$out/j1" >"$out.j1.out" 2>/dev/null
  ./target/release/repro "$target" --quick --jobs 2 --csv "$out/j2" >"$out.j2.out" 2>/dev/null
  diff -r "$out/j1" "$out/j2" >/dev/null || {
    echo "$label determinism gate FAILED: --jobs 2 CSV tables differ from --jobs 1" >&2
    exit 1
  }
  diff "$out.j1.out" "$out.j2.out" >/dev/null || {
    echo "$label determinism gate FAILED: --jobs 2 stdout differs from --jobs 1" >&2
    exit 1
  }
  echo "$label determinism gate: --jobs 2 output byte-identical to --jobs 1"
}

determinism_gate all executor
# Byte-identity gate: the quick run's tables and stdout must match the
# checked-in digests (reusing the --jobs 1 output above, no extra run).
# A change that means to move output regenerates the file in the same
# diff; see scripts/quick_digests.sh.
scripts/quick_digests.sh "$tmp/all/j1" "$tmp/all.j1.out" >"$tmp/quick.sha256"
diff crates/bench/expected/quick.sha256 "$tmp/quick.sha256" >&2 || {
  echo "byte-identity gate FAILED: repro all --quick output differs from crates/bench/expected/quick.sha256" >&2
  exit 1
}
echo "byte-identity gate: repro all --quick output matches crates/bench/expected/quick.sha256"
# Trace byte-identity gate: the `--trace` capture run's JSONL and stdout
# must match crates/bench/expected/trace.sha256. A change that means to
# move the trace copies "$tmp/trace.sha256" over the file, and says why.
./target/release/repro --quick --trace "$tmp/trace.jsonl" --csv "$tmp/trace_csv" >"$tmp/trace.out" 2>/dev/null
{
  (cd "$tmp" && sha256sum trace.jsonl)
  sha256sum <"$tmp/trace.out" | sed 's/-$/stdout/'
} >"$tmp/trace.sha256"
diff crates/bench/expected/trace.sha256 "$tmp/trace.sha256" >&2 || {
  echo "trace gate FAILED: repro --quick --trace output differs from crates/bench/expected/trace.sha256" >&2
  exit 1
}
echo "trace gate: repro --quick --trace output matches crates/bench/expected/trace.sha256"
# The multi-preset grid spans several machine shapes, so it exercises
# scheduling paths `all --quick` with two nodes does not.
determinism_gate topology topology
# The huge-page grid runs khugepaged/kcompactd in every non-`never` cell,
# exercising the compound-page paths the base-page targets never touch.
determinism_gate thp thp

# Code size, for information only (not a gate).
scripts/loc.sh || true

# If this change regenerated the checked-in bench report, surface the
# throughput delta for review.
if ! git diff --quiet HEAD -- BENCH_repro.json 2>/dev/null; then
  if git show HEAD:BENCH_repro.json >"$tmp/bench_baseline.json" 2>/dev/null; then
    echo "BENCH_repro.json changed; delta vs HEAD:"
    scripts/bench_delta.sh "$tmp/bench_baseline.json" BENCH_repro.json || true
  fi
fi
