#!/usr/bin/env bash
# Full local gate: formatting, lints (warnings are errors), and the
# complete workspace test suite. CI and pre-PR checks run exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo clippy --workspace -- -D warnings
cargo test -q --workspace
# The microbench harness's own tests must finish under optimisation too
# (a closure the optimiser folds away makes its calibration loop spin).
cargo test --release -q -p tpp-bench --lib microbench
# Rustdoc must build warnings-clean (broken intra-doc links etc.).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q --workspace
# Benches must at least compile (running them is bench.sh's job).
cargo bench --no-run -q -p tpp-bench
# The benchmark package lives outside the workspace and implements the
# public `Workload` and `PlacementPolicy` traits, so a public-API change
# that breaks it must fail here too.
cargo build --release -q --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

# Executor determinism gates: a reduced-scale repro target must produce
# byte-identical tables and stdout with and without the parallel
# executor. (The checked-in expected/ snapshots are standard-scale, so
# each quick run is gated against itself: --jobs 1 vs --jobs 2.)
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo build --release -q -p tpp-bench --bin repro

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
