#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through to the binary, e.g.
#
#   bash perfbench/run.sh --workload tpp_expand --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all --seconds 20
#
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
cargo build --release --quiet --offline --manifest-path "$root/perfbench/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
