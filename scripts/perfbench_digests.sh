#!/usr/bin/env bash
# Pins the simulation the benchmark runs: runs the perfbench binary on
# every workload (seed 42, one second each), requires every repetition of
# a workload, traced or untraced, to report the same run digest, and
# diffs the `<workload> <digest>` lines against the checked-in
# `crates/bench/expected/perfbench.digests`. Takes about 15 s.
#
#   scripts/perfbench_digests.sh [perfbench binary]
#
# The binary defaults to `target/perfbench/release/perfbench`, which
# `scripts/check.sh` builds. A change that means to move a digest
# regenerates the file with `--print` in the same diff, and says why:
#
#   scripts/perfbench_digests.sh --print >crates/bench/expected/perfbench.digests
set -euo pipefail
cd "$(dirname "$0")/.."

print=0
if [ "${1:-}" = "--print" ]; then
  print=1
  shift
fi
bin="${1:-target/perfbench/release/perfbench}"
expected=crates/bench/expected/perfbench.digests

# One `<workload> <digest>` line per workload, in run order; fails unless
# each workload reported exactly one distinct digest.
digests="$("$bin" --workload all --seed 42 --seconds 1 | awk '
  /^== / { w = $2; if (!(w in n)) { order[++k] = w; n[w] = 0 } }
  /^rep / { for (i = 1; i < NF; i++) if ($i == "digest" && !seen[w, $(i + 1)]++) { n[w]++; d[w] = $(i + 1) } }
  END {
    if (k == 0) { print "perfbench digests FAILED: no workload ran" > "/dev/stderr"; exit 1 }
    for (j = 1; j <= k; j++) {
      w = order[j]
      if (n[w] != 1) { printf "perfbench digests FAILED: %s reported %d distinct digests, not 1\n", w, n[w] > "/dev/stderr"; bad = 1 }
      print w, d[w]
    }
    exit bad
  }')"

if [ "$print" -eq 1 ]; then
  echo "$digests"
  exit 0
fi
diff "$expected" <(echo "$digests") >&2 || {
  echo "perfbench digests FAILED: run digests differ from $expected" >&2
  exit 1
}
echo "perfbench digests: every workload matches $expected"
