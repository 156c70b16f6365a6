#!/usr/bin/env bash
# Prints the throughput delta between two bench.sh reports: the
# end-to-end aggregate simulated accesses/s of each repro section
# (`repro` at --jobs 2, `repro_jobs1` at --jobs 1) plus every microbench
# row present in both files, and each section's distinct cells run and
# repeated cells reused (`-` where a report predates the counts). Used by
# bench.sh (new run vs the checked-in baseline) and check.sh
# (working-tree BENCH_repro.json vs HEAD).
#
#   scripts/bench_delta.sh <baseline.json> <new.json>
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: scripts/bench_delta.sh <baseline.json> <new.json>" >&2
  exit 2
fi

# Flattens a report into "key value" lines: one per microbench row
# (ns/iter) plus one <section>.aggregate_ops_per_s per repro section.
extract() {
  awk '
    /^  "repro[a-z0-9_]*":/ { section = $1; gsub(/[":]/, "", section) }
    /"microbench_median_ns_per_iter"/ { inmb = 1; next }
    inmb && /}/ { inmb = 0 }
    inmb {
      line = $0
      gsub(/[",:]/, " ", line)
      n = split(line, f, " ")
      if (n >= 2) printf "%s %s\n", f[1], f[2]
    }
    /"(aggregate_ops_per_s|cells_run|cells_reused)"/ {
      line = $0
      gsub(/[",:]/, " ", line)
      split(line, f, " ")
      printf "%s.%s %s\n", section, f[1], f[2]
    }
  ' "$1"
}

join -a 2 -e - -o 0,1.2,2.2 <(extract "$1" | sort -k1,1) <(extract "$2" | sort -k1,1) | awk '
  $1 ~ /cells_(run|reused)$/ {
    printf "%-52s %11s -> %11s cells\n", $1, $2, $3
    next
  }
  $2 == "-" { next }
  $1 ~ /aggregate_ops_per_s$/ {
    printf "%-52s %11.0f -> %11.0f /s  %+7.1f%%  (%.2fx)\n",
           $1, $2, $3, ($3 - $2) / $2 * 100, $3 / $2
    next
  }
  {
    printf "%-52s %11.1f -> %11.1f ns  %+7.1f%%\n",
           $1, $2, $3, ($3 - $2) / $2 * 100
  }
'
