#!/usr/bin/env bash
# Prints the delta between two bench.sh reports: the end-to-end
# aggregate simulated accesses/s of each repro section (`repro` at
# --jobs 2, `repro_jobs1` at --jobs 1), each section's distinct jobs run
# and repeated jobs reused (`-` where a report predates the job counts;
# older reports counted cells only, under `cells_run`/`cells_reused`), and
# every microbench row of the new report. A row shows its median and
# quartiles in both reports and is called `moved` only when the two
# quartile ranges do not overlap; otherwise it is `within noise`. Both
# reports must have per-row quartiles. Used by bench.sh (new run
# vs the checked-in baseline) and check.sh (working-tree BENCH_repro.json
# vs HEAD).
#
#   scripts/bench_delta.sh <baseline.json> <new.json>
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: scripts/bench_delta.sh <baseline.json> <new.json>" >&2
  exit 2
fi

# Flattens a report into "key median q1 q3" lines: one per microbench row
# (ns/iter) plus one <section>.<count> per repro section count, whose
# three values are the same number.
extract() {
  awk '
    /^  "repro[a-z0-9_]*":/ { section = $1; gsub(/[":]/, "", section) }
    /"microbench_ns_per_iter"/ { inmb = 1; next }
    inmb && /^  }/ { inmb = 0 }
    inmb {
      line = $0
      gsub(/[",:{}]/, " ", line)
      n = split(line, f, " ")
      if (n > 2) {
        for (i = 2; i < n; i += 2) v[f[i]] = f[i + 1]
        printf "%s %s %s %s\n", f[1], v["median"], v["q1"], v["q3"]
      }
    }
    /"(aggregate_ops_per_s|jobs_run|jobs_reused)"/ {
      line = $0
      gsub(/[",:]/, " ", line)
      split(line, f, " ")
      printf "%s.%s %s %s %s\n", section, f[1], f[2], f[2], f[2]
    }
  ' "$1"
}

join -a 2 -e - -o 0,1.2,1.3,1.4,2.2,2.3,2.4 \
  <(extract "$1" | sort -k1,1) <(extract "$2" | sort -k1,1) | awk '
  $1 ~ /jobs_(run|reused)$/ {
    printf "%-44s %11s -> %11s jobs\n", $1, $2, $5
    next
  }
  $2 == "-" {
    printf "%-44s %11s -> %9.1f [%.1f, %.1f] ns  (new row)\n", $1, "-", $5, $6, $7
    next
  }
  $1 ~ /aggregate_ops_per_s$/ {
    printf "%-44s %11.0f -> %11.0f /s  %+7.1f%%  (%.2fx)\n",
           $1, $2, $5, ($5 - $2) / $2 * 100, $5 / $2
    next
  }
  {
    verdict = ($7 < $3 || $6 > $4) ? "moved" : "within noise"
    printf "%-44s %9.1f [%.1f, %.1f] -> %9.1f [%.1f, %.1f] ns  %+7.1f%%  %s\n",
           $1, $2, $3, $4, $5, $6, $7, ($5 - $2) / $2 * 100, verdict
  }
'
