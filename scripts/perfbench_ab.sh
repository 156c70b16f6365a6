#!/usr/bin/env bash
# A/B benchmark of two revisions. Checks each out into a temporary git
# worktree with its own target dir, then runs `perfbench/run.sh
# --workload <w> --trace 0` with identical arguments on both, for PAIRS
# pairs per workload, alternating which side goes first. For every
# workload and end-to-end metric it prints both sides' median and
# quartiles and the number of pairs the change won (strictly better, in
# the metric's `better` direction from BENCHMARK.json). Needs `jq`.
#
#   scripts/perfbench_ab.sh <parent-rev> [<change-rev>]    # change: HEAD
#
# Environment: PAIRS (default 10), RUN_SECONDS (default BENCHMARK.json's
# run_seconds), SEED (default 42), WORKLOADS (space-separated; default
# every BENCHMARK.json workload). Raw result lines stay in the temporary
# directory only while the script runs; KEEP=<dir> copies them there.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: scripts/perfbench_ab.sh <parent-rev> [<change-rev>]" >&2
  exit 2
fi
parent="$(git rev-parse --verify "$1^{commit}")"
change="$(git rev-parse --verify "${2:-HEAD}^{commit}")"
pairs="${PAIRS:-10}"
run_seconds="${RUN_SECONDS:-$(jq -r .run_seconds BENCHMARK.json)}"
seed="${SEED:-42}"
workloads="${WORKLOADS:-$(jq -r '.workloads[].name' BENCHMARK.json)}"
metrics="$(jq -r '.end_to_end[] | "\(.name) \(.better)"' BENCHMARK.json)"

tmp="$(mktemp -d)"
cleanup() {
  for side in parent change; do
    git worktree remove --force "$tmp/$side" 2>/dev/null || true
  done
  rm -rf "$tmp"
}
trap cleanup EXIT

for side in parent change; do
  git worktree add --detach --quiet "$tmp/$side" "${!side}"
  echo "building $side (${!side:0:10})..." >&2
  CARGO_TARGET_DIR="$tmp/$side.target" cargo build --release --quiet --offline \
    --manifest-path "$tmp/$side/perfbench/Cargo.toml"
done

# run <side> <workload> <pair>: one benchmark run; its result JSON line
# goes to $tmp/<workload>.<side>.<pair>.json.
run() {
  local out="$tmp/$2.$1.$3"
  CARGO_TARGET_DIR="$tmp/$1.target" bash "$tmp/$1/perfbench/run.sh" \
    --workload "$2" --seed "$seed" --seconds "$run_seconds" --trace 0 \
    >"$out.txt" 2>/dev/null || echo "$2: $1 run $3 reported a failure" >&2
  tail -n 1 "$out.txt" >"$out.json"
}

# values <workload> <side> <metric>: one value per pair, in pair order.
values() {
  local i
  for ((i = 0; i < pairs; i++)); do
    jq -r --arg m "$3" '.metrics[$m].value // "nan"' "$tmp/$1.$2.$i.json"
  done
}

# failed <workload> <side>: failed repetitions summed over the pairs.
failed() {
  cat "$tmp/$1.$2".*.json | jq -s 'map(.failed) | add'
}

echo "parent ${parent:0:10}  change ${change:0:10}  pairs $pairs  seconds $run_seconds  seed $seed"
for w in $workloads; do
  for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
      echo "$w pair $((i + 1))/$pairs: $side" >&2
      run "$side" "$w" "$i"
    done
  done
  echo
  echo "== $w (failed repetitions: parent $(failed "$w" parent), change $(failed "$w" change))"
  printf '%-22s %-40s %-40s %8s %6s\n' metric "parent median [q1, q3]" \
    "change median [q1, q3]" delta wins
  while read -r m better; do
    paste <(values "$w" parent "$m") <(values "$w" change "$m") | awk -v m="$m" -v better="$better" '
      # q(sorted, n, p): quantile p with linear interpolation.
      function q(s, n, p,   h, lo) {
        h = p * (n - 1); lo = int(h)
        return lo + 1 < n ? s[lo + 1] + (h - lo) * (s[lo + 2] - s[lo + 1]) : s[lo + 1]
      }
      function sort(a, n,   i, j, t) {
        for (i = 2; i <= n; i++)
          for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
      }
      {
        n++; p[n] = $1; c[n] = $2
        if ((better == "higher" && $2 > $1) || (better == "lower" && $2 < $1)) wins++
      }
      END {
        sort(p, n); sort(c, n)
        pm = q(p, n, 0.5); cm = q(c, n, 0.5)
        printf "%-22s %-40s %-40s %+7.2f%% %3d/%d\n", m,
          sprintf("%.6g [%.6g, %.6g]", pm, q(p, n, 0.25), q(p, n, 0.75)),
          sprintf("%.6g [%.6g, %.6g]", cm, q(c, n, 0.25), q(c, n, 0.75)),
          pm != 0 ? (cm - pm) / pm * 100 : 0, wins, n
      }'
  done <<<"$metrics"
done
if [ -n "${KEEP:-}" ]; then
  mkdir -p "$KEEP"
  cp "$tmp"/*.json "$tmp"/*.txt "$KEEP"/
fi
