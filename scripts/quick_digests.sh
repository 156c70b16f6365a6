#!/usr/bin/env bash
# Prints the byte-identity digests of a `repro all --quick` run: one
# `sha256sum` line per CSV table (sorted by name), then one line for the
# run's stdout. `scripts/check.sh` compares this against the checked-in
# `crates/bench/expected/quick.sha256`.
#
# A change that means to move output regenerates the file in the same
# diff, and says why:
#
#   ./target/release/repro all --quick --jobs 1 --csv /tmp/q >/tmp/q.out
#   scripts/quick_digests.sh /tmp/q /tmp/q.out >crates/bench/expected/quick.sha256
#
#   scripts/quick_digests.sh <csv dir> <stdout file>
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: $0 <csv dir> <stdout file>" >&2; exit 2; }
(cd "$1" && sha256sum -- *.csv) | LC_ALL=C sort -k2
sha256sum <"$2" | sed 's/-$/stdout/'
