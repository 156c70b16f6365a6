#!/usr/bin/env bash
# Code-line counts for crates/core/src/policy, crates/mem/src/memory.rs
# and each crates/*/src, then a `total` row over every crates/*/src.
#
# A file's code lines are the lines above its first `#[cfg(test)]`,
# excluding blank lines and comment lines (`//`, `///`, `//!`).
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# count <path>...: code lines over every .rs file at or under each <path>
count() {
  find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_code = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_code = 0 }
    in_code && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
    END { print n + 0 }'
}

printf '%-28s %6s\n' "path" "code"
for dir in crates/core/src/policy crates/mem/src/memory.rs crates/*/src; do
  printf '%-28s %6s\n' "$dir" "$(count "$dir")"
done
printf '%-28s %6s\n' "total" "$(count crates/*/src)"
