#!/usr/bin/env bash
# Lists the public functions nothing outside a unit test calls. Works on
# a temporary copy of the tree, never on the tree itself:
#
#   1. every `pub fn` in crates/*/src becomes `pub(crate) fn`;
#   2. `cargo check --all-targets` (the workspace, then the out-of-
#      workspace perfbench/ package) runs until it compiles; each round
#      restores `pub` on every narrowed function a compile error points
#      at (the definition a privacy error names, or else the narrowed
#      functions of the name the error highlights);
#   3. `cargo check --workspace --lib --bins` then prints rustc's
#      `dead_code` warnings, one `file:line: name` each: functions whose
#      only callers are the unit tests of their own crate, or nothing.
#
# The kept items CHANGES.md lists are the only expected lines. Doc
# examples are not compiled, so a function only a doc example calls is
# listed too. About 40 s from a cold target dir on 2 vCPUs (one
# incremental check per round). Needs `jq`.
#
#   scripts/dead_api.sh
#
# Environment: CARGO_TARGET_DIR (default: inside the temporary copy)
# keeps the copy's build between runs.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
work="$tmp/repo"
mkdir -p "$work"
tar -cf - --exclude=./.git --exclude=./target --exclude=./results \
  --exclude=./.bench_build --exclude=./perfbench/target . | tar -xf - -C "$work"
cd "$work"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$work/target}"

# 1. Narrow every public function, remembering each narrowed line.
narrowed="$tmp/narrowed"
grep -rnE --include='*.rs' '^[[:space:]]*pub (const )?fn ' crates/*/src |
  cut -d: -f1,2 | sort -u >"$narrowed"
find crates/*/src -name '*.rs' -print0 |
  xargs -0 sed -i -E 's/^([[:space:]]*)pub ((const )?fn )/\1pub(crate) \2/'
echo "narrowed $(wc -l <"$narrowed") functions" >&2

# restore <file:line>...: puts `pub` back on narrowed lines; prints how
# many it restored.
restore() {
  local n=0 loc
  for loc in "$@"; do
    grep -qxF "$loc" "$narrowed" || continue
    grep -qxF "$loc" "$tmp/restored" && continue
    sed -i -E "${loc#*:}s/pub\(crate\) /pub /" "${loc%%:*}"
    echo "$loc" >>"$tmp/restored"
    n=$((n + 1))
  done
  echo "$n"
}

# errors <cargo args>...: runs `cargo check` with JSON messages and
# writes one JSON object per compile error to $tmp/errors.
errors() {
  cargo check -q --offline --message-format=json "$@" 2>/dev/null |
    jq -c 'select(.reason == "compiler-message" and .message.level == "error")
      | .message' >"$tmp/errors" || true
}

# 2. Restore `pub` wherever another crate, test, example, bench or
# perfbench needs it, until everything compiles.
check_until_clean() {
  local round=0 locs names dir_name dir indent name scope n
  while :; do
    errors "$@"
    [ -s "$tmp/errors" ] || return 0
    round=$((round + 1))
    # Spans (at any depth) on narrowed lines, as relative file:line.
    mapfile -t locs < <(jq -r '.. | objects | select(has("file_name") and has("line_start"))
        | "\(.file_name):\(.line_start)"' "$tmp/errors" |
      sed -E "s#^(\.\./)+##; s#^$work/##" | sort -u)
    n="$(restore "${locs[@]}")"
    if [ "$n" -eq 0 ]; then
      # No span points at a definition (a `pub use` of a narrowed
      # function, or a call that resolved to some other method once the
      # narrowed one was out of reach): restore the narrowed functions
      # named by the code each error highlights, in the erroring crate
      # if it has any, else in every crate. A re-export names a free
      # function, never a method.
      mapfile -t names < <(jq -r '(if .code.code == "E0364" then "" else "[[:space:]]*" end) as $indent
          | .spans[] | select(.is_primary)
          | (.file_name | sub("^(\\.\\./)+"; "") | (capture("^(?<d>crates/[^/]+/src)").d // "crates"))
            + " " + (.text[0] | .text[.highlight_start - 1:.highlight_end - 1]) + " ^" + $indent' \
        "$tmp/errors" | grep -E '^[^ ]+ [A-Za-z_][A-Za-z0-9_]* ' | sort -u)
      for dir_name in "${names[@]}"; do
        read -r dir name indent <<<"$dir_name"
        for scope in "$dir" 'crates/*/src'; do
          # The second scope is a glob, so it stays unquoted.
          mapfile -t locs < <(grep -rnE --include='*.rs' \
            "${indent}pub\(crate\) (const )?fn ${name}\b" $scope | cut -d: -f1,2)
          [ "${#locs[@]}" -eq 0 ] || break
        done
        n=$((n + $(restore "${locs[@]}")))
      done
    fi
    if [ "$n" -eq 0 ]; then
      echo "round $round: errors that name no narrowed function:" >&2
      jq -r '.rendered' "$tmp/errors" >&2
      exit 1
    fi
    echo "round $round: restored $n" >&2
  done
}
: >"$tmp/restored"
check_until_clean --workspace --all-targets
check_until_clean --manifest-path perfbench/Cargo.toml --all-targets
echo "kept pub on $(wc -l <"$tmp/restored") of $(wc -l <"$narrowed")" >&2

# 3. What is left unreached outside unit tests.
cargo check -q --offline --workspace --lib --bins --message-format=json 2>/dev/null |
  jq -r 'select(.reason == "compiler-message" and .message.code.code == "dead_code")
    | .message.spans[] | select(.is_primary)
    | "\(.file_name):\(.line_start): \(.text[0] | .text[.highlight_start - 1:.highlight_end - 1])"'
