#!/bin/sh
# Record a short MILP-map run with the trace and the log both on, then
# read each file back with `pipesyn explain'; every command must exit 0.
# A failing command's output is printed.
# Usage: check_explain.sh PIPESYN_EXE
exe=$1
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT
check() {
  if ! out=$("$@" 2>&1); then
    printf '%s\n' "$out"
    echo "check_explain: '$*' failed" >&2
    exit 1
  fi
}
check "$exe" run -b GFMUL -m map -t 3 --domains 1 \
  --trace "$dir/t.json" --log "$dir/l.ndjson"
check "$exe" explain "$dir/t.json"
check "$exe" explain "$dir/l.ndjson"
