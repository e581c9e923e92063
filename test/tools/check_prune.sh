#!/usr/bin/env bash
# The profile store's prune CLI end to end: collect one profile into a
# fresh store, prune it to a zero-byte budget, and check that the tool
# reports exactly one deletion and that the .jprof is gone.
# Usage: check_prune.sh PATH/TO/janus_pgo_cli.exe
set -eu

pgo=$1
fail() { echo "prune CLI test: $1" >&2; exit 1; }

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
store="$work/profiles"

"$pgo" collect --bench 470.lbm --store "$store" --scale 2 > "$work/collect.out"
ls "$store"/*.jprof > /dev/null 2>&1 || fail "collect wrote no .jprof"

"$pgo" store prune --dir "$store" --max-bytes 0 > "$work/prune.out"
grep -q '^pruned=1 ' "$work/prune.out" ||
  fail "expected pruned=1, got: $(cat "$work/prune.out")"
if ls "$store"/*.jprof > /dev/null 2>&1; then
  fail "the .jprof survived a zero-byte budget"
fi
