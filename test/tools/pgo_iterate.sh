#!/usr/bin/env bash
# Print `janus_pgo iterate` on adv.alias over a fresh profile store, and
# fail unless it converged, some round flipped a dependence verdict and
# the final schedule beats train-once (round 0). A transcript that loses
# to train-once is never printed, so it can never be pinned.
# Usage: pgo_iterate.sh PATH/TO/janus_pgo_cli.exe
set -eu

fail() { echo "pgo iterate: $1" >&2; exit 1; }

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
out="$work/iterate.out"

"$1" iterate --bench adv.alias --store "$work/profiles" --rounds 4 > "$out"
grep -q '^converged=true ' "$out" || fail "did not converge"
grep -Eq '^round=[0-9]+ .* flipped=[1-9]' "$out" || fail "no verdict flipped"
summary=$(tail -n 1 "$out")
base=$(echo "$summary" | sed -n 's/.* baseline-cycles=\([0-9]*\) .*/\1/p')
final=$(echo "$summary" | sed -n 's/.* final-cycles=\([0-9]*\)$/\1/p')
[ -n "$base" ] && [ -n "$final" ] || fail "no summary line: $summary"
[ "$final" -lt "$base" ] ||
  fail "final $final cycles do not beat train-once's $base"
cat "$out"
