#!/usr/bin/env bash
# Loop fission end to end. Nothing splits in saxpy (smoke.jx), so
# --fission must not change a schedule byte. adv.fission's chain+stream
# loop splits: LOOP_FISSION ships and lints clean, the fissioned run
# prints native's output, and the fission.* counters say one loop split
# and none was demoted.
# Usage: check_fission.sh BIN_DIR (run from the directory of smoke.jx)
set -eu

bin=$1
fail() { echo "fission check: $1" >&2; exit 1; }

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

"$bin/janus_analyze.exe" smoke.jx --emit-schedule "$work/off.jrs" > /dev/null
"$bin/janus_analyze.exe" smoke.jx --fission --emit-schedule "$work/on.jrs" \
  > /dev/null
cmp -s "$work/off.jrs" "$work/on.jrs" || fail "--fission changed saxpy's schedule"

jx="$work/adv_fission.jx"
jrs="$work/adv_fission.jrs"
./suite_jx.exe adv.fission "$jx"
"$bin/janus_analyze.exe" "$jx" --fission --emit-schedule "$jrs" --verify \
  > /dev/null
"$bin/jrs_dump.exe" "$jrs" > "$work/dump"
grep -q LOOP_FISSION "$work/dump" || fail "no LOOP_FISSION rule shipped"
"$bin/jverify.exe" "$jx" "$jrs" > /dev/null

run() { "$bin/janus_run.exe" "$jx" --scale 40 --train-scale 6 "$@"; }
run --mode native > "$work/native.out"
run --fission --threads 4 --metrics > "$work/fission.out"
[ "$(sed -n '/^---/q;p' "$work/native.out")" = \
  "$(sed -n '/^---/q;p' "$work/fission.out")" ] ||
  fail "fissioned output differs from native"
grep -Eq '^fission\.split +[1-9]' "$work/fission.out" || fail "no loop split"
grep -Eq '^fission\.demoted +0$' "$work/fission.out" || fail "a split was demoted"
