#!/usr/bin/env bash
# CI entry point, run from the repository root. `dune runtest` runs the
# unit and property tests and every cheap deterministic CLI stage (see
# test/tools/dune). This script adds the stages that are too slow for
# it or start a daemon: full-evaluation determinism, PGO flag-off
# inertness, the daemon's warm, restarted and evidence-fed answers, and
# two differential fuzz smokes.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== dune build @all =="
dune build @all

echo "== dune runtest =="
dune runtest

bin=_build/default/bin
work="$(mktemp -d)"
served_pid=
cleanup() {
  if [ -n "$served_pid" ]; then kill "$served_pid" 2>/dev/null || true; fi
  rm -rf "$work"
}
trap cleanup EXIT

echo "== evaluation determinism: jobs x store, 4 ways =="
# the full evaluation is byte-identical whether rows are computed
# sequentially or fanned out over domains, and whether artifacts are
# fresh, memory-cached, or loaded back from a persistent store directory
# by a later process
store="$work/artifact-store"
eval_all() { # eval_all NAME [janus_eval flags...]
  local name=$1
  shift
  "$bin/janus_eval.exe" all --metrics "$@" \
    > "$work/$name.txt" 2> "$work/$name.metrics"
}
eval_all j1_cold --jobs 1 --store-dir "$store"
eval_all j1_warm --jobs 1 --store-dir "$store"
eval_all j4_cold --jobs 4
eval_all j4_warm --jobs 4 --store-dir "$store"
for name in j1_warm j4_cold j4_warm; do
  diff -u "$work/j1_cold.txt" "$work/$name.txt"
done
# the warm rerun came from disk: a fresh process with an empty memory
# layer reports disk hits and recomputes nothing, verification included
grep -Eq '^pipeline\.cache\.disk\.hits +[1-9]' "$work/j1_warm.metrics"
grep -Eq '^pipeline\.cache\.verified\.disk\.hits +[1-9]' "$work/j1_warm.metrics"
grep -Eq '^pipeline\.cache\.misses +0$' "$work/j1_warm.metrics"
grep -E '^(pipeline\.cache|pool)\.' "$work/j4_warm.metrics"

echo "== persistent PGO: flag-off inertness =="
# an empty profile store must not change a byte of the evaluation
mkdir -p "$work/pgo-empty"
"$bin/janus_eval.exe" all --profile-dir "$work/pgo-empty" > "$work/pgo_off.txt"
cmp "$work/j1_cold.txt" "$work/pgo_off.txt"

echo "== janus_served: warm, restarted and evidence-fed answers =="
sock="$work/served.sock"
start_daemon() {
  "$bin/janus_served.exe" serve --socket "$sock" \
    --store-dir "$work/served-store" --profile-dir "$work/served-profiles" \
    >> "$work/served.log" 2>&1 &
  served_pid=$!
  for _ in $(seq 1 100); do
    [ -S "$sock" ] && return 0
    sleep 0.1
  done
  echo "daemon never bound $sock" >&2
  exit 1
}
stop_daemon() {
  served stop
  wait "$served_pid"
  served_pid=
}
# replies are captured, then grepped: `| grep -q` would close the pipe at
# the first match and SIGPIPE the client under pipefail
served() { "$bin/janus_served.exe" "$1" --socket "$sock" "${@:2}"; }
schedule() { # schedule NAME BENCH: reply in NAME.txt, schedule in NAME.jrs
  served schedule --bench "$2" --out "$work/$1.jrs" | tee "$work/$1.txt"
}

start_daemon
# the same binary twice: the second answer is warm and byte-identical
schedule s1 410.bwaves
schedule s2 410.bwaves
cmp "$work/s1.jrs" "$work/s2.jrs"
grep -q 'cache-hit=false' "$work/s1.txt"
grep -q 'cache-hit=true' "$work/s2.txt"
served analyse --bench 410.bwaves > "$work/analyse.txt"
grep -q 'cache-hit=true' "$work/analyse.txt"
# a fleet member profiles adv.alias at its aliasing scale and ships the
# .jprof; the next answer is fed by that evidence and differs
schedule alias_before adv.alias
grep -q 'gen=-' "$work/alias_before.txt"
"$bin/janus_pgo_cli.exe" collect --bench adv.alias --store "$work/fleet" \
  --scale 250
served upload --file "$work"/fleet/*.jprof | tee "$work/upload.txt"
grep -q 'runs=1 total-runs=1' "$work/upload.txt"
schedule alias_after adv.alias
grep -Eq 'gen=[0-9a-f]+' "$work/alias_after.txt"
if cmp -s "$work/alias_before.jrs" "$work/alias_after.jrs"; then
  echo "uploaded evidence did not change the served schedule" >&2
  exit 1
fi
served metrics | tee "$work/served.metrics"
grep -Eq '^served\.schedule +4$' "$work/served.metrics"
grep -Eq '^served\.store_hits +[1-9]' "$work/served.metrics"
grep -Eq '^pipeline\.cache\.hits +[1-9]' "$work/served.metrics"
grep -Eq '^pgo\.ingested +1$' "$work/served.metrics"
grep -Eq '^pgo\.runs +[1-9]' "$work/served.metrics"
grep -Eq '^pgo\.store\.errors +0$' "$work/served.metrics"
# one training run per binary profiled: bwaves, and adv.alias before its
# evidence arrived
grep -Eq '^pipeline\.cache\.profile\.misses +2$' "$work/served.metrics"
stop_daemon

# a restarted daemon over the same directories answers both binaries
# from disk, byte-identical, with the merged evidence, verifying nothing
start_daemon
schedule s3 410.bwaves
grep -q 'cache-hit=true' "$work/s3.txt"
cmp "$work/s1.jrs" "$work/s3.jrs"
schedule alias_restart adv.alias
cmp "$work/alias_after.jrs" "$work/alias_restart.jrs"
served metrics > "$work/restart.metrics"
grep -Eq '^pipeline\.cache\.verified\.misses +0$' "$work/restart.metrics"
grep -Eq '^pipeline\.cache\.misses +0$' "$work/restart.metrics"
stop_daemon

echo "== differential fuzz smokes =="
# pinned seeds over the generator and the full-stack oracle; any
# violation leaves a shrunk reproducer in _build/ci/fuzz for upload
fuzz_dir=_build/ci/fuzz
mkdir -p "$fuzz_dir"
"$bin/janus_fuzz.exe" --seed 5 --count 200 --save-corpus --corpus-dir "$fuzz_dir"
"$bin/janus_fuzz.exe" --mixed --seed 7 --count 120 --save-corpus \
  --corpus-dir "$fuzz_dir"

echo "CI OK"
