#!/usr/bin/env bash
# CI entry point: build everything, run the test suite, then prove the
# example guests' generated rewrite schedules verify clean with the
# standalone verifier. Run from the repository root.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== dune build @all =="
dune build @all

echo "== dune runtest =="
dune runtest

echo "== schedule verification over examples/guests =="
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
shopt -s nullglob
guests=(examples/guests/*.jc)
if [ ${#guests[@]} -eq 0 ]; then
  echo "no guests found" >&2
  exit 1
fi
for src in "${guests[@]}"; do
  name="$(basename "$src" .jc)"
  jx="$work/$name.jx"
  jrs="$work/$name.jrs"
  dune exec bin/jcc.exe -- "$src" -o "$jx"
  dune exec bin/janus_analyze.exe -- "$jx" --emit-schedule "$jrs" --verify \
    > "$work/$name.analyze.log"
  dune exec bin/jverify.exe -- "$jx" "$jrs"
  dune exec bin/jverify.exe -- --crosscheck "$jx" "$jrs"
done

echo "== evaluation determinism: jobs x store, 4 ways =="
# the headline guarantee of the staged pipeline: the full evaluation is
# byte-identical whether rows are computed sequentially or fanned out
# over domains, and whether artifacts are fresh, memory-cached, or
# loaded back from a persistent store directory by a later process
store_dir="$work/artifact-store"
dune exec bin/janus_eval.exe -- all --jobs 1 --metrics \
  --store-dir "$store_dir" \
  > "$work/eval_j1_cold.txt" 2> "$work/eval_j1_cold.metrics"
dune exec bin/janus_eval.exe -- all --jobs 1 --metrics \
  --store-dir "$store_dir" \
  > "$work/eval_j1_warm.txt" 2> "$work/eval_j1_warm.metrics"
dune exec bin/janus_eval.exe -- all --jobs 4 --metrics \
  > "$work/eval_j4_cold.txt" 2> "$work/eval_j4_cold.metrics"
dune exec bin/janus_eval.exe -- all --jobs 4 --metrics \
  --store-dir "$store_dir" \
  > "$work/eval_j4_warm.txt" 2> "$work/eval_j4_warm.metrics"
diff -u "$work/eval_j1_cold.txt" "$work/eval_j1_warm.txt"
diff -u "$work/eval_j1_cold.txt" "$work/eval_j4_cold.txt"
diff -u "$work/eval_j1_cold.txt" "$work/eval_j4_warm.txt"
# the warm rerun really did come from disk: a fresh process with an
# empty memory layer must report disk hits and no recomputation -
# verification included, since verdicts are store artifacts too
grep -Eq '^pipeline\.cache\.disk\.hits +[1-9]' "$work/eval_j1_warm.metrics"
grep -Eq '^pipeline\.cache\.verified\.disk\.hits +[1-9]' \
  "$work/eval_j1_warm.metrics"
grep -Eq '^pipeline\.cache\.misses +0$' "$work/eval_j1_warm.metrics"
echo "-- pipeline cache counters (--jobs 1, cold) --"
grep -E '^(pipeline\.cache|pool)\.' "$work/eval_j1_cold.metrics"
echo "-- pipeline cache counters (--jobs 4, warm store) --"
grep -E '^(pipeline\.cache|pool)\.' "$work/eval_j4_warm.metrics"

echo "== experiment registry =="
dune exec bin/janus_eval.exe -- --list

echo "== janus_served: warm answers over a unix socket =="
# start the daemon from the already-built binary (dune exec would
# contend for the build lock with the client invocations below)
served=_build/default/bin/janus_served.exe
sock="$work/janus_served.sock"
served_store="$work/served-store"
"$served" serve --socket "$sock" --store-dir "$served_store" \
  > "$work/served.log" 2>&1 &
served_pid=$!
for _ in $(seq 1 100); do
  [ -S "$sock" ] && break
  sleep 0.1
done
[ -S "$sock" ] || { echo "daemon never bound $sock" >&2; exit 1; }
# same binary twice: the second schedule must be a warm store answer
# and byte-identical to the first
"$served" schedule --socket "$sock" --bench 410.bwaves \
  --out "$work/served_s1.jrs" | tee "$work/served_s1.txt"
"$served" schedule --socket "$sock" --bench 410.bwaves \
  --out "$work/served_s2.jrs" | tee "$work/served_s2.txt"
cmp "$work/served_s1.jrs" "$work/served_s2.jrs"
grep -q 'cache-hit=false' "$work/served_s1.txt"
grep -q 'cache-hit=true' "$work/served_s2.txt"
"$served" analyse --socket "$sock" --bench 410.bwaves > "$work/served_a.txt"
grep -q 'cache-hit=true' "$work/served_a.txt"
echo "-- served counters --"
"$served" metrics --socket "$sock" | tee "$work/served.metrics"
grep -Eq '^served\.schedule +2' "$work/served.metrics"
grep -Eq '^served\.store_hits +[1-9]' "$work/served.metrics"
grep -Eq '^pipeline\.cache\.hits +[1-9]' "$work/served.metrics"
"$served" stop --socket "$sock"
wait "$served_pid"
# a restarted daemon over the same store directory answers from disk
"$served" serve --socket "$sock" --store-dir "$served_store" \
  >> "$work/served.log" 2>&1 &
served_pid=$!
for _ in $(seq 1 100); do
  [ -S "$sock" ] && break
  sleep 0.1
done
"$served" schedule --socket "$sock" --bench 410.bwaves \
  --out "$work/served_s3.jrs" > "$work/served_s3.txt"
grep -q 'cache-hit=true' "$work/served_s3.txt"
cmp "$work/served_s1.jrs" "$work/served_s3.jrs"
# ... including the verifier's verdict: nothing was re-verified
"$served" metrics --socket "$sock" > "$work/served_restart.metrics"
grep -Eq '^pipeline\.cache\.verified\.misses +0$' "$work/served_restart.metrics"
"$served" stop --socket "$sock"
wait "$served_pid"

echo "== persistent PGO: flag-off inertness =="
# an empty profile store (or none) must not change a byte of the
# evaluation: evidence only enters selection when runs are stored
mkdir -p "$work/pgo-empty"
dune exec bin/janus_eval.exe -- all --profile-dir "$work/pgo-empty" \
  > "$work/eval_pgo_off.txt"
cmp "$work/eval_j1_cold.txt" "$work/eval_pgo_off.txt"

echo "== persistent PGO: iterate to a stable schedule =="
# adv.alias under-observes an aliasing dependence at training scale;
# one fleet round must flip the verdict, beat the train-once cycles,
# and the next round must reproduce the schedule byte-for-byte
pgo_bin=_build/default/bin/janus_pgo_cli.exe
"$pgo_bin" iterate --bench adv.alias --store "$work/pgo-iter" --rounds 2 \
  | tee "$work/pgo_iter.txt"
grep -q 'converged=true' "$work/pgo_iter.txt"
r0_cycles=$(sed -n 's/^round=0 cycles=\([0-9]*\) .*/\1/p' "$work/pgo_iter.txt")
r1_cycles=$(sed -n 's/^round=1 cycles=\([0-9]*\) .*/\1/p' "$work/pgo_iter.txt")
r1_md5=$(sed -n 's/^round=1 .*schedule=\([0-9a-f]*\) .*/\1/p' "$work/pgo_iter.txt")
r2_md5=$(sed -n 's/^round=2 .*schedule=\([0-9a-f]*\) .*/\1/p' "$work/pgo_iter.txt")
[ "$r1_md5" = "$r2_md5" ] || { echo "round 2 schedule not byte-stable" >&2; exit 1; }
[ "$r1_cycles" -lt "$r0_cycles" ] || { echo "evidence-fed round did not beat train-once" >&2; exit 1; }
grep -Eq '^round=1 .*flipped=[1-9]' "$work/pgo_iter.txt"

echo "== persistent PGO: daemon ingest and restart =="
# a fleet member collects its profile locally, ships the .jprof to the
# daemon, and every later schedule answer - including from a restarted
# daemon with a cold pipeline store - reflects the merged evidence
pgo_served_profiles="$work/pgo-served-profiles"
pgo_served_store="$work/pgo-served-store"
"$served" serve --socket "$sock" --store-dir "$pgo_served_store" \
  --profile-dir "$pgo_served_profiles" > "$work/pgo_served.log" 2>&1 &
served_pid=$!
for _ in $(seq 1 100); do
  [ -S "$sock" ] && break
  sleep 0.1
done
[ -S "$sock" ] || { echo "pgo daemon never bound $sock" >&2; exit 1; }
"$served" schedule --socket "$sock" --bench adv.alias \
  --out "$work/pgo_s_before.jrs" | tee "$work/pgo_s_before.txt"
grep -q 'gen=-' "$work/pgo_s_before.txt"
# collect the fleet member's run at the aliasing scale into a local
# store, then upload the .jprof it wrote
"$pgo_bin" collect --bench adv.alias --store "$work/pgo-fleet" --scale 250 \
  | tee "$work/pgo_collect.txt"
jprof=$(ls "$work/pgo-fleet"/*.jprof)
"$served" upload --socket "$sock" --file "$jprof" | tee "$work/pgo_upload.txt"
grep -Eq 'runs=1 total-runs=1' "$work/pgo_upload.txt"
"$served" schedule --socket "$sock" --bench adv.alias \
  --out "$work/pgo_s_after.jrs" | tee "$work/pgo_s_after.txt"
grep -Eq 'gen=[0-9a-f]+' "$work/pgo_s_after.txt"
if cmp -s "$work/pgo_s_before.jrs" "$work/pgo_s_after.jrs"; then
  echo "uploaded evidence did not change the served schedule" >&2; exit 1
fi
"$served" metrics --socket "$sock" | tee "$work/pgo_served.metrics"
grep -Eq '^pgo\.ingested +1' "$work/pgo_served.metrics"
grep -Eq '^pgo\.runs +[1-9]' "$work/pgo_served.metrics"
grep -Eq '^pgo\.store\.errors +0' "$work/pgo_served.metrics"
"$served" stop --socket "$sock"
wait "$served_pid"
# restart: fresh process, fresh pipeline store, same profile directory
"$served" serve --socket "$sock" --store-dir "$pgo_served_store-2" \
  --profile-dir "$pgo_served_profiles" >> "$work/pgo_served.log" 2>&1 &
served_pid=$!
for _ in $(seq 1 100); do
  [ -S "$sock" ] && break
  sleep 0.1
done
"$served" schedule --socket "$sock" --bench adv.alias \
  --out "$work/pgo_s_restart.jrs" > "$work/pgo_s_restart.txt"
cmp "$work/pgo_s_after.jrs" "$work/pgo_s_restart.jrs"
"$served" stop --socket "$sock"
wait "$served_pid"

echo "== PGO convergence benchmark =="
scripts/bench_pgo.sh "$work/BENCH_pgo.json"
# committed baseline must stay structurally comparable to a fresh run,
# and the converged schedule may never lose to train-once
python3 - "$work/BENCH_pgo.json" BENCH_pgo.json <<'PY'
import json, sys
fresh, baseline = (json.load(open(p)) for p in sys.argv[1:3])
assert sorted(fresh) == sorted(baseline), (sorted(fresh), sorted(baseline))
assert fresh["converged_cycles"] <= fresh["round0_cycles"], fresh
assert fresh["verdicts_flipped"] >= 1, fresh
PY

echo "== analysis benchmark =="
scripts/bench_analysis.sh "$work/BENCH_analysis.json"
# committed baseline must stay structurally comparable to a fresh run
python3 - "$work/BENCH_analysis.json" BENCH_analysis.json <<'PY'
import json, sys
fresh, baseline = (json.load(open(p)) for p in sys.argv[1:3])
assert sorted(fresh) == sorted(baseline), (sorted(fresh), sorted(baseline))
assert fresh["warm_hit_rate"] >= 0.9, fresh
PY

echo "== execution benchmark =="
scripts/bench_exec.sh "$work/BENCH_exec.json"
# committed baseline must stay structurally comparable to a fresh run,
# and the interpreter may not lose more than 20% of its instrs/s
python3 - "$work/BENCH_exec.json" BENCH_exec.json <<'PY'
import json, sys
fresh, baseline = (json.load(open(p)) for p in sys.argv[1:3])
assert sorted(fresh) == sorted(baseline), (sorted(fresh), sorted(baseline))
ips, base = fresh["native_instrs_per_second"], baseline["native_instrs_per_second"]
assert ips >= 0.8 * base, \
    f"interpreted instrs/s regressed >20%: {ips} vs committed {base}"
PY

echo "== adaptive governor: determinism and report =="
# governor decisions are functions of virtual cycles and counters only,
# so the adaptive experiment must be byte-identical however the rows
# are scheduled
dune exec bin/janus_eval.exe -- adapt --jobs 1 > "$work/adapt_j1.txt"
dune exec bin/janus_eval.exe -- adapt --jobs 4 > "$work/adapt_j4.txt"
cmp "$work/adapt_j1.txt" "$work/adapt_j4.txt"
trace_dir="_build/ci"
mkdir -p "$trace_dir"
dune exec test/tools/suite_jx.exe -- adv.alias "$work/adv_alias.jx"
dune exec bin/janus_run.exe -- "$work/adv_alias.jx" --scale 250 \
  --train-scale 40 --adapt-report "$trace_dir/adv_alias_adapt.txt" \
  > "$trace_dir/adv_alias.run.log"
cat "$trace_dir/adv_alias_adapt.txt"

echo "== differential fuzz smoke =="
# pinned-seed sweep of the generator + full-stack oracle; any violation
# leaves a shrunk reproducer for upload
fuzz_dir="_build/ci/fuzz"
mkdir -p "$fuzz_dir"
dune exec bin/janus_fuzz.exe -- --seed 5 --count 200 \
  --save-corpus --corpus-dir "$fuzz_dir"

echo "== fuzz oracle self-test (must fail) =="
# the self-test feeds the oracle a deliberately mislabelled kernel; a
# healthy oracle rejects it and exits non-zero, so success here is a bug
if dune exec bin/janus_fuzz.exe -- --self-test; then
  echo "oracle self-test did NOT catch the mislabelled kernel" >&2
  exit 1
fi

echo "== loop fission: inert when off, verified when on =="
# nothing splits in saxpy, so --fission must not change a schedule byte
dune exec bin/jcc.exe -- examples/guests/saxpy.jc -o "$work/saxpy_fi.jx"
dune exec bin/janus_analyze.exe -- "$work/saxpy_fi.jx" \
  --emit-schedule "$work/saxpy_fi_off.jrs" > /dev/null
dune exec bin/janus_analyze.exe -- "$work/saxpy_fi.jx" --fission \
  --emit-schedule "$work/saxpy_fi_on.jrs" > /dev/null
cmp "$work/saxpy_fi_off.jrs" "$work/saxpy_fi_on.jrs"
# the chain+stream guest splits: LOOP_FISSION ships and lints clean
dune exec test/tools/suite_jx.exe -- adv.fission "$work/adv_fission.jx"
dune exec bin/janus_analyze.exe -- "$work/adv_fission.jx" --fission \
  --emit-schedule "$work/adv_fission.jrs" --verify \
  > "$work/adv_fission.analyze.log"
# capture then grep: `| grep -q` would close the pipe at first match
# and SIGPIPE the dumper, failing the script under pipefail
dune exec bin/jrs_dump.exe -- "$work/adv_fission.jrs" > "$work/adv_fission.dump"
grep -q LOOP_FISSION "$work/adv_fission.dump"
dune exec bin/jverify.exe -- "$work/adv_fission.jx" "$work/adv_fission.jrs"
# end-to-end: fissioned output matches native, fission.* metrics print
dune exec bin/janus_run.exe -- "$work/adv_fission.jx" --mode native \
  --scale 40 --train-scale 6 > "$work/adv_fission.native.out"
dune exec bin/janus_run.exe -- "$work/adv_fission.jx" --fission --threads 4 \
  --scale 40 --train-scale 6 --metrics > "$work/adv_fission.fission.out"
diff <(sed -n '/^---/q;p' "$work/adv_fission.native.out") \
     <(sed -n '/^---/q;p' "$work/adv_fission.fission.out")
echo "-- fission counters --"
grep -E '^(fission|rt\.fission)' "$work/adv_fission.fission.out"
grep -Eq '^fission\.split +[1-9]' "$work/adv_fission.fission.out"
grep -Eq '^fission\.demoted +0' "$work/adv_fission.fission.out"

echo "== mixed fuzz smoke (fission ground-truth labels) =="
dune exec bin/janus_fuzz.exe -- --mixed --seed 7 --count 120 \
  --save-corpus --corpus-dir "$fuzz_dir"

echo "== traced benchmark run =="
# run one real benchmark with tracing on and prove the exported Chrome
# trace parses and covers every event category the run exercises:
# translation, linking, library resolution, rules, loop scheduling,
# bounds checks and the STM
dune exec test/tools/suite_jx.exe -- 410.bwaves "$work/bwaves.jx"
dune exec bin/janus_run.exe -- "$work/bwaves.jx" --scale 300 \
  --train-scale 300 --trace "$trace_dir/bwaves_trace.json" --metrics \
  > "$trace_dir/bwaves.run.log"
dune exec test/tools/trace_check.exe -- "$trace_dir/bwaves_trace.json" \
  block_translated fragment_linked lib_resolved rule_fired \
  loop_init loop_finish chunk_dispatched check_passed tx_start tx_commit

echo "CI OK"
