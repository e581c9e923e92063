#!/usr/bin/env bash
# Assertions over the CLI failure-path artefacts: every bad input or
# truncated run must leave a one-line diagnostic and no backtrace.
set -eu

fail() { echo "tools failure test: $1" >&2; exit 1; }

grep -q "janus_run: native run out of fuel (100); raise --fuel" fuel_fail.out ||
  fail "fuel exhaustion diagnostic missing"

grep -q -- "--threads must be positive, got 0" badargs.out ||
  fail "bad --threads diagnostic missing"

grep -q 'janus_eval: unknown experiment "fig99"' badexp.out ||
  fail "unknown experiment diagnostic missing"

# a valued flag with its value missing (here: as the final argument)
# is a usage error with a diagnostic naming the flag, never a default
grep -q "option '--scale' needs an argument" noval_run.out ||
  fail "janus_run missing --scale value not diagnosed"
grep -q "option '--scale' needs an argument" noval_prof.out ||
  fail "janus_prof missing --scale value not diagnosed"
grep -q "option '--profile-dir' needs an argument" noval_analyze.out ||
  fail "janus_analyze missing --profile-dir value not diagnosed"
grep -q "option '-o' needs an argument" noval_jcc.out ||
  fail "jcc missing -o value not diagnosed"
grep -q "option '--store-dir' needs an argument" noval_eval.out ||
  fail "janus_eval missing --store-dir value not diagnosed"
grep -q "option '--socket' needs an argument" noval_served.out ||
  fail "janus_served missing --socket value not diagnosed"
grep -q "option '--bench' needs an argument" noval_pgo.out ||
  fail "janus_pgo missing --bench value not diagnosed"

grep -q "janus_analyze: empty holds no profile for smoke.jx" noprof_analyze.out ||
  fail "janus_analyze did not report a store without the binary's profile"

# a 3-byte file is not a schedule: one line naming it, for every reader
grep -q "jrs_dump: short.jrs is not a rewrite schedule" badsched_dump.out ||
  fail "jrs_dump did not report a malformed schedule"
grep -q "janus_verify: short.jrs is not a readable JRS schedule" \
  badsched_verify.out || fail "jverify did not report a malformed schedule"
grep -q "janus_run: short.jrs is not a rewrite schedule" badsched_run.out ||
  fail "janus_run did not report a malformed schedule"

# a file that is not a JX image: one line naming the tool and the
# file, for every tool that reads a binary
for t in run:janus_run verify:janus_verify analyze:janus_analyze \
         prof:janus_prof objdump:jx_objdump dump:jrs_dump; do
  f="badimg_${t%%:*}.out"
  grep -q "^${t#*:}: notjx.jx is not a JX binary: bad magic$" "$f" ||
    fail "${t#*:} did not report a non-JX binary"
done
# a header whose text section runs past the end of the file
grep -q "^jx_objdump: truncated.jx is not a JX binary: text claims" \
  truncimg_objdump.out || fail "jx_objdump did not report a truncated binary"
for f in badsched_dump.out badsched_verify.out badsched_run.out \
         badimg_run.out badimg_verify.out badimg_analyze.out badimg_prof.out \
         badimg_objdump.out badimg_dump.out truncimg_objdump.out; do
  [ "$(wc -l < "$f")" -eq 1 ] || fail "$f is not a one-line diagnostic"
done

for f in fuel_fail.out badargs.out badexp.out noval_run.out noval_prof.out \
         noval_analyze.out noval_jcc.out noval_eval.out noval_served.out \
         noval_pgo.out noprof_analyze.out badsched_dump.out \
         badsched_verify.out badsched_run.out badimg_run.out \
         badimg_verify.out badimg_analyze.out badimg_prof.out \
         badimg_objdump.out badimg_dump.out truncimg_objdump.out; do
  grep -qi "Raised at\|Backtrace\|Fatal error" "$f" &&
    fail "$f contains a backtrace" || true
done

echo "tools failure test: ok"
