#!/usr/bin/env bash
# Every example guest compiles, and its generated rewrite schedule
# passes the analyser's --verify gate, the standalone verifier and the
# verifier's cross-check (each exits non-zero on an error finding).
# Usage: check_guests.sh BIN_DIR GUEST.jc...
set -eu

bin=$1
shift
fail() { echo "guest schedule check: $1" >&2; exit 1; }
[ $# -gt 0 ] || fail "no guests found"

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
log="$work/log"
step() { "$@" > "$log" 2>&1 || { cat "$log" >&2; fail "failed: $*"; }; }

for src in "$@"; do
  name=$(basename "$src" .jc)
  jx="$work/$name.jx"
  jrs="$work/$name.jrs"
  step "$bin/jcc.exe" "$src" -o "$jx"
  step "$bin/janus_analyze.exe" "$jx" --emit-schedule "$jrs" --verify
  step "$bin/jverify.exe" "$jx" "$jrs"
  step "$bin/jverify.exe" --crosscheck "$jx" "$jrs"
done
