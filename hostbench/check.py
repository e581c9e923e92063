#!/usr/bin/env python3
"""Determinism self-check of the host benchmark, with cross-checks
against the repository's own tools.

For each workload the benchmark runs twice at one seed for a fixed
number of ops; the two runs must give the same op list, the same
per-op results (output, exit code, cycles and memory digest; the
fuzz verdict; the serve reply bytes) and the same failed ops. Then:

  suite  virtual_speedup_geomean must equal the Janus-column geomean
         that `janus_eval fig7` prints;
  fuzz   the failed cases must be exactly those that
         `janus_fuzz --seed 2 --count N` reports as FAIL (the fuzz
         workload's kernels are that fixed corpus; its seed permutes
         their order).

Usage, from the root of a source checkout:

    python3 hostbench/check.py [--seed S] [--workloads suite,fuzz,serve]

Exit status 0 when every check holds.
"""
import argparse
import os
import re
import subprocess
import sys

OPS = {"suite": 144, "fuzz": 200, "serve": 150}
OUT = os.path.join("hostbench", "_out")
BIN = os.path.join("_build", "default", "bin")


def bench(workload, seed, log):
    cmd = ["python3", os.path.join("hostbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0",
           "--ops", str(OPS[workload]), "--ops-log", log]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit("hostbench check: %s run failed:\n%s" % (workload, p.stderr))
    return p.stdout


def failed_ids(log):
    with open(log) as f:
        return [line.split("\t")[1] for line in f if line.split("\t")[2] != "ok"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--workloads", default="suite,fuzz,serve")
    args = ap.parse_args()
    os.makedirs(OUT, exist_ok=True)
    subprocess.run(["dune", "build", "--root", ".",
                    "./" + os.path.join(BIN, "janus_eval.exe"),
                    "./" + os.path.join(BIN, "janus_fuzz.exe")], check=True)
    ok = True

    def verdict(cond, what):
        nonlocal ok
        print("%s %s" % ("ok  " if cond else "FAIL", what))
        ok = ok and cond

    for w in args.workloads.split(","):
        logs = [os.path.join(OUT, "check-%s-%d.log" % (w, i)) for i in (1, 2)]
        outs = [bench(w, args.seed, log) for log in logs]
        # the last two columns are the op's latency, as measured and at
        # the reference host speed, which no two runs share
        texts = [[line.rsplit("\t", 2)[0] for line in open(log)] for log in logs]
        verdict(texts[0] == texts[1],
                "%s: two runs at seed %d agree on %d ops and their results"
                % (w, args.seed, OPS[w]))
        failed = failed_ids(logs[0])
        print("     failed ops: %s" % (", ".join(failed) or "none"))
        if w == "suite":
            mine = float(re.search(r"^metric virtual_speedup_geomean (\S+)",
                                   outs[0], re.M).group(1))
            fig7 = subprocess.run([os.path.join(BIN, "janus_eval.exe"), "fig7"],
                                  capture_output=True, text=True, check=True).stdout
            theirs = float(re.search(r"^geomean\s.*\s(\S+)\s*$", fig7, re.M).group(1))
            verdict("%.2f" % mine == "%.2f" % theirs,
                    "suite: virtual_speedup_geomean %.4f, janus_eval fig7 %.2f"
                    % (mine, theirs))
        if w == "fuzz":
            corpus = re.match(r"seed(\d+)-case", texts[0][0].split("\t")[1]).group(1)
            fz = subprocess.run([os.path.join(BIN, "janus_fuzz.exe"), "--seed",
                                 corpus, "--count", str(OPS[w])],
                                capture_output=True, text=True).stdout
            theirs = re.findall(r"=== VIOLATION \((seed\d+-case\d+)\) ===", fz)
            verdict(sorted(failed) == sorted(theirs),
                    "fuzz: failed cases equal janus_fuzz --seed %s --count %d's (%s)"
                    % (corpus, OPS[w], ", ".join(theirs) or "none"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
