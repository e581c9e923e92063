#!/usr/bin/env python3
"""Build the host benchmark from source and run one workload.

Usage, from the root of a source checkout:

    python3 hostbench/run.py --workload suite|fuzz|serve --seed N \
        --seconds S --trace 0|1 [--ops N] [--ops-log FILE]

The benchmark itself is the OCaml program hostbench/main.ml; this
script builds it (and the janus_served daemon the serve workload
starts) with dune, then runs it. Its last line of output is the run's
JSON result. Reports and traces go to hostbench/_out/.
"""
import argparse
import hashlib
import os
import subprocess
import sys

NEEDED = ["dune-project", "lib", os.path.join("bin", "janus_served.ml"),
          os.path.join("hostbench", "dune")]
MAIN = os.path.join("_build", "default", "hostbench", "main.exe")
DAEMON = os.path.join("_build", "default", "bin", "janus_served.exe")


def revision():
    """The git commit, or a digest of the sources when not in a git tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.md5()
    for top in ("lib", "bin", "hostbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs[:] = sorted(x for x in dirs if not x.startswith(("_", ".")))
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(p.encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "src-" + h.hexdigest()


def pin():
    """Run the serve benchmark, and the daemon it starts, on the CPU it
    starts on: client and daemon take turns (the loop is closed), and
    sharing a CPU spares each request a cross-CPU wake-up, whose cost
    varies from run to run. The single-process workloads stay free to
    move off a busy CPU."""
    try:
        with open("/proc/self/stat") as f:
            cpu = int(f.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError):
        pass


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["suite", "fuzz", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--ops-log", default="")
    args = ap.parse_args()
    missing = [p for p in NEEDED if not os.path.exists(p)]
    if missing:
        sys.exit("hostbench: %s missing; run from the root of a source checkout"
                 % ", ".join(missing))
    build = subprocess.run(["dune", "build", "--root", ".", "./" + MAIN, "./" + DAEMON],
                           stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("hostbench: build failed")
    cmd = [MAIN, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", DAEMON, "--commit", revision(),
           "--nproc", str(os.cpu_count())]
    if args.ops:
        cmd += ["--ops", str(args.ops)]
    if args.ops_log:
        cmd += ["--ops-log", args.ops_log]
    sys.stdout.flush()
    preexec = pin if args.workload == "serve" else None
    sys.exit(subprocess.run(cmd, preexec_fn=preexec).returncode)


if __name__ == "__main__":
    main()
