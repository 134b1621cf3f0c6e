#!/usr/bin/env python3
"""Runs one workload of the plan-serving benchmark.

Usage (from any directory; paths resolve against the repository root):

    python3 perfbench/run.py --workload paper_wire --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench, writes
the scale10k_wire policy snapshot with the freshly built binary in a separate
process (cached per binary), then runs the workload. The last line of stdout
is the result JSON; the exit code is non-zero when the build fails, a request
or check fails, or the run overruns its time limit.
"""

import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("paper_wire", "scale10k_wire", "fleet_live")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; True on success."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            return False
    return os.path.isfile(BINARY)


def snapshot_for_binary():
    """The 10k snapshot written by this build, created on first use."""
    with open(BINARY, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    path = os.path.join(BUILD, f"scale10k-{digest}.snap")
    if os.path.isfile(path):
        return path
    for stale in glob.glob(os.path.join(BUILD, "scale10k-*.snap")):
        os.remove(stale)
    done = subprocess.run([BINARY, "make-snapshot", "--out", path],
                          stdout=sys.stderr, stderr=sys.stderr,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode or not os.path.isfile(path):
        log("snapshot build failed")
        return None
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Self-test knobs (perfbench/selftest.py); benchmark runs leave them unset.
    parser.add_argument("--short", action="store_true")
    parser.add_argument("--tamper-every", type=int, default=0)
    args = parser.parse_args()

    if not build():
        return 1
    command = [BINARY, "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", BUILD]
    if args.workload == "scale10k_wire":
        snapshot = snapshot_for_binary()
        if snapshot is None:
            return 1
        command += ["--snapshot", snapshot]
    if args.short:
        command.append("--short")
    if args.tamper_every:
        command += ["--tamper-every", str(args.tamper_every)]

    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the run; it printed no result.
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log("the run printed no result line")
        return done.returncode or 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
