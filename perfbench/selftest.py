#!/usr/bin/env python3
"""Self-test of the plan-serving benchmark.

Usage (from any directory; takes a few minutes):

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json in short mode through perfbench/run.py
and asserts that:
  * each run prints every end-to-end metric (--trace 0) or every per-layer
    metric (--trace 1) named in BENCHMARK.json, with its unit;
  * each per-layer budget table of a traced run adds up to its total, every
    measured row of it is non-negative, and the unattributed shares stay
    within UNATTRIBUTED_LIMITS;
  * tampered responses are caught by the output check: every kind of
    corruption is applied, each one is caught by the check it targets and
    counts as a failed request, and the run exits non-zero;
  * without the repository's sources next to it the benchmark exits
    non-zero without printing a result.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SEED = 7
# Largest unattributed share (by magnitude) of each budget: past it, the
# budget no longer explains its total. The rollout's remainder compares two
# walks of the same plans in one quiet thread and reads 0.03-0.22 on a
# shared 4-vCPU host. The p50 and fleet-tick remainders compare intervals
# timed under load with calls replayed after it, so where the host places
# the threads moves them between runs: they read 0.02-0.42 there.
UNATTRIBUTED_LIMITS = {"rl.rollout_unattributed_share": 0.4,
                       "bench.budget_unattributed_share": 0.6,
                       "fleet.tick_unattributed_share": 0.6}
# The output checks --tamper-every corrupts responses for, one kind each.
TAMPER_KINDS = {"start", "range", "duplicate", "excluded", "valid",
                "violations", "score"}


def run(workload, trace, *extra, run_py=RUN, cwd=ROOT):
    command = [sys.executable, run_py, "--workload", workload, "--seed",
               str(SEED), "--seconds", "1", "--trace", str(trace), "--short",
               *extra]
    done = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result, done.stdout, done.stderr


def check_metrics(result, declared, label):
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}, (
        f"{label}: printed {sorted(metrics)}")
    for m in declared:
        printed = metrics[m["name"]]
        assert printed["unit"] == m["unit"], f"{label}: unit of {m['name']}"
        assert isinstance(printed["value"], (int, float)), (
            f"{label}: {m['name']} is not a number")
        assert math.isfinite(printed["value"]), f"{label}: {m['name']}"
    assert result["attempted"] >= 1 and result["failed"] == 0, label
    assert result["correct"] is True, label


def check_budgets(stdout, label, expected_tables):
    """Each table: '<title> budget...: T ms', indented layer rows, a 'sum S'
    row, then indented part rows '<layer> <part> <ms> <spans>'."""
    tables = []
    for line in stdout.splitlines():
        title = re.match(r"^\S.*budget[^:]*: (\S+) ms$", line)
        if title:
            tables.append({"total": float(title.group(1)), "sum": None,
                           "parts": []})
        elif tables and line.startswith("  "):
            layer_sum = re.match(r"^  sum\s+(\S+)", line)
            part = re.match(r"^  (\S+)\s+(\S+)\s+(-?\d+\.\d+)\s+\d+$", line)
            if layer_sum:
                tables[-1]["sum"] = float(layer_sum.group(1))
            elif part:
                tables[-1]["parts"].append(
                    (part.group(1), part.group(2), float(part.group(3))))
    assert len(tables) == expected_tables, f"{label}: {len(tables)} tables"
    for table in tables:
        total = table["total"]
        parts = table["parts"]
        tolerance = 1e-5 * max(1.0, abs(total))
        assert parts, f"{label}: no budget parts"
        assert any(layer == "unattributed" for layer, _, _ in parts), (
            f"{label}: no unattributed row")
        assert abs(table["sum"] - total) <= tolerance, f"{label}: layers"
        assert abs(sum(ms for _, _, ms in parts) - total) <= (
            tolerance * len(parts)), f"{label}: parts do not add up"
        for layer, name, ms in parts:
            assert layer == "unattributed" or ms >= 0, (
                f"{label}: measured part {layer} {name} is {ms} ms")


def check_unattributed(result, label):
    metrics = result["metrics"]
    for name, limit in UNATTRIBUTED_LIMITS.items():
        share = metrics[name]["value"]
        assert abs(share) <= limit, f"{label}: {name} {share}"


def check_tamper(code, result, stdout):
    counts = re.findall(r"^tampered (\w+): (\d+), caught (\d+)$", stdout,
                        re.M)
    assert {check for check, _, _ in counts} == TAMPER_KINDS, (
        f"corruptions reported: {counts}")
    for check, tampered, caught in counts:
        assert int(tampered) >= 1, f"no response tampered for {check}"
        assert caught == tampered, (
            f"{check}: {tampered} tampered, {caught} caught by that check")
    total = sum(int(tampered) for _, tampered, _ in counts)
    assert code != 0 and result is not None and not result["correct"]
    assert result["failed"] == total, (
        f"{total} tampered, {result['failed']} failed")
    return total


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)

    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace, declared in ((0, benchmark["end_to_end"]),
                                (1, benchmark["per_layer"])):
            label = f"{workload} --trace {trace}"
            code, result, stdout, stderr = run(workload, trace)
            assert code == 0 and result is not None, f"{label}: {stderr}"
            check_metrics(result, declared, label)
            if trace:
                check_budgets(stdout, label,
                              2 if workload == "fleet_live" else 1)
                check_unattributed(result, label)
            print(f"ok  {label}")

    code, result, stdout, _ = run("paper_wire", 0, "--tamper-every", "25")
    tampered = check_tamper(code, result, stdout)
    print(f"ok  tampered responses caught ({tampered})")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _, _ = run("paper_wire", 0, cwd=bare,
                             run_py=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and result is None, "ran without the sources"
    print("ok  fails without the repository sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
