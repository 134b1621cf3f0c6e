#!/usr/bin/env python3
"""Perf-regression gate over the checked-in benchmark baselines.

Compares a fresh benchmark run (BENCH_micro.json / BENCH_train.json /
BENCH_serve.json, as written by
build/bench/{micro_benchmarks,train_bench,serve_bench}) against the
baselines checked into the repo root, and fails (exit 1) when any
comparable entry regressed beyond the tolerance.

Design constraints, in order:

  * No false failures on shared/noisy runners. Entries measured over tiny
    wall-clock windows (the sub-10ms train_bench scenarios vary 4x run-to-run
    on a 1-core container) are skipped via --min-seconds; everything else
    gets a generous multiplicative --tolerance on its cost ratio: ns/op
    fresh/baseline, or throughput baseline/fresh, so both directions fail
    at the same ratio the verdict line prints.
  * Like-for-like only. A baseline recorded at a different SIMD dispatch
    level, hardware thread count, or smoke setting is not
    comparable; mismatched files are skipped with a warning instead of
    producing nonsense verdicts. (Refresh the baseline on the new hardware
    rather than loosening the tolerance.) Entries that carry a `q_repr`
    field (the dense-vs-sparse Q representation) bake it into the entry
    key, so a representation switch shows up as an addition + a missing
    entry — both skips — never as a bogus regression verdict.
  * Additions are free. Entries present on only one side are reported but
    never fail the gate, so adding a benchmark does not require regenerating
    every baseline in the same commit.

Usage:
  tools/bench_gate.py --baseline-dir . --fresh-dir build/bench
  tools/bench_gate.py --self-test

Refreshing a baseline after an intentional change (new kernel, different
benchmark budget): rerun the three binaries from build/bench and copy the
JSON files over the repo-root copies (see EXPERIMENTS.md).
"""

import argparse
import json
import os
import sys

# (file, context keys that must match, [(section, entry key fn, metrics)]).
# Each metric is (json field, direction): "lower" = smaller is better
# (ns/op), "higher" = larger is better (throughput).
GATE_SPEC = {
    "BENCH_micro.json": {
        "context": ["simd"],
        "sections": [
            ("kernels", lambda e: e["name"],
             [("scalar_ns_per_op", "lower"), ("simd_ns_per_op", "lower")],
             None),
        ],
    },
    "BENCH_train.json": {
        "context": ["simd", "hardware_threads", "smoke"],
        "sections": [
            ("benchmarks",
             lambda e: f"{e['name']}/{e.get('q_repr', 'dense')}",
             [("episodes_per_sec", "higher")], "seconds"),
        ],
    },
    "BENCH_serve.json": {
        "context": ["simd", "hardware_threads", "smoke"],
        "sections": [
            ("snapshot_load",
             lambda e: f"{e['format']}/{e['mode']}",
             [("seconds", "lower")], "seconds"),
        ],
        # Absolute ceilings: (object section, field, ceiling, window field).
        # Judged against the fresh run alone — the profiler's overhead share
        # is its own cost per sample times its sample rate, so neither the
        # checked-in baseline nor --tolerance may loosen it, and a context
        # mismatch that skips the relative sections leaves ceilings armed.
        # The 0.02 ceiling is the serving layer's <= 2% profiler budget.
        "ceilings": [
            ("profiler_overhead", "overhead_share", 0.02, "wall_s"),
        ],
    },
}


def load(path):
    with open(path) as f:
        return json.load(f)


def compare_file(name, baseline, fresh, tolerance, min_seconds):
    """Returns (failures, skipped, passed) for one benchmark file. Every
    judged verdict lands in exactly one of failures and passed."""
    spec = GATE_SPEC[name]
    failures, skipped, passed = [], [], []

    # Ceilings first: absolute, baseline-independent, and deliberately
    # outside the context gate (a budget share holds on any machine).
    for section, field, ceiling, window_field in spec.get("ceilings", []):
        label = f"{name}:{section}.{field}"
        entry = fresh.get(section)
        if not isinstance(entry, dict) or field not in entry:
            skipped.append(f"{label}: not present in fresh run")
            continue
        window = entry.get(window_field)
        if window is None or window < min_seconds:
            skipped.append(
                f"{label}: {window_field}={window} below "
                f"--min-seconds={min_seconds} (too noisy to judge)")
            continue
        value = entry[field]
        verdict = (f"{label}: {value:.6f} vs absolute ceiling {ceiling:.4f} "
                   f"(tolerance does not apply)")
        if value > ceiling:
            failures.append("CEILING " + verdict)
        else:
            passed.append(verdict)

    for key in spec["context"]:
        base_ctx, fresh_ctx = baseline.get(key), fresh.get(key)
        if base_ctx != fresh_ctx:
            skipped.append(
                f"{name}: context {key!r} differs "
                f"(baseline {base_ctx!r}, fresh {fresh_ctx!r}) — "
                f"file skipped; refresh the baseline to re-arm the gate")
            return failures, skipped, passed

    for section, key_fn, metrics, seconds_field in spec["sections"]:
        base_entries = {key_fn(e): e for e in baseline.get(section, [])}
        fresh_entries = {key_fn(e): e for e in fresh.get(section, [])}
        for key in sorted(set(base_entries) | set(fresh_entries)):
            label = f"{name}:{section}:{key}"
            if key not in base_entries:
                skipped.append(f"{label}: new entry (no baseline)")
                continue
            if key not in fresh_entries:
                skipped.append(f"{label}: missing from fresh run")
                continue
            base_e, fresh_e = base_entries[key], fresh_entries[key]
            if seconds_field is not None:
                window = min(base_e.get(seconds_field, 0.0),
                             fresh_e.get(seconds_field, 0.0))
                if window < min_seconds:
                    skipped.append(
                        f"{label}: {seconds_field}={window:.4f}s below "
                        f"--min-seconds={min_seconds} (too noisy to judge)")
                    continue
            for field, direction in metrics:
                base_v, fresh_v = base_e.get(field), fresh_e.get(field)
                if not base_v or fresh_v is None:
                    skipped.append(f"{label}.{field}: value missing or zero")
                    continue
                # The cost ratio: > 1 is worse, in either direction.
                if direction == "lower":
                    ratio = fresh_v / base_v
                else:
                    ratio = base_v / fresh_v if fresh_v else float("inf")
                regressed = ratio > 1.0 + tolerance
                verdict = (f"{label}.{field}: baseline {base_v:.2f} -> "
                           f"fresh {fresh_v:.2f} ({ratio:.2f}x of baseline "
                           f"cost, tolerance {1.0 + tolerance:.2f}x)")
                if regressed:
                    failures.append("REGRESSION " + verdict)
                else:
                    passed.append(verdict)
    return failures, skipped, passed


def run_gate(baseline_dir, fresh_dir, tolerance, min_seconds, verbose=True):
    failures, skipped, passed = [], [], []
    seen_any = False
    for name in GATE_SPEC:
        base_path = os.path.join(baseline_dir, name)
        fresh_path = os.path.join(fresh_dir, name)
        if not os.path.exists(base_path):
            skipped.append(f"{name}: no checked-in baseline — skipped")
            continue
        if not os.path.exists(fresh_path):
            failures.append(
                f"MISSING {name}: baseline exists but the fresh run did not "
                f"produce it (looked in {fresh_dir})")
            continue
        seen_any = True
        f, s, p = compare_file(name, load(base_path), load(fresh_path),
                               tolerance, min_seconds)
        failures += f
        skipped += s
        passed += p

    if verbose:
        for line in passed:
            print("  ok " + line)
        for line in skipped:
            print("skip " + line)
        for line in failures:
            print("FAIL " + line, file=sys.stderr)
        print(f"bench gate: {len(passed)} ok, {len(skipped)} "
              f"skipped, {len(failures)} failures")
    if not seen_any and not failures:
        print("bench gate: nothing to compare (no baselines found)",
              file=sys.stderr)
    return len(failures) == 0


def self_test():
    """Proves the gate trips on an injected regression and stays quiet on
    identical results, without touching real benchmark output."""
    import contextlib
    import copy
    import io
    import tempfile

    baseline = {
        "BENCH_micro.json": {
            "simd": "avx2",
            "kernels": [
                {"name": "popcount_words/16384b", "scalar_ns_per_op": 900.0,
                 "simd_ns_per_op": 90.0, "speedup": 10.0},
            ],
        },
        "BENCH_train.json": {
            "hardware_threads": 1,
            "simd": "avx2",
            "smoke": False,
            "benchmarks": [
                {"name": "synthetic_1k/serial", "seconds": 0.25,
                 "episodes_per_sec": 400.0},
                {"name": "univ1_dsct/serial", "seconds": 0.003,
                 "episodes_per_sec": 20000.0},
            ],
        },
        "BENCH_serve.json": {
            "hardware_threads": 1,
            "smoke": False,
            "simd": "avx2",
            "snapshot_load": [
                {"format": "sparse-v2", "mode": "deserialize",
                 "items": 10000, "snapshot_bytes": 105906176,
                 "seconds": 1.0},
                {"format": "sparse-v2", "mode": "mmap", "items": 10000,
                 "snapshot_bytes": 105906176, "seconds": 0.0001},
            ],
            "profiler_overhead": {
                "sample_hz": 97, "frames": 32, "signals": 16384,
                "samples": 16390, "wall_s": 0.104, "ns_per_sample": 6300.0,
                "overhead_share": 0.000611,
            },
        },
    }

    def write_tree(directory, docs):
        for name, doc in docs.items():
            with open(os.path.join(directory, name), "w") as f:
                json.dump(doc, f)

    checks = []
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = os.path.join(tmp, "base")
        fresh_dir = os.path.join(tmp, "fresh")
        os.mkdir(base_dir)
        os.mkdir(fresh_dir)
        write_tree(base_dir, baseline)

        # 1. Identical runs pass.
        write_tree(fresh_dir, baseline)
        checks.append(("identical runs pass",
                       run_gate(base_dir, fresh_dir, 0.30, 0.05,
                                verbose=False)))

        # 2. A kernel artificially slowed beyond tolerance fails.
        slowed = copy.deepcopy(baseline)
        slowed["BENCH_micro.json"]["kernels"][0]["simd_ns_per_op"] = 200.0
        write_tree(fresh_dir, slowed)
        checks.append(("slowed kernel fails",
                       not run_gate(base_dir, fresh_dir, 0.30, 0.05,
                                    verbose=False)))

        # 3. A throughput drop beyond tolerance fails.
        dropped = copy.deepcopy(baseline)
        dropped["BENCH_train.json"]["benchmarks"][0][
            "episodes_per_sec"] = 100.0
        write_tree(fresh_dir, dropped)
        checks.append(("throughput drop fails",
                       not run_gate(base_dir, fresh_dir, 0.30, 0.05,
                                    verbose=False)))

        # 3b. Throughput is judged on the cost ratio it prints: 400 -> 220
        # episodes/s is 1.82x the baseline cost, past a 1.50x tolerance,
        # although 220 is above 400 x (1 - 0.5).
        slower = copy.deepcopy(baseline)
        slower["BENCH_train.json"]["benchmarks"][0]["episodes_per_sec"] = 220.0
        write_tree(fresh_dir, slower)
        checks.append(("1.82x throughput cost fails at tolerance 0.5",
                       not run_gate(base_dir, fresh_dir, 0.50, 0.05,
                                    verbose=False)))

        # 3c. A slower snapshot load beyond tolerance fails (the mmap entry
        # sits below --min-seconds, so only the deserialize entry is armed).
        slow_load = copy.deepcopy(baseline)
        slow_load["BENCH_serve.json"]["snapshot_load"][0]["seconds"] = 2.0
        write_tree(fresh_dir, slow_load)
        checks.append(("slow snapshot load fails",
                       not run_gate(base_dir, fresh_dir, 0.30, 0.05,
                                    verbose=False)))

        # 3h. Profiler overhead past the 2% budget trips the absolute
        # ceiling, whatever the baseline read — ceilings ignore both
        # baseline and tolerance.
        slow_profiler = copy.deepcopy(baseline)
        slow_profiler["BENCH_serve.json"]["profiler_overhead"][
            "overhead_share"] = 0.025
        write_tree(fresh_dir, slow_profiler)
        checks.append(("profiler overhead past ceiling fails",
                       not run_gate(base_dir, fresh_dir, 0.30, 0.05,
                                    verbose=False)))

        # 3i. The same share over a sub-min-seconds window is skipped: too
        # few samples to time.
        noisy_profiler = copy.deepcopy(slow_profiler)
        noisy_profiler["BENCH_serve.json"]["profiler_overhead"][
            "wall_s"] = 0.01
        write_tree(fresh_dir, noisy_profiler)
        checks.append(("noisy profiler window skipped",
                       run_gate(base_dir, fresh_dir, 0.30, 0.05,
                                verbose=False)))

        # 3j. Ceilings stay armed when a context mismatch skips the relative
        # sections: a budget share holds on any machine.
        mismatched_profiler = copy.deepcopy(slow_profiler)
        mismatched_profiler["BENCH_serve.json"]["hardware_threads"] = 64
        write_tree(fresh_dir, mismatched_profiler)
        checks.append(("ceiling survives context mismatch",
                       not run_gate(base_dir, fresh_dir, 0.30, 0.05,
                                    verbose=False)))

        # 4. The same drop on a sub-min-seconds entry is skipped, not failed.
        noisy = copy.deepcopy(baseline)
        noisy["BENCH_train.json"]["benchmarks"][1]["episodes_per_sec"] = 100.0
        write_tree(fresh_dir, noisy)
        checks.append(("noisy short entry skipped",
                       run_gate(base_dir, fresh_dir, 0.30, 0.05,
                                verbose=False)))

        # 5. A dispatch-level mismatch skips the file instead of failing.
        other_level = copy.deepcopy(slowed)
        other_level["BENCH_micro.json"]["simd"] = "scalar"
        write_tree(fresh_dir, other_level)
        checks.append(("simd-level mismatch skips file",
                       run_gate(base_dir, fresh_dir, 0.30, 0.05,
                                verbose=False)))

        # 6. A regression within tolerance passes.
        mild = copy.deepcopy(baseline)
        mild["BENCH_micro.json"]["kernels"][0]["simd_ns_per_op"] = 110.0
        write_tree(fresh_dir, mild)
        checks.append(("within-tolerance drift passes",
                       run_gate(base_dir, fresh_dir, 0.30, 0.05,
                                verbose=False)))

        # 7. The report prints "ok" only for passes: a breached ceiling and a
        # regressed kernel each appear once as FAIL and never as ok, while
        # the entries that held still print ok.
        for label, docs, entry in (
                ("ceiling breach", slow_profiler,
                 "profiler_overhead.overhead_share"),
                ("regression", slowed,
                 "popcount_words/16384b.simd_ns_per_op")):
            write_tree(fresh_dir, docs)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                run_gate(base_dir, fresh_dir, 0.30, 0.05)
            ok_lines = [line for line in out.getvalue().splitlines()
                        if line.startswith("  ok ")]
            fail_lines = [line for line in err.getvalue().splitlines()
                          if line.startswith("FAIL ")]
            checks.append((f"{label} reported as FAIL, never ok",
                           bool(ok_lines)
                           and not any(entry in line for line in ok_lines)
                           and sum(entry in line for line in fail_lines) == 1))

        # 8. A missing fresh file fails (the bench crashed or was skipped).
        os.remove(os.path.join(fresh_dir, "BENCH_serve.json"))
        checks.append(("missing fresh file fails",
                       not run_gate(base_dir, fresh_dir, 0.30, 0.05,
                                    verbose=False)))

    ok = True
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'} self-test: {name}")
        ok = ok and passed
    return ok


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline-dir", default=".",
                        help="directory with the checked-in BENCH_*.json")
    parser.add_argument("--fresh-dir", default="build/bench",
                        help="directory with the freshly generated JSON")
    parser.add_argument("--tolerance", type=float, default=0.35,
                        help="allowed multiplicative regression (0.35 = "
                             "fail beyond 35%% worse than baseline)")
    parser.add_argument("--min-seconds", type=float, default=0.05,
                        help="skip entries whose measurement window is "
                             "shorter than this on either side")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate trips on synthetic "
                             "regressions, then exit")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(0 if self_test() else 1)
    sys.exit(0 if run_gate(args.baseline_dir, args.fresh_dir,
                           args.tolerance, args.min_seconds) else 1)


if __name__ == "__main__":
    main()
