#!/usr/bin/env bash
# Full pre-merge check: build and run the tier-1 test suite under three
# configurations —
#   1. Release (the configuration benchmarks and experiments use),
#   2. ASan + UBSan (-DRLPLANNER_SANITIZE=ON) to catch memory and UB bugs
#      the optimized hot path could otherwise hide, and
#   3. TSan (-DRLPLANNER_SANITIZE=thread) over the concurrency-heavy tests
#      (the serving layer, the parallel SARSA trainer, and their
#      thread-pool substrate).
# The Release lane also smoke-runs bench/train_bench with tiny episode
# budgets (its 10k-item sparse catalog trains at every worker count even in
# smoke mode) and validates the BENCH_train.json it emits, so a malformed
# benchmark artifact fails the check rather than the downstream plots —
# and likewise validates the CLI's --metrics-out JSON and --trace-out
# Chrome trace-event file (the artifact docs/observability.md documents).
# A fleet smoke lane runs `rlplanner_cli fleet status` as a three-policy
# rollback drill (--force-rollback) and validates the status JSON document
# docs/fleet.md specifies.
# It then boots `rlplanner_cli serve --listen` on an ephemeral port with the
# sampling profiler, the flight recorder, and an in-process fleet enabled,
# drives it with bench/load_gen over real sockets, round-trips GET /metrics
# as Prometheus text exposition, validates the live-introspection surface
# (/debug/statusz, /debug/tracez with an injected SLO violation, a 1-second
# /debug/pprof collapsed profile, /metrics?exemplars=1 as OpenMetrics, and
# /fleet/status as the wire view of the rollback drill), and SIGINTs the
# server to prove the graceful drain exits 0 with a balanced, zero-loss
# stats ledger and writes a --trace-out file whose events for the stalled
# request match /debug/tracez.
# Set RLPLANNER_SANITIZE=thread to run only the TSan lane (the mode CI's
# sanitizer matrix uses); any other value runs everything.
# The paper lane runs every paper-table program in bench/ and keeps each
# one's output in build/paper/<program>.txt: each table has one harness,
# and that directory is the evidence EXPERIMENTS.md is checked against.
# `tools/check.sh smoke` runs only the Release smoke lanes and their
# validators (train_bench, --metrics-out, --trace-out, the fleet drill, the
# wire server and the paper tables) against an existing Release build/;
# CI's release job runs exactly that, so each validator has one copy.
# Usage: tools/check.sh [smoke]  (from the repo root; build trees go to
# build/, build-sanitize/, and build-tsan/).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"
MODE="${RLPLANNER_SANITIZE:-all}"

run_tsan_lane() {
  echo "==> TSan build + concurrency tests"
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRLPLANNER_SANITIZE=thread
  cmake --build build-tsan -j "${JOBS}"
  # The serving layer and the sharded trainer are where the threads are;
  # util_test covers the ThreadPool substrate both run on.
  # parallel_sarsa_test (named for the sharded rounds; it tests the one
  # learner, SarsaLearnerT, at K = 1 and K > 1) drives the sharded-merge
  # barrier on an external pool, the learner's own pool and nested inside
  # an outer ParallelFor, under TSan; obs_test hammers the sharded metric
  # cells, the registry's concurrent registration path, and the trace
  # collector's single-writer rings (concurrent emit + export); simd_test
  # covers the dispatch table's concurrent first-use resolution (and its
  # _scalar ctest variant keeps the scalar kernels sanitized too); net_test
  # crosses the epoll shards' completion-queue/eventfd edge under
  # concurrent clients and drains the server under live load; fleet_test
  # stresses the orchestrator's publish/canary/rollback pipeline against
  # concurrent serving clients and runs sharded retrains inside the
  # orchestrator's pool. The ASan/UBSan lane below runs the complete
  # suite, obs_test included — no filter there.
  ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" \
    -R 'serve_test|net_test|util_test|parallel_sarsa_test|obs_test|simd_test|fleet_test'
}

run_bench_gate() {
  echo "==> Bench gate (regression check against checked-in baselines)"
  python3 tools/bench_gate.py --self-test
  # Full (non-smoke) runs: the checked-in baselines are full runs, and the
  # gate skips cross-context comparisons. The big-catalog lanes (100k-item
  # training, the ~100 MB snapshot fixture) push this to a couple minutes.
  (cd build/bench && ./micro_benchmarks > /dev/null \
    && ./train_bench > /dev/null && ./serve_bench > /dev/null)
  python3 tools/bench_gate.py --baseline-dir . --fresh-dir build/bench
}

run_bench_smoke() {
  echo "==> Training-bench smoke run (10k sparse lane + JSON shape check)"
  # Run from build/bench so the artifact lands next to the binary (the same
  # path the validator and CI's artifact upload read).
  (cd build/bench && ./train_bench --smoke)
  python3 - <<'EOF'
import json
with open("build/bench/BENCH_train.json") as f:
    doc = json.load(f)
assert isinstance(doc["hardware_threads"], int) and doc["hardware_threads"] >= 1
assert doc["smoke"] is True
runs = doc["benchmarks"]
assert runs, "no benchmark entries"
for run in runs:
    for key in ("name", "mode", "workers", "catalog_items", "episodes",
                "q_repr", "seconds", "episodes_per_sec",
                "time_to_safe_seconds", "steps", "td_error_abs_p95",
                "merge_wait_p95_us"):
        assert key in run, f"missing {key} in {run.get('name', '?')}"
    assert run["episodes_per_sec"] > 0, run["name"]
    assert run["steps"] > 0, run["name"]
# Sparse SARSA end to end at 10k items, serial and sharded (steps > 0 is
# checked above for every row).
rows_10k = [run for run in runs if run["catalog_items"] == 10000]
assert all(run["q_repr"] == "sparse" for run in rows_10k), rows_10k
assert sorted(run["workers"] for run in rows_10k) == [1, 2, 4, 8], rows_10k
print(f"BENCH_train.json OK ({len(runs)} entries, 10k sparse at K = 1, 2, "
      f"4, 8)")
EOF
}

run_metrics_smoke() {
  echo "==> CLI --metrics-out smoke run (JSON shape check)"
  ./build/tools/rlplanner_cli train --dataset toy --episodes 40 \
    --metrics-out build/metrics-smoke.json > /dev/null
  python3 - <<'EOF'
import json
with open("build/metrics-smoke.json") as f:
    doc = json.load(f)
names = {m["name"] for m in doc["metrics"]}
for required in ("train_episodes_total", "train_steps_total",
                 "train_rounds_total", "train_td_error_abs_micro"):
    assert required in names, f"missing metric {required}"
episodes = next(m for m in doc["metrics"]
                if m["name"] == "train_episodes_total")
assert episodes["value"] == 40, episodes
rounds = doc["training_rounds"]
assert rounds, "no per-round samples"
for r in rounds:
    for key in ("round", "episodes", "seconds", "episodes_per_sec",
                "epsilon", "safe"):
        assert key in r, f"missing {key} in round sample"
print(f"metrics-smoke.json OK ({len(names)} metric names, "
      f"{len(rounds)} rounds)")
EOF
}

run_trace_smoke() {
  echo "==> CLI --trace-out smoke run (Chrome trace-event shape check)"
  ./build/tools/rlplanner_cli train --dataset toy --episodes 40 \
    --trace-out build/trace-smoke.json > /dev/null
  python3 - <<'EOF'
import json
with open("build/trace-smoke.json") as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert events, "empty traceEvents"
assert {e["ph"] for e in events} <= {"M", "X"}, "unexpected phases"
names = {e["name"] for e in events}
for required in ("process_name", "thread_name", "train", "train_round"):
    assert required in names, f"missing event {required}"
for e in events:
    if e["ph"] != "X":
        continue
    assert e["ts"] >= 0 and e["dur"] >= 0, e
    assert isinstance(e["args"], dict), e
assert doc["otherData"]["trace_events_dropped"] == 0
print(f"trace-smoke.json OK ({len(events)} events)")
EOF
}

run_fleet_smoke() {
  echo "==> Fleet orchestrator smoke run (rollback drill + status JSON check)"
  # A tiny three-policy fleet over the toy catalog; --force-rollback vetoes
  # every canary verdict so each publication beyond the first walks the full
  # publish -> canary -> rollback path. `fleet status` prints ONLY the final
  # status JSON, which is the artifact this lane validates.
  ./build/tools/rlplanner_cli fleet status --dataset toy --policies 3 \
    --ticks 8 --freshness-ticks 2 --episodes 40 --canary-permille 500 \
    --hold-ticks 1 --force-rollback > build/fleet-smoke.json
  python3 - <<'EOF'
import json
with open("build/fleet-smoke.json") as f:
    doc = json.load(f)
assert doc["tick"] == 8, doc["tick"]
policies = doc["policies"]
assert len(policies) == 3, f"expected 3 policies, got {len(policies)}"
phases = {"idle", "canary", "backoff"}
for p in policies:
    for key in ("slot", "segment", "phase", "generation",
                "last_published_tick", "staleness", "incumbent_version",
                "canary_version", "canary_permille", "publishes", "promotes",
                "rollbacks", "gate_failures", "retrain_failures",
                "candidate_rejections", "feedback_events",
                "consecutive_failures", "last_error"):
        assert key in p, f"missing {key} in {p.get('slot', '?')}"
    assert p["phase"] in phases, p["phase"]
    # Every slot must have published at least its first incumbent.
    assert p["publishes"] >= 1, p
    assert p["incumbent_version"] >= 1, p
    # The drill vetoes every canary, so nothing may ever promote.
    assert p["promotes"] == 0, p
rollbacks = sum(p["rollbacks"] for p in policies)
assert rollbacks >= 1, f"rollback drill rolled nothing back: {policies}"
print(f"fleet-smoke.json OK ({len(policies)} policies, "
      f"{rollbacks} rollbacks)")
EOF
}

run_serve_smoke() {
  echo "==> Wire serving smoke run (live server + load_gen + introspection)"
  # Train a toy policy and put the epoll front end on an ephemeral port;
  # --duration-s is a watchdog in case the SIGINT below never lands. The
  # profiler, the flight recorder, the trace collector and a two-policy
  # rollback-drill fleet are all on so every /debug endpoint has real
  # content to serve.
  rm -f build/serve-smoke.log build/serve-trace.json
  ./build/tools/rlplanner_cli serve --dataset toy --listen 127.0.0.1:0 \
    --duration-s 60 --profile-hz 97 --slo-ms 5 \
    --fleet-policies 2 --fleet-ticks 3 --force-rollback \
    --trace-out build/serve-trace.json \
    > build/serve-smoke.log &
  local server_pid=$!
  local target=""
  for _ in $(seq 1 200); do
    target="$(sed -n 's/^listening on \([0-9.]*:[0-9]*\) .*/\1/p' \
      build/serve-smoke.log 2>/dev/null || true)"
    [ -n "${target}" ] && break
    if ! kill -0 "${server_pid}" 2>/dev/null; then
      echo "server died before listening:" >&2
      cat build/serve-smoke.log >&2
      return 1
    fi
    sleep 0.05
  done
  if [ -z "${target}" ]; then
    echo "server never printed its listen address" >&2
    kill "${server_pid}" 2>/dev/null || true
    return 1
  fi

  # One forced-slow request (debug_stall_ms >> --slo-ms) so the flight
  # recorder has a violation to retain. It goes first: a full per-thread
  # trace ring keeps its earliest events and drops the rest, so the load
  # below must not crowd the stalled request out of --trace-out.
  ./build/bench/load_gen closed --target "${target}" --connections 1 \
    --requests 1 --body '{"debug_stall_ms": 25}' > build/stall-smoke.json

  # ~2 s of closed-loop load over real sockets; load_gen exits non-zero on
  # any transport error or unexpected status, and its JSON is the artifact.
  ./build/bench/load_gen closed --target "${target}" --connections 4 \
    --duration-s 2 > build/load-smoke.json
  python3 - <<'EOF'
import json
with open("build/load-smoke.json") as f:
    doc = json.load(f)
assert doc["mode"] == "closed" and doc["connections"] == 4, doc
assert doc["completed"] > 0 and doc["requests_per_sec"] > 0, doc
assert doc["errors"] == 0 and doc["transport_errors"] == 0, doc
# Closed-loop smoke against a healthy toy server: only 200s (a 503 here
# would mean admission control sheds load at 4 concurrent clients).
assert set(doc["status_counts"]) == {"200"}, doc["status_counts"]
for key in ("p50", "p95", "p99", "mean", "max"):
    assert doc["latency_ms"][key] >= 0.0, doc["latency_ms"]
print(f"load-smoke.json OK ({doc['completed']} requests, "
      f"{doc['requests_per_sec']:.0f} req/s)")
EOF

  # Per-user ideal-topic overrides through the real binary. Both topics are
  # in the toy vocabulary, so every request must be served.
  ./build/bench/load_gen closed --target "${target}" --connections 2 \
    --requests 16 --body '{"start_item": 0, "excluded": [4],
      "ideal_topics": ["clustering", "regression"]}' \
    > build/override-smoke.json
  python3 - <<'EOF'
import json
with open("build/override-smoke.json") as f:
    doc = json.load(f)
assert doc["status_counts"] == {"200": 16}, doc["status_counts"]
assert doc["errors"] == 0, doc
print(f"override-smoke.json OK ({doc['completed']} requests)")
EOF

  # The live /metrics endpoint must round-trip as well-formed Prometheus
  # text exposition carrying both layers' metric families.
  ./build/bench/load_gen get --target "${target}" > build/metrics-wire.txt
  python3 - <<'EOF'
import re
with open("build/metrics-wire.txt") as f:
    lines = f.read().splitlines()
assert lines, "empty /metrics body"
sample = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+=\"[^\"]*\""
    r"(,[a-zA-Z0-9_]+=\"[^\"]*\")*\})? -?[0-9.eE+-]+$")
typed = set()
names = set()
for line in lines:
    if not line:
        continue
    if line.startswith("# TYPE "):
        parts = line.split()
        assert len(parts) == 4 and parts[3] in (
            "counter", "gauge", "histogram"), line
        typed.add(parts[2])
        continue
    if line.startswith("#"):
        continue
    assert sample.match(line), f"malformed sample line: {line!r}"
    names.add(line.split("{")[0].split()[0])
for required in ("net_requests_total", "net_connections_active",
                 "net_request_latency_us", "serve_requests_accepted_total",
                 "serve_request_latency_us"):
    assert any(n.startswith(required) for n in names), f"missing {required}"
    assert any(required == t for t in typed), f"no TYPE line for {required}"
print(f"metrics-wire.txt OK ({len(typed)} typed families, "
      f"{len(names)} sample names)")
EOF

  # Walk the introspection surface end to end.
  ./build/bench/load_gen get --target "${target}" \
    --target-path /debug/statusz > build/statusz-smoke.json
  ./build/bench/load_gen get --target "${target}" \
    --target-path /debug/tracez > build/tracez-smoke.json
  ./build/bench/load_gen get --target "${target}" \
    --target-path '/debug/pprof?seconds=1' > build/pprof-smoke.txt
  ./build/bench/load_gen get --target "${target}" \
    --target-path '/metrics?exemplars=1' > build/metrics-openmetrics.txt
  ./build/bench/load_gen get --target "${target}" \
    --target-path /fleet/status > build/fleet-wire.json
  python3 - <<'EOF'
import json

with open("build/statusz-smoke.json") as f:
    statusz = json.load(f)
assert statusz["build"]["version"], statusz["build"]
assert statusz["uptime_seconds"] >= 0.0, statusz
assert statusz["profiler"]["enabled"] is True, statusz["profiler"]
assert statusz["profiler"]["running"] is True, statusz["profiler"]
assert statusz["flight_recorder"]["slo_ms"] == 5.0, statusz["flight_recorder"]
assert statusz["serve"]["completed"] >= 1, statusz["serve"]
slots = statusz["slots"]["slots"]
assert any(s["slot"] == "default" for s in slots), slots
assert statusz["server"]["shards"] >= 1, statusz["server"]
assert statusz["fleet"]["tick"] == 3, statusz["fleet"]

with open("build/tracez-smoke.json") as f:
    tracez = json.load(f)
flight = tracez["flight_recorder"]
assert flight["enabled"] is True, flight
assert flight["slowest"], "stalled request missing from tracez reservoirs"
stalled = flight["slowest"][0]
assert stalled["total_ms"] >= 5.0, stalled
assert {s["name"] for s in stalled["spans"]} >= {"serve_plan"}, stalled
# The violating trace id surfaces as a latency exemplar on the same page...
exemplars = [e for e in tracez["exemplars"]
             if e["trace_id"] == stalled["trace_id"]]
assert exemplars, (stalled["trace_id"], tracez["exemplars"])

with open("build/pprof-smoke.txt") as f:
    pprof = f.read()
assert pprof.startswith("# profile: cpu_samples\n"), pprof[:80]
for header in ("# sample_hz: 97", "# window_seconds: 1.000", "# samples:"):
    assert header in pprof, f"missing {header!r} in pprof header"

with open("build/metrics-openmetrics.txt") as f:
    openmetrics = f.read()
assert openmetrics.rstrip().endswith("# EOF"), "OpenMetrics body not EOF-terminated"
# ...and on the OpenMetrics exposition as `# {trace_id="..."}`.
needle = '# {trace_id="%d"' % stalled["trace_id"]
assert needle in openmetrics, f"missing exemplar {needle!r} on /metrics"

with open("build/fleet-wire.json") as f:
    fleet = json.load(f)
assert fleet["tick"] == 3, fleet
assert len(fleet["policies"]) == 2, fleet
# The drill vetoes every canary: the wire view must agree with the CLI one.
assert all(p["promotes"] == 0 for p in fleet["policies"]), fleet
assert sum(p["publishes"] for p in fleet["policies"]) >= 2, fleet
print("introspection smoke OK (statusz/tracez/pprof/openmetrics/fleet)")
EOF

  # Graceful shutdown: SIGINT → service drain → connection drain → exit 0,
  # and the final stats ledger must balance with nothing dropped.
  kill -INT "${server_pid}"
  local server_rc=0
  wait "${server_pid}" || server_rc=$?
  if [ "${server_rc}" -ne 0 ]; then
    echo "server exited with ${server_rc}:" >&2
    cat build/serve-smoke.log >&2
    return 1
  fi
  python3 - <<'EOF'
import json
with open("build/serve-smoke.log") as f:
    stats = json.loads([line for line in f.read().splitlines()
                        if line.startswith("{")][-1])
assert stats["failed"] == 0, stats
assert stats["accepted"] == stats["completed"] + stats["expired_deadline"], stats
assert stats["queue_depth"] == 0, stats
print(f"serve-smoke stats OK ({stats['completed']} completed, 0 failed)")

# /debug/tracez and --trace-out read the same stage events: the stalled
# request's queue wait and plan carry its trace id in the trace file, with
# the durations tracez reported, to the microsecond.
with open("build/tracez-smoke.json") as f:
    stalled = json.load(f)["flight_recorder"]["slowest"][0]
with open("build/serve-trace.json") as f:
    trace = json.load(f)
file_us = {e["name"]: e["dur"] for e in trace["traceEvents"]
           if e["ph"] == "X"
           and e["args"].get("trace_id") == str(stalled["trace_id"])}
tracez_us = {s["name"]: 1000 * s["duration_ms"] for s in stalled["spans"]}
for stage in ("serve_queue_wait", "serve_plan"):
    assert stage in file_us and stage in tracez_us, (stage, file_us, stalled)
    assert abs(file_us[stage] - tracez_us[stage]) < 1, (stage, file_us,
                                                        tracez_us)
print(f"serve-trace.json OK (trace {stalled['trace_id']} matches tracez)")
EOF
}

run_paper_smoke() {
  echo "==> Paper tables (one bench program per table, kept in build/paper/)"
  mkdir -p build/paper
  local program
  for program in fig1_baselines table4_user_study table5_transfer_courses \
      table7_transfer_trips table9_params_univ1 table12_params_univ2 \
      table15_params_trips ablations convergence; do
    "./build/bench/${program}" > "build/paper/${program}.txt"
    if [ ! -s "build/paper/${program}.txt" ]; then
      echo "${program} printed nothing" >&2
      return 1
    fi
  done
  echo "paper tables OK ($(ls build/paper | wc -l) files in build/paper/)"
}

run_smoke_lanes() {
  run_paper_smoke
  run_bench_smoke
  run_metrics_smoke
  run_trace_smoke
  run_fleet_smoke
  run_serve_smoke
}

case "${1:-}" in
  smoke)
    run_smoke_lanes
    echo "==> Smoke lanes passed"
    exit 0
    ;;
  "") ;;
  *)
    echo "usage: tools/check.sh [smoke]" >&2
    exit 2
    ;;
esac

if [ "${MODE}" = "thread" ]; then
  run_tsan_lane
  echo "==> TSan checks passed"
  exit 0
fi

echo "==> Release build + tests"
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}"

run_bench_gate
run_smoke_lanes

echo "==> ASan/UBSan build + tests"
cmake -B build-sanitize -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DRLPLANNER_SANITIZE=ON
cmake --build build-sanitize -j "${JOBS}"
ctest --test-dir build-sanitize --output-on-failure -j "${JOBS}"

run_tsan_lane

echo "==> All checks passed"
