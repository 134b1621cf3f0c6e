// Training-throughput benchmark for the intra-run parallel SARSA learner
// (rl/parallel_sarsa.h). For each dataset it times a full training run at
// K in {1, 2, 4, 8} episode workers — K = 1 is the serial learner (the
// `serial` row), K > 1 the deterministic sharded learner — reporting
// episodes/sec and time-to-constraint-satisfaction (wall-clock until the
// first policy-iteration round whose greedy rollout satisfies every hard
// constraint).
//
// An argument-less run emits BENCH_train.json (same conventions as
// BENCH_micro.json); `--smoke` shrinks the episode budget to a few seconds
// for the CI bench-smoke lane; `--trace-out FILE` additionally captures a
// Chrome trace-event timeline of every run (round/shard/merge spans per
// worker — see docs/observability.md) for straggler analysis in Perfetto.
// Exit status is non-zero when any run fails to produce a result, so the
// lane catches regressions, and the lane additionally validates the JSON
// shape.
//
// Speedups are bounded by the physical core count: `hardware_threads` is
// recorded in the output so a 1-core CI container reporting ~1x for every
// K is distinguishable from a real regression. Learned tables depend only
// on (seed, K), so throughput may be measured on any machine without
// changing what is learned.

#include <chrono>
#include <cstdio>
#include <memory>
#include <type_traits>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "datagen/course_data.h"
#include "datagen/synthetic.h"
#include "mdp/reward.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "obs/training_metrics.h"
#include "rl/parallel_sarsa.h"
#include "rl/sarsa.h"
#include "rl/sarsa_config.h"
#include "util/simd.h"

namespace {

using rlplanner::datagen::Dataset;
using rlplanner::rl::SarsaConfig;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunResult {
  std::string name;       // e.g. "univ1_dsct/deterministic/K4"
  const char* mode;       // "serial" (K = 1) | "deterministic" (K > 1)
  int workers = 1;
  std::size_t catalog_items = 0;
  int episodes = 0;
  double seconds = 0.0;
  double episodes_per_sec = 0.0;
  double time_to_safe_seconds = -1.0;  // -1: no safe round observed
  std::uint64_t steps = 0;             // TD updates applied
  double td_error_abs_p95 = 0.0;       // |TD error| 95th percentile
  double merge_wait_p95_us = 0.0;      // sharded barrier wait (0 at K = 1)
  const char* q_repr = "dense";        // Q representation trained on
  bool ok = false;
};

// One dataset's benchmark setup: the instance, its reward weights, and the
// SARSA configuration shared by every worker count. `sparse` scenarios
// train on the SparseQTable representation (catalogs where the dense |I|²
// table would not fit).
struct Scenario {
  std::string name;
  Dataset dataset;
  rlplanner::mdp::RewardWeights weights;
  SarsaConfig sarsa;
  bool sparse = false;
};

Scenario MakeUniv1() {
  Scenario s;
  s.name = "univ1_dsct";
  s.dataset = rlplanner::datagen::MakeUniv1DsCt();
  const auto config = rlplanner::core::DefaultUniv1Config();
  s.weights = config.reward;
  s.sarsa = config.sarsa;
  return s;
}

Scenario MakeUniv2() {
  Scenario s;
  s.name = "univ2_ds";
  s.dataset = rlplanner::datagen::MakeUniv2Ds();
  const auto config = rlplanner::core::DefaultUniv2Config();
  s.weights = config.reward;
  s.sarsa = config.sarsa;
  return s;
}

Scenario MakeSynthetic1k() {
  Scenario s;
  s.name = "synthetic_1k";
  rlplanner::datagen::SyntheticSpec spec;
  spec.num_items = 1000;
  spec.vocab_size = 2000;
  s.dataset = rlplanner::datagen::GenerateSynthetic(spec);
  s.sarsa = SarsaConfig{};
  return s;
}

// Sparse-representation scale scenarios: a small fixed vocabulary keeps
// catalog size the only scaling axis, and policy_rounds stays 1 because a
// restart round's AddNoise materializes all |I|² cells — the dense blow-up
// the sparse table exists to avoid.
Scenario MakeSyntheticSparse(const char* name, int num_items) {
  Scenario s;
  s.name = name;
  s.sparse = true;
  rlplanner::datagen::SyntheticSpec spec;
  spec.num_items = num_items;
  spec.vocab_size = 512;
  spec.seed = 7;
  s.dataset = rlplanner::datagen::GenerateSynthetic(spec);
  s.sarsa = SarsaConfig{};
  s.sarsa.q_representation = rlplanner::rl::QRepresentation::kSparse;
  s.sarsa.policy_rounds = 1;
  return s;
}

RunResult RunOne(const Scenario& scenario, int workers, int episodes,
                 rlplanner::obs::TraceCollector* trace) {
  const rlplanner::model::TaskInstance instance = scenario.dataset.Instance();
  const rlplanner::mdp::RewardFunction reward(instance, scenario.weights);

  SarsaConfig config = scenario.sarsa;
  config.num_episodes = episodes;
  config.start_item = scenario.dataset.default_start;
  config.num_workers = workers;

  RunResult result;
  result.mode = workers == 1 ? "serial" : "deterministic";
  result.name = scenario.name + "/" + result.mode;
  if (workers > 1) result.name += "/K" + std::to_string(workers);
  result.workers = workers;
  result.catalog_items = scenario.dataset.catalog.size();
  result.episodes = episodes;
  result.q_repr = scenario.sparse ? "sparse" : "dense";

  // K = 1 runs the plain SarsaLearner via the parallel learner's
  // delegation (identical table and draws). Every run records into its
  // own registry, which also exercises the metrics hot path under bench
  // load — the reported throughput is the instrumented throughput. The
  // dense and sparse learners share one templated implementation, so the
  // representation is the only variable between the two branches.
  rlplanner::obs::Registry registry;
  rlplanner::obs::TrainingMetrics metrics(&registry);
  const auto run_learner = [&](auto tag) {
    using Learner = typename decltype(tag)::type;
    Learner learner(instance, reward, config, /*seed=*/17);
    learner.set_metrics(&metrics);
    learner.set_trace(trace);
    const auto q = learner.Learn();
    result.time_to_safe_seconds = learner.time_to_safe_seconds();
    result.ok = q.num_items() == scenario.dataset.catalog.size() &&
                static_cast<int>(learner.episode_returns().size()) == episodes;
  };
  const double begin = Now();
  if (scenario.sparse) {
    run_learner(std::type_identity<rlplanner::rl::SparseParallelSarsaLearner>{});
  } else {
    run_learner(std::type_identity<rlplanner::rl::ParallelSarsaLearner>{});
  }
  result.seconds = Now() - begin;
  for (const auto& metric : registry.Collect().metrics) {
    if (metric.name == "train_steps_total") {
      result.steps = static_cast<std::uint64_t>(metric.value);
    } else if (metric.name == "train_td_error_abs_micro") {
      result.td_error_abs_p95 = metric.p95 / 1e6;
    } else if (metric.name == "train_merge_barrier_wait_us") {
      result.merge_wait_p95_us = metric.p95;
    }
  }
  if (result.seconds > 0.0) {
    result.episodes_per_sec = episodes / result.seconds;
  }
  return result;
}

void PrintEntry(std::FILE* f, const RunResult& r, bool last) {
  std::fprintf(f,
               "    {\"name\": \"%s\", \"mode\": \"%s\", \"workers\": %d, "
               "\"catalog_items\": %zu, \"episodes\": %d, "
               "\"q_repr\": \"%s\", "
               "\"seconds\": %.4f, \"episodes_per_sec\": %.1f, "
               "\"time_to_safe_seconds\": %.4f, \"steps\": %llu, "
               "\"td_error_abs_p95\": %.4f, \"merge_wait_p95_us\": %.1f}%s\n",
               r.name.c_str(), r.mode, r.workers, r.catalog_items, r.episodes,
               r.q_repr, r.seconds, r.episodes_per_sec, r.time_to_safe_seconds,
               static_cast<unsigned long long>(r.steps), r.td_error_abs_p95,
               r.merge_wait_p95_us, last ? "" : ",");
}

int RunAll(bool smoke, const std::string& trace_out) {
  const unsigned hardware = std::thread::hardware_concurrency();
  const std::vector<int> worker_counts = {1, 2, 4, 8};

  // One collector spans every run, so a single Perfetto timeline shows all
  // scenarios and worker counts back to back (round/shard/merge spans per
  // worker). Every learner owns a fresh K-thread pool, so many short-lived
  // threads register; small per-thread rings let them all fit the budget.
  // Drops are reported, not fatal.
  std::unique_ptr<rlplanner::obs::TraceCollector> trace;
  if (!trace_out.empty()) {
    rlplanner::obs::TraceCollectorConfig trace_config;
    trace_config.events_per_thread = 1024;
    trace = std::make_unique<rlplanner::obs::TraceCollector>(trace_config);
    trace->SetCurrentThreadName("bench-main");
  }

  std::vector<Scenario> scenarios;
  scenarios.push_back(MakeUniv1());
  scenarios.push_back(MakeUniv2());
  scenarios.push_back(MakeSynthetic1k());
  // The 10k sparse catalog runs at every K — it is the smoke lane's
  // big-catalog coverage; 100k only in full runs.
  scenarios.push_back(MakeSyntheticSparse("synthetic_10k", 10000));
  if (!smoke) {
    scenarios.push_back(MakeSyntheticSparse("synthetic_100k", 100000));
  }

  std::vector<RunResult> results;
  bool all_ok = true;
  for (const Scenario& scenario : scenarios) {
    // Budgets: enough episodes that per-run setup cost amortizes away, a
    // few seconds of smoke total. The scale scenarios run ~100x (10k) and
    // ~1000x (100k) slower per episode than the paper-scale programs, so
    // their budgets shrink with size rather than with smoke alone.
    int episodes = smoke ? 20 : (scenario.name == "synthetic_1k" ? 100 : 200);
    if (scenario.name == "synthetic_10k") episodes = smoke ? 10 : 60;
    if (scenario.name == "synthetic_100k") episodes = 8;

    for (int k : worker_counts) {
      results.push_back(RunOne(scenario, k, episodes, trace.get()));
    }
    for (const RunResult& r : results) all_ok = all_ok && r.ok;
  }

  std::FILE* f = std::fopen("BENCH_train.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_train.json for writing\n");
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"hardware_threads\": %u,\n", hardware);
  std::fprintf(f, "  \"simd\": \"%s\",\n",
               rlplanner::util::simd::ActiveLevelName());
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    PrintEntry(f, results[i], i + 1 == results.size());
  }
  std::fprintf(f, "  ],\n");
  // K=8-vs-K=1 (serial) speedup per dataset, the headline scaling number.
  // On a single hardware thread this is ~1/K * K = 1x at best; see
  // hardware_threads above.
  std::fprintf(f, "  \"speedup_k8_vs_k1\": {");
  bool first = true;
  for (const Scenario& scenario : scenarios) {
    double k1 = 0.0;
    double k8 = 0.0;
    for (const RunResult& r : results) {
      if (r.name == scenario.name + "/serial") k1 = r.seconds;
      if (r.name == scenario.name + "/deterministic/K8") k8 = r.seconds;
    }
    std::fprintf(f, "%s\"%s\": %.2f", first ? "" : ", ",
                 scenario.name.c_str(), k8 > 0.0 ? k1 / k8 : 0.0);
    first = false;
  }
  std::fprintf(f, "}\n");
  std::fprintf(f, "}\n");
  std::fclose(f);

  for (const RunResult& r : results) {
    std::printf("%-36s %8.1f eps/sec  t_safe %7.3fs%s\n", r.name.c_str(),
                r.episodes_per_sec, r.time_to_safe_seconds,
                r.ok ? "" : "  [FAILED]");
  }
  std::printf("wrote BENCH_train.json (hardware_threads=%u)\n", hardware);

  if (trace != nullptr) {
    std::FILE* tf = std::fopen(trace_out.c_str(), "w");
    if (tf == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", trace_out.c_str());
      return 1;
    }
    const std::string json = trace->ToChromeTrace();
    std::fwrite(json.data(), 1, json.size(), tf);
    std::fclose(tf);
    std::printf("wrote %s (%llu events, %llu dropped)\n", trace_out.c_str(),
                static_cast<unsigned long long>(trace->emitted_total()),
                static_cast<unsigned long long>(trace->dropped_total()));
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    if (arg == "--trace-out" && i + 1 < argc) trace_out = argv[++i];
  }
  return RunAll(smoke, trace_out);
}
