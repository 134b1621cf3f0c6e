// Regenerates Figure 2: (a)(c) time to learn a policy vs the number of
// episodes N, and (b)(d) time to recommend a plan from the learned policy,
// for course planning (Univ-1 DS-CT) and trip planning (NYC).
//
// Expected shape (paper): learning time grows linearly with N; applying a
// learned policy takes only fractions of a second ("interactive mode").
//
// A google-benchmark suite: run it with no arguments, or with gbench flags
// (--benchmark_filter=..., --benchmark_format=json). Training throughput
// beyond the paper's catalogs is train_bench's question (BENCH_train.json).

#include <benchmark/benchmark.h>

#include "core/config.h"
#include "core/planner.h"
#include "datagen/course_data.h"
#include "datagen/trip_data.h"

namespace {

using rlplanner::core::PlannerConfig;
using rlplanner::core::RlPlanner;
using rlplanner::datagen::Dataset;

void ConfigureEpisodes(PlannerConfig& config, int episodes,
                       const Dataset& dataset) {
  config.sarsa.num_episodes = episodes;
  config.sarsa.start_item = dataset.default_start;
}

// Figure 2(a): course learning time vs N.
void BM_LearnCourse(benchmark::State& state) {
  const Dataset dataset = rlplanner::datagen::MakeUniv1DsCt();
  const rlplanner::model::TaskInstance instance = dataset.Instance();
  PlannerConfig config = rlplanner::core::DefaultUniv1Config();
  ConfigureEpisodes(config, static_cast<int>(state.range(0)), dataset);
  for (auto _ : state) {
    RlPlanner planner(instance, config);
    benchmark::DoNotOptimize(planner.Train().ok());
  }
  state.counters["episodes"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_LearnCourse)->Arg(100)->Arg(200)->Arg(300)->Arg(500)->Arg(1000);

// Figure 2(b): course recommendation time from a learned policy.
void BM_RecommendCourse(benchmark::State& state) {
  const Dataset dataset = rlplanner::datagen::MakeUniv1DsCt();
  const rlplanner::model::TaskInstance instance = dataset.Instance();
  PlannerConfig config = rlplanner::core::DefaultUniv1Config();
  ConfigureEpisodes(config, static_cast<int>(state.range(0)), dataset);
  RlPlanner planner(instance, config);
  if (!planner.Train().ok()) state.SkipWithError("training failed");
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.Recommend(dataset.default_start).ok());
  }
  state.counters["episodes"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RecommendCourse)->Arg(100)->Arg(500)->Arg(1000);

// Figure 2(c): trip learning time vs N.
void BM_LearnTrip(benchmark::State& state) {
  const Dataset dataset = rlplanner::datagen::MakeNycTrip();
  const rlplanner::model::TaskInstance instance = dataset.Instance();
  PlannerConfig config = rlplanner::core::DefaultTripConfig();
  ConfigureEpisodes(config, static_cast<int>(state.range(0)), dataset);
  for (auto _ : state) {
    RlPlanner planner(instance, config);
    benchmark::DoNotOptimize(planner.Train().ok());
  }
  state.counters["episodes"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_LearnTrip)->Arg(100)->Arg(200)->Arg(300)->Arg(500)->Arg(1000);

// Figure 2(d): trip recommendation time from a learned policy.
void BM_RecommendTrip(benchmark::State& state) {
  const Dataset dataset = rlplanner::datagen::MakeNycTrip();
  const rlplanner::model::TaskInstance instance = dataset.Instance();
  PlannerConfig config = rlplanner::core::DefaultTripConfig();
  ConfigureEpisodes(config, static_cast<int>(state.range(0)), dataset);
  RlPlanner planner(instance, config);
  if (!planner.Train().ok()) state.SkipWithError("training failed");
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.Recommend(dataset.default_start).ok());
  }
  state.counters["episodes"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RecommendTrip)->Arg(100)->Arg(500)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
