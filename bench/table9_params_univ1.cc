// Regenerates Tables IX, X and XI: one-at-a-time parameter tuning on the
// Univ-1 M.S. DS-CT program — topic-coverage threshold epsilon, type
// weights (w1, w2), number of episodes N, learning rate alpha, discount
// factor gamma, starting point s1, and reward weights (delta, beta) — for
// RL-Planner with Avg and Min similarity, plus EDA where a model-free
// method has the parameter ("—" otherwise).
//
// Expected shape (paper): RL-Planner is robust (scores stable near the
// defaults and best around them); raising epsilon hurts; EDA trails
// RL-Planner and hits 0 at the harshest epsilon.

#include <cstdio>

#include "core/config.h"
#include "datagen/course_data.h"
#include "eval/sweep.h"
#include "paper_bench.h"
#include "util/string_util.h"

namespace {

using rlplanner::core::PlannerConfig;
using rlplanner::eval::RunSweep;
using rlplanner::eval::SweepRow;
using rlplanner::eval::SweepValue;
using rlplanner::util::FormatDouble;
using namespace rlplanner::bench;

constexpr int kRuns = 10;

SweepValue TypeWeights(double w1, double w2) {
  return {FormatDouble(w1, 2) + "/" + FormatDouble(w2, 2),
          [w1, w2](PlannerConfig& c) { c.reward.category_weights = {w1, w2}; },
          nullptr, true};
}

}  // namespace

int main() {
  const auto make_dataset = rlplanner::datagen::MakeUniv1DsCt;
  const rlplanner::datagen::Dataset reference = make_dataset();
  const PlannerConfig base = rlplanner::core::DefaultUniv1Config();

  std::vector<SweepRow> rows;
  rows.push_back(RunSweep(make_dataset, base, "epsilon",
                          {EpsilonValue(0.0025), EpsilonValue(0.005),
                           EpsilonValue(0.01), EpsilonValue(0.0175),
                           EpsilonValue(0.02)},
                          kRuns, 1000, &Pool()));
  rows.push_back(RunSweep(make_dataset, base, "w1/w2",
                          {TypeWeights(0.4, 0.6), TypeWeights(0.5, 0.5),
                           TypeWeights(0.6, 0.4), TypeWeights(0.65, 0.35),
                           TypeWeights(0.8, 0.2)},
                          kRuns, 1000, &Pool()));
  std::printf("%s", rlplanner::eval::FormatSweepTable(
                        "Table IX: Univ-1 DS-CT — epsilon and type weights",
                        rows)
                        .c_str());
  rows.clear();

  rows.push_back(RunSweep(make_dataset, base, "N",
                          {Episodes(100), Episodes(200), Episodes(300),
                           Episodes(500), Episodes(1000)},
                          kRuns, 1000, &Pool()));
  rows.push_back(RunSweep(make_dataset, base, "alpha",
                          {Alpha(0.5), Alpha(0.6), Alpha(0.75), Alpha(0.8),
                           Alpha(0.95)},
                          kRuns, 1000, &Pool()));
  rows.push_back(RunSweep(make_dataset, base, "gamma",
                          {Gamma(0.5), Gamma(0.6), Gamma(0.9), Gamma(0.95),
                           Gamma(0.99)},
                          kRuns, 1000, &Pool()));
  std::printf("%s", rlplanner::eval::FormatSweepTable(
                        "Table X: Univ-1 DS-CT — N, alpha, gamma", rows)
                        .c_str());
  rows.clear();

  rows.push_back(RunSweep(make_dataset, base, "s1",
                          {StartPoint(reference, "CS 675"),
                           StartPoint(reference, "CS 610"),
                           StartPoint(reference, "CS 631"),
                           StartPoint(reference, "MATH 661")},
                          kRuns, 1000, &Pool()));
  rows.push_back(RunSweep(make_dataset, base, "delta/beta",
                          {DeltaBeta(0.4, 0.6), DeltaBeta(0.45, 0.55),
                           DeltaBeta(0.5, 0.5), DeltaBeta(0.55, 0.45),
                           DeltaBeta(0.6, 0.4)},
                          kRuns, 1000, &Pool()));
  std::printf("%s", rlplanner::eval::FormatSweepTable(
                        "Table XI: Univ-1 DS-CT — starting point and "
                        "delta/beta",
                        rows)
                        .c_str());
  return 0;
}
