// Regenerates Tables XII, XIII and XIV: one-at-a-time parameter tuning on
// the Univ-2 M.S. DS program — N, alpha, gamma, epsilon (Table XII), the
// six sub-discipline weights w1..w6 (Table XIII), and starting point plus
// delta/beta (Table XIV) — for RL-Planner with Avg and Min similarity and
// EDA where applicable.
//
// Expected shape (paper): scores stable in the 10-12 band (of max 15)
// across all parameters, i.e. RL-Planner is robust on Univ-2 as well.

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

SweepValue CategoryWeights(std::vector<double> weights) {
  std::vector<std::string> parts;
  for (double w : weights) parts.push_back(FormatDouble(w, 2));
  return {rlplanner::util::Join(parts, "/"),
          [weights = std::move(weights)](PlannerConfig& c) {
            c.reward.category_weights = weights;
          },
          nullptr, true};
}

}  // namespace

int main() {
  const auto make_dataset = rlplanner::datagen::MakeUniv2Ds;
  const rlplanner::datagen::Dataset reference = make_dataset();
  const PlannerConfig base = rlplanner::core::DefaultUniv2Config();

  std::vector<SweepRow> rows;
  rows.push_back(RunSweep(make_dataset, base, "N",
                          {Episodes(100), Episodes(200), Episodes(300),
                           Episodes(500), Episodes(1000)},
                          kRuns, 1000, &Pool()));
  rows.push_back(RunSweep(make_dataset, base, "alpha",
                          {Alpha(0.5), Alpha(0.6), Alpha(0.75), Alpha(0.8),
                           Alpha(0.9)},
                          kRuns, 1000, &Pool()));
  rows.push_back(RunSweep(make_dataset, base, "gamma",
                          {Gamma(0.7), Gamma(0.75), Gamma(0.8), Gamma(0.9),
                           Gamma(0.95)},
                          kRuns, 1000, &Pool()));
  rows.push_back(RunSweep(make_dataset, base, "epsilon",
                          {EpsilonValue(0.0025), EpsilonValue(0.005),
                           EpsilonValue(0.01), EpsilonValue(0.015),
                           EpsilonValue(0.02)},
                          kRuns, 1000, &Pool()));
  std::printf("%s", rlplanner::eval::FormatSweepTable(
                        "Table XII: Univ-2 DS — N, alpha, gamma, epsilon",
                        rows)
                        .c_str());
  rows.clear();

  rows.push_back(RunSweep(
      make_dataset, base, "w1..w6",
      {CategoryWeights({0.25, 0.01, 0.15, 0.42, 0.01, 0.16}),
       CategoryWeights({0.2, 0.01, 0.16, 0.4, 0.01, 0.22}),
       CategoryWeights({0.21, 0.01, 0.15, 0.41, 0.02, 0.2}),
       CategoryWeights({0.25, 0.01, 0.15, 0.4, 0.01, 0.18})},
      kRuns, 1000, &Pool()));
  std::printf("%s", rlplanner::eval::FormatSweepTable(
                        "Table XIII: Univ-2 DS — sub-discipline weights",
                        rows)
                        .c_str());
  rows.clear();

  rows.push_back(RunSweep(make_dataset, base, "s1",
                          {StartPoint(reference, "STATS 263"),
                           StartPoint(reference, "MS&E 237")},
                          kRuns, 1000, &Pool()));
  rows.push_back(RunSweep(make_dataset, base, "delta/beta",
                          {DeltaBeta(0.2, 0.8), DeltaBeta(0.3, 0.7),
                           DeltaBeta(0.4, 0.6), DeltaBeta(0.6, 0.4),
                           DeltaBeta(0.7, 0.3), DeltaBeta(0.8, 0.2)},
                          kRuns, 1000, &Pool()));
  std::printf("%s", rlplanner::eval::FormatSweepTable(
                        "Table XIV: Univ-2 DS — starting point and "
                        "delta/beta",
                        rows)
                        .c_str());
  return 0;
}
