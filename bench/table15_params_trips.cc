// Regenerates Tables XV and XVI: one-at-a-time parameter tuning for trip
// planning on NYC and Paris — N, alpha, gamma, distance threshold d
// (Table XV), time threshold t and delta/beta (Table XVI) — for RL-Planner
// with Avg and Min similarity and EDA where applicable.
//
// Expected shape (paper): trip scores are very stable (4.4-4.8 band of max
// 5) across every parameter; EDA is clearly lower.

#include <cstdio>
#include <functional>

#include "core/config.h"
#include "datagen/trip_data.h"
#include "eval/sweep.h"
#include "paper_bench.h"
#include "util/string_util.h"

namespace {

using rlplanner::core::PlannerConfig;
using rlplanner::datagen::Dataset;
using rlplanner::eval::RunSweep;
using rlplanner::eval::SweepRow;
using rlplanner::eval::SweepValue;
using rlplanner::util::FormatDouble;
using namespace rlplanner::bench;

constexpr int kRuns = 10;

SweepValue DistanceThreshold(double d) {
  return {FormatDouble(d, 1),
          nullptr,
          [d](Dataset& dataset) { dataset.hard.distance_threshold_km = d; },
          true};
}

SweepValue TimeThreshold(double t) {
  return {FormatDouble(t, 1), nullptr,
          [t](Dataset& dataset) { dataset.hard.min_credits = t; }, true};
}

void RunCity(const char* city,
             const std::function<Dataset()>& make_dataset) {
  const PlannerConfig base = rlplanner::core::DefaultTripConfig();
  std::vector<SweepRow> rows;
  rows.push_back(RunSweep(make_dataset, base, "N",
                          {Episodes(100), Episodes(200), Episodes(300),
                           Episodes(500), Episodes(1000)},
                          kRuns, 1000, &Pool()));
  rows.push_back(RunSweep(make_dataset, base, "alpha",
                          {Alpha(0.5), Alpha(0.6), Alpha(0.75), Alpha(0.8),
                           Alpha(0.95)},
                          kRuns, 1000, &Pool()));
  rows.push_back(RunSweep(make_dataset, base, "gamma",
                          {Gamma(0.5), Gamma(0.6), Gamma(0.75), Gamma(0.8),
                           Gamma(0.95)},
                          kRuns, 1000, &Pool()));
  rows.push_back(RunSweep(make_dataset, base, "d (km)",
                          {DistanceThreshold(4.0), DistanceThreshold(5.0)},
                          kRuns, 1000, &Pool()));
  std::printf("%s",
              rlplanner::eval::FormatSweepTable(
                  std::string("Table XV: ") + city + " — N, alpha, gamma, d",
                  rows)
                  .c_str());
  rows.clear();

  rows.push_back(RunSweep(make_dataset, base, "t (h)",
                          {TimeThreshold(5.0), TimeThreshold(6.0),
                           TimeThreshold(8.0)},
                          kRuns, 1000, &Pool()));
  rows.push_back(RunSweep(make_dataset, base, "delta/beta",
                          {DeltaBeta(0.4, 0.6), DeltaBeta(0.45, 0.55),
                           DeltaBeta(0.5, 0.5), DeltaBeta(0.55, 0.45),
                           DeltaBeta(0.6, 0.4)},
                          kRuns, 1000, &Pool()));
  std::printf("%s", rlplanner::eval::FormatSweepTable(
                        std::string("Table XVI: ") + city +
                            " — t and delta/beta",
                        rows)
                        .c_str());
}

}  // namespace

int main() {
  RunCity("NYC", rlplanner::datagen::MakeNycTrip);
  RunCity("Paris", rlplanner::datagen::MakeParisTrip);
  return 0;
}
