// Regenerates Figure 1: average plan scores of RL-Planner (Avg and Min
// similarity), OMEGA, EDA, and the gold standard on the four course
// programs (a) and the two trips (b), averaged over 10 runs.
//
// Expected shape (paper): RL-Planner scores close to the gold standard and
// clearly above EDA; OMEGA fails the hard constraints most of the time and
// scores at or near 0.

#include <cstdio>
#include <functional>
#include <vector>

#include "core/config.h"
#include "datagen/course_data.h"
#include "datagen/trip_data.h"
#include "eval/experiment.h"
#include "paper_bench.h"
#include "util/string_util.h"
#include "util/table.h"

namespace {

using rlplanner::bench::Pool;
using rlplanner::core::PlannerConfig;
using rlplanner::datagen::Dataset;
using rlplanner::eval::ExperimentResult;
using rlplanner::eval::Method;
using rlplanner::eval::RunMethod;

struct Row {
  const char* label;
  std::function<Dataset()> make;
  std::function<PlannerConfig()> config;
};

constexpr int kRuns = 10;

void RunPanel(const char* title, const std::vector<Row>& rows) {
  std::printf("%s\n", title);
  rlplanner::util::AsciiTable table(
      {"dataset", "RL-Planner (Avg)", "RL-Planner (Min)", "OMEGA",
       "OMEGA-edge", "EDA", "Gold", "max"});
  for (const Row& row : rows) {
    const Dataset dataset = row.make();
    const PlannerConfig config = row.config();
    std::vector<std::string> cells = {row.label};
    for (Method method :
         {Method::kRlPlannerAvg, Method::kRlPlannerMin, Method::kOmega,
          Method::kOmegaEdge, Method::kEda, Method::kGold}) {
      const ExperimentResult result =
          RunMethod(dataset, method, config, kRuns, 1000, &Pool());
      cells.push_back(rlplanner::util::FormatDouble(result.mean_score, 2));
    }
    const double max_score =
        dataset.catalog.domain() == rlplanner::model::Domain::kTrip
            ? 5.0
            : static_cast<double>(dataset.hard.TotalItems());
    cells.push_back(rlplanner::util::FormatDouble(max_score, 0));
    table.AddRow(std::move(cells));
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace

int main() {
  using namespace rlplanner::datagen;
  using rlplanner::core::DefaultTripConfig;
  using rlplanner::core::DefaultUniv1Config;
  using rlplanner::core::DefaultUniv2Config;

  RunPanel("Figure 1(a): course planning (mean score over 10 runs)",
           {
               {"Univ-1 DS-CT", MakeUniv1DsCt, DefaultUniv1Config},
               {"Univ-1 Cybersecurity", MakeUniv1Cybersecurity,
                DefaultUniv1Config},
               {"Univ-1 CS", MakeUniv1Cs, DefaultUniv1Config},
               {"Univ-2 DS", MakeUniv2Ds, DefaultUniv2Config},
           });
  RunPanel("Figure 1(b): trip planning (mean score over 10 runs)",
           {
               {"NYC", MakeNycTrip, DefaultTripConfig},
               {"Paris", MakeParisTrip, DefaultTripConfig},
           });
  return 0;
}
