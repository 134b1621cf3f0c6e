// Ablation study for the design choices this reproduction adds on top of
// the paper's plain Algorithm 1 (see DESIGN.md "Interpretation notes"):
//
//   A. action masking (split/antecedent lookahead) on vs off;
//   B. policy-iteration safety loop (rounds = 5) vs plain SARSA (rounds = 1);
//   C. behavior policy: argmax-R (Algorithm 1) vs epsilon-greedy on Q;
//   D. exploration epsilon 0 / 0.1 / 0.3.
//
// Each row reports the mean score and the fraction of runs whose plan
// satisfies every hard constraint, over 10 seeds on Univ-1 DS-CT and NYC,
// from eval::RunMethod's RL-Planner (Avg) runs: the defaults row equals
// Figure 1's RL-Planner (Avg) cell.

#include <cstdio>
#include <functional>
#include <string>
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

constexpr int kRuns = 10;

using Variant = std::pair<std::string, std::function<void(PlannerConfig&)>>;

void RunTable(const char* title, const Dataset& dataset,
              const PlannerConfig& base,
              const std::vector<Variant>& variants) {
  rlplanner::util::AsciiTable table({"variant", "mean score", "valid"});
  for (const auto& [label, mutate] : variants) {
    PlannerConfig config = base;
    mutate(config);
    const ExperimentResult result =
        RunMethod(dataset, Method::kRlPlannerAvg, config, kRuns, 1000, &Pool());
    table.AddRow({label, rlplanner::util::FormatDouble(result.mean_score, 2),
                  rlplanner::util::FormatDouble(result.valid_fraction, 2)});
  }
  std::printf("%s\n%s\n", title, table.ToString().c_str());
}

}  // namespace

int main() {
  using rlplanner::rl::ExplorationMode;
  const Dataset ds_ct = rlplanner::datagen::MakeUniv1DsCt();
  const Dataset nyc = rlplanner::datagen::MakeNycTrip();

  const std::vector<Variant> variants = {
      {"full RL-Planner (defaults)", [](PlannerConfig&) {}},
      {"A. no action masking",
       [](PlannerConfig& c) { c.sarsa.mask_type_overflow = false; }},
      {"B. no policy iteration (rounds=1)",
       [](PlannerConfig& c) { c.sarsa.policy_rounds = 1; }},
      {"B. more rounds (rounds=10)",
       [](PlannerConfig& c) { c.sarsa.policy_rounds = 10; }},
      {"C. epsilon-greedy-on-Q behavior",
       [](PlannerConfig& c) {
         c.sarsa.exploration = ExplorationMode::kEpsilonGreedyQ;
       }},
      {"D. exploration eps=0",
       [](PlannerConfig& c) { c.sarsa.explore_epsilon = 0.0; }},
      {"D. exploration eps=0.3",
       [](PlannerConfig& c) { c.sarsa.explore_epsilon = 0.3; }},
      {"E. Q-learning target",
       [](PlannerConfig& c) {
         c.sarsa.update_rule = rlplanner::rl::UpdateRule::kQLearning;
       }},
      {"E. Expected-SARSA target",
       [](PlannerConfig& c) {
         c.sarsa.update_rule = rlplanner::rl::UpdateRule::kExpectedSarsa;
       }},
      {"F. beam search (width 4)",
       [](PlannerConfig& c) { c.use_beam_search = true; }},
      {"F. beam search (width 8)",
       [](PlannerConfig& c) {
         c.use_beam_search = true;
         c.beam.width = 8;
         c.beam.expansion = 8;
       }},
  };

  RunTable("Ablations — Univ-1 DS-CT (max score 10)", ds_ct,
           rlplanner::core::DefaultUniv1Config(), variants);
  RunTable("Ablations — NYC trip (max score 5)", nyc,
           rlplanner::core::DefaultTripConfig(), variants);
  return 0;
}
