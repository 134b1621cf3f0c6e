// Transfer learning (Section IV-D): learn a policy on one task instance
// and apply it to another.
//
// Two regimes are shown:
//  1. M.S. DS-CT -> M.S. CS: the programs share course codes, so the
//     learned Q-table transfers through exact code matching;
//  2. NYC -> Paris: the POI sets are disjoint, so each Paris POI is matched
//     to its most theme-similar NYC POI and Q-values are pulled through
//     that mapping.
// Shipping a trained policy to another process goes through a v2 policy
// snapshot (`rlplanner_cli save-snapshot` / `load-snapshot`, or
// serve::MakeSnapshotV2 in code).

#include <cstdio>

#include "core/planner.h"
#include "datagen/course_data.h"
#include "datagen/trip_data.h"
#include "rl/transfer.h"

namespace {

void ShowTransfer(const rlplanner::datagen::Dataset& source,
                  const rlplanner::datagen::Dataset& target,
                  const rlplanner::core::PlannerConfig& base_config) {
  using namespace rlplanner;
  std::printf("== learn on %s, plan for %s ==\n", source.name.c_str(),
              target.name.c_str());

  const model::TaskInstance source_instance = source.Instance();
  core::PlannerConfig config = base_config;
  config.sarsa.start_item = source.default_start;
  core::RlPlanner source_planner(source_instance, config);
  if (const auto status = source_planner.Train(); !status.ok()) {
    std::fprintf(stderr, "training failed: %s\n", status.ToString().c_str());
    return;
  }

  // Map the policy into the target catalog and adopt it.
  const model::TaskInstance target_instance = target.Instance();
  core::PlannerConfig target_config = base_config;
  core::RlPlanner target_planner(target_instance, target_config);
  auto adopted = target_planner.AdoptPolicy(rl::PolicyTransfer::MapAcrossCatalogs(
      source_planner.q_table(), source.catalog, target.catalog));
  if (!adopted.ok()) {
    std::fprintf(stderr, "%s\n", adopted.ToString().c_str());
    return;
  }

  auto plan = target_planner.Recommend(target.default_start);
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return;
  }
  std::printf("  plan:  %s\n", plan.value().ToString(target.catalog).c_str());
  std::printf("  check: %s, score %.2f\n\n",
              target_planner.Validate(plan.value()).ToString().c_str(),
              target_planner.Score(plan.value()));
}

}  // namespace

int main() {
  using namespace rlplanner;

  const datagen::Dataset ds_ct = datagen::MakeUniv1DsCt();
  const datagen::Dataset cs = datagen::MakeUniv1Cs();
  ShowTransfer(ds_ct, cs, core::DefaultUniv1Config());

  const datagen::Dataset nyc = datagen::MakeNycTrip();
  const datagen::Dataset paris = datagen::MakeParisTrip();
  ShowTransfer(nyc, paris, core::DefaultTripConfig());

  return 0;
}
