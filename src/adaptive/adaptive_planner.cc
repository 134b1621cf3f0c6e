#include "adaptive/adaptive_planner.h"

#include "core/validation.h"
#include "rl/recommender.h"

namespace rlplanner::adaptive {

AdaptivePlanner::AdaptivePlanner(const core::RlPlanner& planner,
                                 double strength)
    : planner_(&planner),
      strength_(strength),
      feedback_(planner.instance().catalog->size()) {}

util::Result<model::Plan> AdaptivePlanner::Recommend(
    model::ItemId start_item) const {
  if (!planner_->trained()) {
    return util::Status::FailedPrecondition(
        "AdaptivePlanner requires a trained RlPlanner");
  }
  const model::TaskInstance& instance = planner_->instance();
  if (start_item < 0 ||
      static_cast<std::size_t>(start_item) >= instance.catalog->size()) {
    return util::Status::OutOfRange("start item out of range");
  }

  if (planner_->uses_sparse()) {
    return util::Status::FailedPrecondition(
        "AdaptivePlanner shifts every cell of a dense Q-table; the planner "
        "holds a sparse policy");
  }

  // Shift a copy of the learned table by the affinities (FoldFeedback's
  // shift, applied at recommendation time).
  const mdp::QTable shifted =
      FoldFeedback(planner_->q_table(), feedback_, strength_);

  rl::RecommendConfig config;
  config.start_item = start_item;
  config.mask_type_overflow = planner_->config().sarsa.mask_type_overflow;
  config.gamma = planner_->config().sarsa.gamma;
  model::Plan adapted = rl::RecommendPlan(shifted, instance,
                                          planner_->reward_function(), config);
  if (core::ValidatePlan(instance, adapted).valid) return adapted;

  // Personalize only as far as the hard constraints allow: re-plan from the
  // *base* policy with strongly-disliked items hard-excluded, and if even
  // that violates a constraint, fall back to the unpersonalized plan.
  rl::RecommendConfig exclusion_config = config;
  for (std::size_t a = 0; a < instance.catalog->size(); ++a) {
    const auto item = static_cast<model::ItemId>(a);
    if (feedback_.Affinity(item) < 0.35) {
      exclusion_config.excluded.push_back(item);
    }
  }
  model::Plan repaired = rl::RecommendPlan(
      planner_->q_table(), instance, planner_->reward_function(),
      exclusion_config);
  if (core::ValidatePlan(instance, repaired).valid) return repaired;
  return rl::RecommendPlan(planner_->q_table(), instance,
                           planner_->reward_function(), config);
}

util::Result<model::Plan> AdaptivePlanner::RunLoop(
    model::ItemId start_item, int max_iterations,
    const std::function<double(model::ItemId)>& rate) {
  util::Result<model::Plan> current = Recommend(start_item);
  if (!current.ok()) return current;
  for (int iteration = 0; iteration < max_iterations; ++iteration) {
    for (model::ItemId item : current.value().items()) {
      const double rating = rate(item);
      RLP_RETURN_IF_ERROR(feedback_.AddRating(item, rating));
    }
    util::Result<model::Plan> next = Recommend(start_item);
    if (!next.ok()) return next;
    if (next.value() == current.value()) break;  // converged
    current = std::move(next);
  }
  return current;
}

}  // namespace rlplanner::adaptive
