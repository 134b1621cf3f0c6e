#ifndef RLPLANNER_BASELINES_EDA_H_
#define RLPLANNER_BASELINES_EDA_H_

#include <cstdint>

#include "mdp/reward.h"
#include "model/plan.h"

namespace rlplanner::baselines {

/// The adapted next-step EDA baseline (Section IV-A2): "a greedy method
/// that chooses the action with the highest reward based on Equation 2 in
/// each step. If two actions provide the same result, one will be picked at
/// random."
///
/// EDA is model-free: there is no learning phase, no N/alpha/gamma/s_1, and
/// no lookahead, which is exactly why it frequently violates the hard
/// constraints the paper reports it failing. Each step ranks the feasible
/// items (IsFeasible, no action mask) with the behaviour policy's own rule,
/// rl::StepRanker::DrawRewardTie.
class EdaGreedy {
 public:
  /// `instance` and `weights` must outlive the baseline.
  EdaGreedy(const model::TaskInstance& instance,
            const mdp::RewardWeights& weights);

  /// Builds a plan greedily. The first item is chosen greedily as well
  /// (highest Eq. 2 reward from the empty session). Courses stop at
  /// H = #primary + #secondary items; trips stop when the time budget is
  /// exhausted.
  model::Plan BuildPlan(std::uint64_t seed) const;

 private:
  const model::TaskInstance* instance_;
  const mdp::RewardWeights* weights_;
};

}  // namespace rlplanner::baselines

#endif  // RLPLANNER_BASELINES_EDA_H_
