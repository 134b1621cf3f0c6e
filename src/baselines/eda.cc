#include "baselines/eda.h"

#include "mdp/episode_state.h"
#include "rl/action_mask.h"
#include "rl/recommender.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace rlplanner::baselines {

EdaGreedy::EdaGreedy(const model::TaskInstance& instance,
                     const mdp::RewardWeights& weights)
    : instance_(&instance), weights_(&weights) {}

model::Plan EdaGreedy::BuildPlan(std::uint64_t seed) const {
  const mdp::RewardFunction reward(*instance_, *weights_);
  util::Rng rng(seed);
  const std::size_t n = instance_->catalog->size();
  const int horizon = rl::EpisodeHorizon(*instance_);

  mdp::EpisodeState state(*instance_);
  util::DynamicBitset feasible(n);
  rl::StepRanker ranker(reward);
  while (static_cast<int>(state.Length()) < horizon) {
    feasible.Clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (reward.IsFeasible(state, static_cast<model::ItemId>(i))) {
        feasible.Set(i);
      }
    }
    ranker.Score(state, feasible);
    const model::ItemId next = ranker.DrawRewardTie(rng);
    if (next < 0) break;
    state.Add(next);
  }
  return state.ToPlan();
}

}  // namespace rlplanner::baselines
