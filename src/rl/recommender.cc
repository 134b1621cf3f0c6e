#include "rl/recommender.h"

#include "mdp/similarity.h"

namespace rlplanner::rl::recommender_internal {

util::DynamicBitset ExcludedBits(const model::TaskInstance& instance,
                                 const std::vector<model::ItemId>& excluded) {
  util::DynamicBitset bits(instance.catalog->size());
  for (model::ItemId item : excluded) {
    if (item >= 0 &&
        static_cast<std::size_t>(item) < instance.catalog->size()) {
      bits.Set(static_cast<std::size_t>(item));
    }
  }
  return bits;
}

ClassStep::ClassStep(const mdp::RewardFunction& reward)
    : theta_one(reward.instance().catalog->size()),
      pick(reward.instance().catalog->size()),
      class_reward(reward.num_reward_classes(), 0.0) {
  present.reserve(reward.num_reward_classes());
}

bool SelectTopRewardGroup(const mdp::RewardFunction& reward,
                          const mdp::EpisodeState& state, ClassStep* step) {
  std::vector<double>& r = step->class_reward;
  step->present.clear();
  std::size_t best = 0;
  for (std::size_t c = 0; c < reward.num_reward_classes(); ++c) {
    if (!step->theta_one.Intersects(reward.RewardClassItems(c))) continue;
    r[c] = reward.ClassReward(state, c);
    if (step->present.empty() || r[c] > r[best]) best = c;
    step->present.push_back(c);
  }
  auto in_group = [&](std::size_t c) { return !RewardBeats(r[best], r[c]); };
  // For each member g held by the stream and each present class c arriving:
  // a member must tie g without beating it; any other class must lose to g,
  // and g, arriving while c is held, must displace c outright.
  for (std::size_t g : step->present) {
    if (!in_group(g)) continue;
    for (std::size_t c : step->present) {
      const bool clean =
          in_group(c) ? RewardTies(r[c], r[g]) && !RewardBeats(r[c], r[g])
                      : !RewardTies(r[c], r[g]) && RewardBeats(r[g], r[c]);
      if (!clean) return false;
    }
  }
  step->pick.Clear();
  for (std::size_t c : step->present) {
    if (in_group(c)) step->pick |= reward.RewardClassItems(c);
  }
  step->pick &= step->theta_one;
  return true;
}

bool BetterEntry(const BeamEntry& a, const BeamEntry& b) {
  if (a.violating_steps != b.violating_steps) {
    return a.violating_steps < b.violating_steps;
  }
  return a.cumulative_reward > b.cumulative_reward;
}

double DomainScore(const model::TaskInstance& instance,
                   const model::Plan& plan) {
  if (instance.catalog->domain() == model::Domain::kTrip) {
    return plan.MeanPopularity(*instance.catalog);
  }
  return mdp::BestSimilarity(plan.ToTypeSequence(*instance.catalog),
                             instance.soft.interleaving);
}

}  // namespace rlplanner::rl::recommender_internal
