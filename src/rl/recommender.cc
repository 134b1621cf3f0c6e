#include "rl/recommender.h"

#include "mdp/similarity.h"

namespace rlplanner::rl {

StepRanker::StepRanker(const mdp::RewardFunction& reward)
    : reward_(&reward),
      theta_one_(reward.instance().catalog->size()),
      pick_(reward.instance().catalog->size()),
      class_reward_(reward.num_reward_classes(), 0.0) {
  present_.reserve(reward.num_reward_classes());
}

void StepRanker::Score(const mdp::EpisodeState& state,
                       const util::DynamicBitset& candidates) {
  candidates_ = &candidates;
  reward_->ThetaOneSubset(state, candidates, &theta_one_);
  present_.clear();
  for (std::size_t c = 0; c < reward_->num_reward_classes(); ++c) {
    if (!theta_one_.Intersects(reward_->RewardClassItems(c))) continue;
    class_reward_[c] = reward_->ClassReward(state, c);
    if (present_.empty() || class_reward_[c] > class_reward_[best_class_]) {
      best_class_ = c;
    }
    present_.push_back(c);
  }
}

bool StepRanker::SelectTopGroup() {
  const std::vector<double>& r = class_reward_;
  auto in_group = [&](std::size_t c) { return !Beats(r[best_class_], r[c]); };
  // For each member g held by the stream and each present class c arriving:
  // a member must tie g without beating it; any other class must lose to g,
  // and g, arriving while c is held, must displace c outright.
  for (std::size_t g : present_) {
    if (!in_group(g)) continue;
    for (std::size_t c : present_) {
      const bool clean = in_group(c)
                             ? Ties(r[c], r[g]) && !Beats(r[c], r[g])
                             : !Ties(r[c], r[g]) && Beats(r[g], r[c]);
      if (!clean) return false;
    }
  }
  pick_.Clear();
  for (std::size_t c : present_) {
    if (in_group(c)) pick_ |= reward_->RewardClassItems(c);
  }
  pick_ &= theta_one_;
  return true;
}

namespace recommender_internal {

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

}  // namespace recommender_internal
}  // namespace rlplanner::rl
