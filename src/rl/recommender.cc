#include "rl/recommender.h"

#include "mdp/similarity.h"
#include "model/catalog.h"

namespace rlplanner::rl {

StepRanker::StepRanker(const mdp::RewardFunction& reward)
    : reward_(&reward),
      covered_(reward.instance().catalog->vocabulary_size()),
      theta_one_(reward.instance().catalog->size()),
      pick_(reward.instance().catalog->size()),
      class_reward_(reward.num_reward_classes(), 0.0) {
  present_.reserve(reward.num_reward_classes());
  Reset();
}

void StepRanker::Reset() {
  applied_.clear();
  uncovered_ = reward_->IdealTopicCounts();
  covered_.Clear();
  r1_ = reward_->InitialCoverageItems();
  r2_ = reward_->NoPrerequisiteItems();
}

void StepRanker::Cover(model::ItemId item) {
  const model::Catalog& catalog = *reward_->instance().catalog;
  const model::TopicVector& ideal = reward_->instance().soft.ideal_topics;
  const std::size_t required = reward_->RequiredNewIdealTopics();
  catalog.item(item).topics.ForEachSetBit([&](std::size_t topic) {
    if (!ideal.Test(topic) || covered_.Test(topic)) return;
    covered_.Set(topic);
    for (model::ItemId holder : catalog.ItemsWithTopic(topic)) {
      const auto i = static_cast<std::size_t>(holder);
      if (--uncovered_[i] < required) r1_.Set(i, false);
    }
  });
}

void StepRanker::Sync(const mdp::EpisodeState& state) {
  const std::vector<model::ItemId>& sequence = state.sequence();
  if (applied_.size() > sequence.size() ||
      !std::equal(applied_.begin(), applied_.end(), sequence.begin())) {
    Reset();
  }
  const std::size_t applied = applied_.size();
  const std::size_t length = sequence.size();
  for (std::size_t p = applied; p < length; ++p) Cover(sequence[p]);
  applied_.assign(sequence.begin(), sequence.end());

  // An antecedent placed at p meets the gap from length p + lag on. Those
  // reaching it in (applied, length] re-check their dependents at `length`;
  // r2 bits only ever turn on.
  const model::TaskInstance& instance = reward_->instance();
  const int gap = instance.hard.gap;
  const std::size_t lag = static_cast<std::size_t>(std::max(gap, 1));
  const int position = static_cast<int>(length);
  for (std::size_t p = applied + 1 > lag ? applied + 1 - lag : 0;
       p + lag <= length; ++p) {
    for (model::ItemId dependent : reward_->DependentsOf(sequence[p])) {
      const auto i = static_cast<std::size_t>(dependent);
      if (!r2_.Test(i) &&
          instance.catalog->item(dependent).prereqs.SatisfiedAt(
              state.position_of(), position, gap)) {
        r2_.Set(i);
      }
    }
  }
}

void StepRanker::Score(const mdp::EpisodeState& state,
                       const util::DynamicBitset& candidates) {
  candidates_ = &candidates;
  Sync(state);
  theta_one_ = candidates;
  theta_one_ &= r1_;
  theta_one_ &= r2_;
  if (!state.Empty()) {
    // The trip rule: no two consecutive items of one theme.
    const util::DynamicBitset* same_theme = reward_->ItemsOfTheme(
        reward_->instance().catalog->item(state.CurrentItem()).primary_theme);
    if (same_theme != nullptr) theta_one_.AndNotAssign(*same_theme);
  }
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
