#include "adaptive/interactive.h"

#include "rl/action_mask.h"
#include "util/bitset.h"

namespace rlplanner::adaptive {

InteractiveSession::InteractiveSession(const core::RlPlanner& planner)
    : planner_(&planner),
      state_(std::make_unique<mdp::EpisodeState>(planner.instance())),
      horizon_(rl::EpisodeHorizon(planner.instance())) {}

bool InteractiveSession::Done() const {
  if (static_cast<int>(state_->Length()) >= horizon_) return true;
  const rl::ActionMask mask(planner_->reward_function(), horizon_,
                            planner_->config().sarsa.mask_type_overflow);
  return !mask.AnyAllowed(*state_);
}

std::vector<Suggestion> InteractiveSession::RankCandidates() const {
  const mdp::RewardFunction& reward = planner_->reward_function();
  const rl::ActionMask mask(reward, horizon_,
                            planner_->config().sarsa.mask_type_overflow);
  util::DynamicBitset allowed;
  mask.AllowedSet(*state_, &allowed);
  rl::StepRanker ranker(reward);
  ranker.Score(*state_, allowed);
  const model::ItemId current = state_->CurrentItem();
  if (current < 0 || !planner_->trained()) {
    return ranker.Ranked([](model::ItemId) { return 0.0; });
  }
  return planner_->VisitQ([&](const auto& q) {
    return ranker.Ranked(
        [&](model::ItemId item) { return q.Get(current, item); });
  });
}

std::vector<Suggestion> InteractiveSession::SuggestNext(int k) const {
  std::vector<Suggestion> ranked = RankCandidates();
  if (k >= 0 && ranked.size() > static_cast<std::size_t>(k)) {
    ranked.resize(static_cast<std::size_t>(k));
  }
  return ranked;
}

util::Status InteractiveSession::Pin(model::ItemId item) {
  const model::TaskInstance& instance = planner_->instance();
  if (item < 0 ||
      static_cast<std::size_t>(item) >= instance.catalog->size()) {
    return util::Status::OutOfRange("item out of range");
  }
  if (static_cast<int>(state_->Length()) >= horizon_) {
    return util::Status::FailedPrecondition("session already complete");
  }
  const rl::ActionMask mask(planner_->reward_function(), horizon_,
                            planner_->config().sarsa.mask_type_overflow);
  if (!mask.Allowed(*state_, item)) {
    return util::Status::FailedPrecondition(
        "item is inadmissible here: " + instance.catalog->item(item).code);
  }
  state_->Add(item);
  return util::Status::Ok();
}

util::Result<model::ItemId> InteractiveSession::AcceptSuggestion() {
  const auto ranked = RankCandidates();
  if (ranked.empty()) {
    return util::Status::FailedPrecondition("no admissible item remains");
  }
  state_->Add(ranked.front().item);
  return ranked.front().item;
}

model::Plan InteractiveSession::Complete() {
  while (!Done()) {
    if (!AcceptSuggestion().ok()) break;
  }
  return state_->ToPlan();
}

}  // namespace rlplanner::adaptive
