#include "rl/action_mask.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace rlplanner::rl {

ActionMask::ActionMask(const mdp::RewardFunction& reward, int horizon,
                       bool mask_type_overflow)
    : reward_(&reward),
      horizon_(horizon),
      mask_type_overflow_(mask_type_overflow) {
  primary_cost_scratch_.reserve(reward.PrimaryItems().size());
  group_scratch_.Resize(reward.instance().catalog->size());
}

bool ActionMask::Allowed(const mdp::EpisodeState& state,
                         model::ItemId item) const {
  if (!reward_->IsFeasible(state, item)) return false;
  if (mask_type_overflow_ && !SplitStillSatisfiable(state, item)) return false;
  return true;
}

void ActionMask::AllowedSet(const mdp::EpisodeState& state,
                            util::DynamicBitset* out) const {
  out->AssignComplementOf(state.chosen_items());
  const model::TaskInstance& instance = reward_->instance();

  if (instance.catalog->domain() != model::Domain::kCourse) {
    // Trip domain: every check is per-candidate (the budgets depend on the
    // leg to each candidate), so scan the unchosen set bit by bit. Iterate
    // a scratch copy so clearing bits in `out` cannot disturb the walk.
    group_scratch_ = *out;
    group_scratch_.ForEachSetBit([&](std::size_t i) {
      const model::ItemId item = static_cast<model::ItemId>(i);
      if (!reward_->IsFeasible(state, item) ||
          (mask_type_overflow_ && !SplitStillSatisfiable(state, item))) {
        out->Set(i, false);
      }
    });
    return;
  }

  // Course domain: IsFeasible is exactly "not already chosen", which the
  // complement seed enforces; the split lookahead is all that remains.
  if (!mask_type_overflow_) return;

  const int slots_left = horizon_ - static_cast<int>(state.Length()) - 1;

  // Primaries owed after picking a candidate depends only on its type, so
  // the whole type group passes or fails together.
  int primary_needed[2];
  for (int t = 0; t < 2; ++t) {
    const int needed = instance.hard.num_primary - state.primary_count() -
                       (t == 0 ? 1 : 0);
    primary_needed[t] = std::max(needed, 0);
    if (primary_needed[t] > slots_left) {
      out->AndNotAssign(reward_->ItemsOfType(static_cast<model::ItemType>(t)));
    }
  }

  // Category minima owed depends only on the candidate's category: the
  // candidate discounts its own category's missing count by one when that
  // count is still positive. The overflow bucket (categories without a
  // minimum) never earns the discount.
  const std::size_t num_minima = instance.hard.category_min_counts.size();
  if (num_minima > 0) {
    int base_owed = 0;
    for (std::size_t c = 0; c < num_minima; ++c) {
      base_owed += std::max(instance.hard.category_min_counts[c] -
                                state.CategoryCount(static_cast<int>(c)),
                            0);
    }
    for (std::size_t c = 0; c <= num_minima; ++c) {
      const bool discount =
          c < num_minima && instance.hard.category_min_counts[c] -
                                    state.CategoryCount(static_cast<int>(c)) >
                                0;
      if (base_owed - (discount ? 1 : 0) > slots_left) {
        out->AndNotAssign(reward_->ItemsOfMinimumBucket(c));
      }
    }
  }

  // Antecedent lookahead: only decisive when every remaining primary is
  // needed, which again depends only on the candidate's type; the per-item
  // scan runs just over the survivors of that type.
  for (int t = 0; t < 2; ++t) {
    const int unplaced = static_cast<int>(reward_->PrimaryItems().size()) -
                         state.primary_count() - (t == 0 ? 1 : 0);
    if (unplaced != primary_needed[t]) continue;
    group_scratch_ = *out;
    group_scratch_ &= reward_->ItemsOfType(static_cast<model::ItemType>(t));
    group_scratch_.ForEachSetBit([&](std::size_t i) {
      const model::ItemId item = static_cast<model::ItemId>(i);
      if (!AntecedentsStillSchedulable(state, item, primary_needed[t])) {
        out->Set(i, false);
      }
    });
  }
}

bool ActionMask::AnyAllowed(const mdp::EpisodeState& state) const {
  const std::size_t n = reward_->instance().catalog->size();
  for (std::size_t i = 0; i < n; ++i) {
    if (Allowed(state, static_cast<model::ItemId>(i))) return true;
  }
  return false;
}

bool ActionMask::AntecedentsStillSchedulable(const mdp::EpisodeState& state,
                                             model::ItemId candidate,
                                             int primary_needed) const {
  // Only decisive when *every* remaining primary item must enter the plan
  // (e.g. the catalog has exactly as many cores as the degree requires):
  // then each unplaced primary must still fit, antecedent gap included,
  // before the horizon. With spare primaries we cannot know which ones the
  // plan will use, so the check is skipped.
  const model::TaskInstance& instance = reward_->instance();
  // The candidate reaches this check unchosen (Allowed runs IsFeasible
  // first), so the unplaced count follows from the cached primary total.
  const bool candidate_is_primary =
      instance.catalog->item(candidate).type == model::ItemType::kPrimary;
  const int unplaced_primaries =
      static_cast<int>(reward_->PrimaryItems().size()) -
      state.primary_count() - (candidate_is_primary ? 1 : 0);
  if (unplaced_primaries != primary_needed) return true;

  const int gap = instance.hard.gap;
  const int next_pos = static_cast<int>(state.Length());  // candidate here
  const int last_pos = horizon_ - 1;
  for (model::ItemId core_id : reward_->PrimaryItems()) {
    const model::Item& core = instance.catalog->item(core_id);
    if (state.Contains(core.id) || core.id == candidate) continue;
    int earliest = next_pos + 1;  // soonest free slot after the candidate
    for (const auto& group : core.prereqs.groups()) {
      int group_earliest = horizon_ + gap;  // infeasible until proven not
      for (model::ItemId member : group) {
        int member_pos;
        if (member == candidate) {
          member_pos = next_pos;
        } else if (state.position_of()[member] >= 0) {
          member_pos = state.position_of()[member];
        } else {
          member_pos = next_pos + 1;  // could be placed right after
        }
        group_earliest = std::min(group_earliest, member_pos + gap);
      }
      earliest = std::max(earliest, group_earliest);
    }
    if (earliest > last_pos) return false;
  }
  return true;
}

bool ActionMask::SplitStillSatisfiable(const mdp::EpisodeState& state,
                                       model::ItemId item) const {
  const model::TaskInstance& instance = reward_->instance();
  const model::Item& candidate = instance.catalog->item(item);

  int primary_needed = instance.hard.num_primary - state.primary_count();
  if (candidate.type == model::ItemType::kPrimary) primary_needed -= 1;
  primary_needed = std::max(primary_needed, 0);

  if (instance.catalog->domain() == model::Domain::kCourse) {
    // Fixed horizon: after placing the candidate, the remaining slots must
    // still fit the primaries (and category minima) we owe.
    const int slots_left =
        horizon_ - static_cast<int>(state.Length()) - 1;
    if (primary_needed > slots_left) return false;
    if (!instance.hard.category_min_counts.empty()) {
      int owed = 0;
      for (std::size_t c = 0; c < instance.hard.category_min_counts.size();
           ++c) {
        int missing =
            instance.hard.category_min_counts[c] -
            state.CategoryCount(static_cast<int>(c));
        if (static_cast<int>(c) == candidate.category) missing -= 1;
        owed += std::max(missing, 0);
      }
      if (owed > slots_left) return false;
    }
    return AntecedentsStillSchedulable(state, item, primary_needed);
  }

  // Trip domain: the horizon is a time budget, so check that enough
  // unchosen primaries are still *individually* takeable after the
  // candidate — both within the remaining time and reachable within the
  // remaining walking distance — and that the cheapest ones fit together.
  if (primary_needed == 0) return true;
  const double budget_left = instance.hard.min_credits -
                             state.total_credits() - candidate.credits;
  double distance_left = instance.hard.distance_threshold_km;
  if (std::isfinite(distance_left)) {
    distance_left -= state.total_distance_km();
    if (!state.Empty()) {
      distance_left -= reward_->DistanceKm(state.CurrentItem(), item);
    }
  }
  std::vector<double>& primary_costs = primary_cost_scratch_;
  primary_costs.clear();
  for (model::ItemId other_id : reward_->PrimaryItems()) {
    const model::Item& other = instance.catalog->item(other_id);
    if (other.id == item || state.Contains(other.id)) continue;
    if (other.credits > budget_left + 1e-9) continue;
    if (std::isfinite(instance.hard.distance_threshold_km) &&
        reward_->DistanceKm(item, other.id) > distance_left + 1e-9) {
      continue;
    }
    primary_costs.push_back(other.credits);
  }
  if (static_cast<int>(primary_costs.size()) < primary_needed) return false;
  std::partial_sort(primary_costs.begin(),
                    primary_costs.begin() + primary_needed,
                    primary_costs.end());
  double cheapest = 0.0;
  for (int i = 0; i < primary_needed; ++i) cheapest += primary_costs[i];
  return cheapest <= budget_left + 1e-9;
}

}  // namespace rlplanner::rl
