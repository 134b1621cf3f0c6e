#ifndef RLPLANNER_RL_ACTION_MASK_H_
#define RLPLANNER_RL_ACTION_MASK_H_

#include <vector>

#include "mdp/episode_state.h"
#include "mdp/reward.h"
#include "util/bitset.h"

namespace rlplanner::rl {

/// The episode horizon H (courses: #primary + #secondary; trips:
/// unbounded-by-count, terminated by the time budget — the catalog size is
/// then only a safety cap). Every traversal and the learner stop here.
inline int EpisodeHorizon(const model::TaskInstance& instance) {
  if (instance.catalog->domain() == model::Domain::kTrip) {
    return static_cast<int>(instance.catalog->size());
  }
  return instance.hard.TotalItems();
}

/// Decides which actions (items to append) are admissible from an episode
/// state. Both the SARSA behavior policy and the recommendation traversal
/// use this; the EDA baseline deliberately runs with masking disabled so it
/// reproduces the paper's observation that a greedy next-step recommender
/// frequently violates the hard constraints.
///
/// The lookahead reads the catalog partitions the reward function built
/// once (its primary-item list, so the checks scan |primaries| candidates
/// instead of the whole catalog, and its type and category-minimum sets);
/// construction only allocates scratch. A scratch buffer backs the
/// trip-domain cheapest-primaries check, so concurrent Allowed() calls on
/// the *same* mask are not safe — give each worker its own mask (each SARSA
/// run and each recommendation traversal already constructs its own).
class ActionMask {
 public:
  /// `mask_type_overflow` additionally enforces, by one-step lookahead, that
  /// picking the item cannot make the primary/secondary split or the
  /// per-category minima unsatisfiable within the remaining horizon.
  ActionMask(const mdp::RewardFunction& reward, int horizon,
             bool mask_type_overflow);

  /// True when appending `item` is admissible: not already chosen, within
  /// the trip budgets, and (when enabled) not a dead end for the split.
  bool Allowed(const mdp::EpisodeState& state, model::ItemId item) const;

  /// Derives the full admissible-action set of `state` into `out` (resized
  /// to the catalog), bit i set iff `Allowed(state, i)` — the word-level
  /// fast path for whole-catalog candidate scans. The set is seeded from
  /// the complement of `state.chosen_items()` a 64-bit word at a time, and
  /// in the course domain the split/category lookahead is decided once per
  /// (type, category) group and applied by clearing whole cached group
  /// bitsets; only the tight-regime antecedent check (and every trip-domain
  /// check) remains per-candidate. Bit-identical to the per-id loop by
  /// construction — pinned by a randomized equivalence test.
  void AllowedSet(const mdp::EpisodeState& state,
                  util::DynamicBitset* out) const;

  /// True when at least one action is admissible from `state`.
  bool AnyAllowed(const mdp::EpisodeState& state) const;

  int horizon() const { return horizon_; }

 private:
  bool SplitStillSatisfiable(const mdp::EpisodeState& state,
                             model::ItemId item) const;
  // When every remaining primary is needed, ensures each unplaced primary
  // can still be scheduled with its antecedent gap before the horizon.
  bool AntecedentsStillSchedulable(const mdp::EpisodeState& state,
                                   model::ItemId candidate,
                                   int primary_needed) const;

  const mdp::RewardFunction* reward_;
  int horizon_;
  bool mask_type_overflow_;
  // Scratch for the trip-domain cheapest-primaries sort (avoids a heap
  // allocation per candidate; see the thread-safety note above).
  mutable std::vector<double> primary_cost_scratch_;
  // Scratch for AllowedSet's tight-regime per-type sweep.
  mutable util::DynamicBitset group_scratch_;
};

}  // namespace rlplanner::rl

#endif  // RLPLANNER_RL_ACTION_MASK_H_
