#ifndef RLPLANNER_RL_RECOMMENDER_H_
#define RLPLANNER_RL_RECOMMENDER_H_

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "mdp/cmdp.h"
#include "mdp/episode_state.h"
#include "mdp/q_table.h"
#include "mdp/reward.h"
#include "model/plan.h"
#include "rl/action_mask.h"
#include "util/bitset.h"

namespace rlplanner::rl {

/// Recommendation-phase parameters (Algorithm 1, lines 15-24).
struct RecommendConfig {
  /// Starting item s_1 of the plan. Must be a valid item id.
  model::ItemId start_item = 0;
  /// Apply the same split-lookahead masking used during learning.
  bool mask_type_overflow = true;
  /// The learner's discount, carried for callers that mirror a training
  /// config. No traversal reads it: the walk ranks by (theta, R, Q) and
  /// never forms R + gamma * max Q.
  double gamma = 0.95;
  /// Items the traversal must never pick ("never recommend X"); the start
  /// item is not subject to exclusion.
  std::vector<model::ItemId> excluded;
};

/// Beam-search parameters for RecommendPlanBeam.
struct BeamConfig {
  /// Parallel partial plans kept per step.
  int width = 4;
  /// Successors expanded per partial plan per step.
  int expansion = 6;
};

namespace recommender_internal {

// The caller's exclusion list as a bitset, for word-level removal from the
// admissible set (out-of-range ids are ignored, as before).
util::DynamicBitset ExcludedBits(const model::TaskInstance& instance,
                                 const std::vector<model::ItemId>& excluded);

// A partial plan in the beam with its pruning metrics.
struct BeamEntry {
  mdp::EpisodeState state;
  int violating_steps = 0;  // actions taken with theta = 0
  double cumulative_reward = 0.0;
  bool done = false;
};

// The stream rule's two reward comparisons between a candidate's reward `r`
// and the held best `held`: an outright win, and a tie that Q settles.
inline bool RewardBeats(double r, double held) { return r > held + 1e-9; }
inline bool RewardTies(double r, double held) { return r >= held - 1e-9; }

// Per-traversal scratch of RecommendPlan's class step, reused across steps.
struct ClassStep {
  explicit ClassStep(const mdp::RewardFunction& reward);

  util::DynamicBitset theta_one;      // theta = 1 admissible items
  util::DynamicBitset pick;           // theta = 1 members of the top group
  std::vector<double> class_reward;   // Eq. 2 value by reward class
  std::vector<std::size_t> present;   // classes with a theta = 1 member
};

// Evaluates Eq. 2 once per reward class present in `step->theta_one` and
// finds the top group: the classes the best one does not beat outright.
// Returns true with the group's members in `step->pick` when the group is
// clean — its members tie each other both ways under the stream rule, and
// every other present class loses to every member both ways — so the
// stream's winner is the Q argmax over `pick`. Returns false when the
// +-1e-9 band chains classes and the winner depends on id order; every
// present class's reward is in `step->class_reward` either way.
bool SelectTopRewardGroup(const mdp::RewardFunction& reward,
                          const mdp::EpisodeState& state, ClassStep* step);

// Candidate expansion of one beam entry.
struct Expansion {
  model::ItemId item = -1;
  int theta = 0;
  double reward = 0.0;
  double q_value = 0.0;
};

bool BetterEntry(const BeamEntry& a, const BeamEntry& b);

// Final ranking: hard-constraint satisfaction first, then the domain score
// (best template similarity for courses, mean popularity for trips).
double DomainScore(const model::TaskInstance& instance,
                   const model::Plan& plan);

}  // namespace recommender_internal

/// Recommends a plan from a learned policy: starting at `start_item`, it
/// repeatedly moves to the best admissible unchosen item until the plan has
/// H items (courses) or the time budget is exhausted (trips).
///
/// Each step picks lexicographically by (theta, immediate reward, Q), then
/// the lowest id:
/// 1. theta first — the Q state is only the last item, so Q(s, a) of an
///    action that violates a constraint *here* can still carry a high
///    future value learned at other positions; Theorem 1's guarantee needs
///    constraint-admissible actions to win outright;
/// 2. the immediate Eq. 2 reward next, compared within +-1e-9 — it encodes
///    the template-following type choice exactly as Algorithm 1's argmax-R
///    behavior policy does;
/// 3. Q last, to order the reward ties: beyond theta, Eq. 2 sees an item
///    only through its reward class (type and category weight), so all
///    theta = 1 items of one class tie, and the learned Q resolves which
///    item fills the slot (e.g. the antecedent elective a later core
///    depends on). This is precisely what separates RL-Planner from the
///    EDA baseline, whose tie-break is a coin flip.
///
/// Because the reward comparison is banded, the rule is defined as a stream
/// over the admissible candidates in ascending id order: the held item is
/// replaced on a higher theta, an outright reward win (RewardBeats), or a
/// reward tie (RewardTies) with strictly greater Q. A step computes that
/// stream's winner from the classes: one batched theta pass; if nothing has
/// theta = 1, every reward is 0.0 and Q alone decides over the admissible
/// set; otherwise one Eq. 2 evaluation per class and, when the top group is
/// clean (see SelectTopRewardGroup), one `ArgmaxAction` over its theta = 1
/// members. That is exact because the stream restarts at the first
/// theta = 1 item, after which members of a clean group replace each other
/// only on strictly greater Q and no other class displaces them —
/// ArgmaxAction's rule (first allowed id adopted, ties to the lowest id).
/// An unclean group runs the stream itself over the theta = 1 items, with
/// rewards looked up per class.
///
/// Templated over the policy representation: `QModel` needs `Get(state,
/// action) -> double` and `ArgmaxAction(state, const DynamicBitset&)` with
/// QTable semantics, so dense tables, sparse tables, and the mmap-backed
/// serve-side `MappedPolicy` view all drive the identical traversal.
template <typename QModel>
model::Plan RecommendPlan(const QModel& q, const model::TaskInstance& instance,
                          const mdp::RewardFunction& reward,
                          const RecommendConfig& config) {
  using recommender_internal::RewardBeats;
  using recommender_internal::RewardTies;
  const int horizon =
      instance.catalog->domain() == model::Domain::kTrip
          ? static_cast<int>(instance.catalog->size())
          : instance.hard.TotalItems();
  const ActionMask mask(reward, horizon, config.mask_type_overflow);

  const util::DynamicBitset excluded =
      recommender_internal::ExcludedBits(instance, config.excluded);

  mdp::EpisodeState state(instance);
  state.Add(config.start_item);
  util::DynamicBitset allowed(instance.catalog->size());
  recommender_internal::ClassStep step(reward);
  while (static_cast<int>(state.Length()) < horizon) {
    const model::ItemId current = state.CurrentItem();
    mask.AllowedSet(state, &allowed);
    allowed.AndNotAssign(excluded);
    reward.ThetaOneSubset(state, allowed, &step.theta_one);
    model::ItemId next = -1;
    if (step.theta_one.None()) {
      next = q.ArgmaxAction(current, allowed);
    } else if (recommender_internal::SelectTopRewardGroup(reward, state,
                                                          &step)) {
      next = q.ArgmaxAction(current, step.pick);
    } else {
      double best_q = 0.0;
      double best_reward = 0.0;
      step.theta_one.ForEachSetBit([&](std::size_t i) {
        const auto item = static_cast<model::ItemId>(i);
        const double item_reward =
            step.class_reward[reward.RewardClassOf(item)];
        const double q_value = q.Get(current, item);
        if (next < 0 || RewardBeats(item_reward, best_reward) ||
            (RewardTies(item_reward, best_reward) && q_value > best_q)) {
          next = item;
          best_q = q_value;
          best_reward = item_reward;
        }
      });
    }
    if (next < 0) break;
    state.Add(next);
  }
  return state.ToPlan();
}

/// Beam-search variant of the greedy traversal: keeps `width` partial plans,
/// expands each with its `expansion` best actions (same theta/reward/Q
/// ordering as the greedy walk), prunes by (fewest constraint-violating
/// steps, largest cumulative Eq. 2 reward), and finally returns the
/// completed plan with the best (hard-constraint satisfaction, domain
/// score). Strictly generalizes RecommendPlan (width 1, expansion 1).
/// Evaluates every candidate, so `QModel` needs only `Get(state, action)`.
template <typename QModel>
model::Plan RecommendPlanBeam(const QModel& q,
                              const model::TaskInstance& instance,
                              const mdp::RewardFunction& reward,
                              const RecommendConfig& config,
                              const BeamConfig& beam) {
  using recommender_internal::BeamEntry;
  using recommender_internal::Expansion;
  const int horizon =
      instance.catalog->domain() == model::Domain::kTrip
          ? static_cast<int>(instance.catalog->size())
          : instance.hard.TotalItems();
  const ActionMask mask(reward, horizon, config.mask_type_overflow);
  const util::DynamicBitset excluded =
      recommender_internal::ExcludedBits(instance, config.excluded);
  util::DynamicBitset allowed(instance.catalog->size());

  std::vector<BeamEntry> entries;
  {
    BeamEntry root{mdp::EpisodeState(instance), 0, 0.0, false};
    root.state.Add(config.start_item);
    entries.push_back(std::move(root));
  }

  const int width = std::max(1, beam.width);
  const int expansion = std::max(1, beam.expansion);

  bool all_done = false;
  while (!all_done) {
    std::vector<BeamEntry> next_entries;
    all_done = true;
    for (BeamEntry& entry : entries) {
      if (entry.done ||
          static_cast<int>(entry.state.Length()) >= horizon) {
        entry.done = true;
        next_entries.push_back(std::move(entry));
        continue;
      }
      // Rank admissible successors by (theta, reward, Q), streaming them
      // from one word-level mask scan.
      std::vector<Expansion> candidates;
      const model::ItemId current = entry.state.CurrentItem();
      mask.AllowedSet(entry.state, &allowed);
      allowed.AndNotAssign(excluded);
      allowed.ForEachSetBit([&](std::size_t i) {
        const auto item = static_cast<model::ItemId>(i);
        candidates.push_back({item, reward.Theta(entry.state, item),
                              reward.Reward(entry.state, item),
                              q.Get(current, item)});
      });
      if (candidates.empty()) {
        entry.done = true;
        next_entries.push_back(std::move(entry));
        continue;
      }
      all_done = false;
      std::sort(candidates.begin(), candidates.end(),
                [](const Expansion& a, const Expansion& b) {
                  if (a.theta != b.theta) return a.theta > b.theta;
                  if (std::abs(a.reward - b.reward) > 1e-9) {
                    return a.reward > b.reward;
                  }
                  if (a.q_value != b.q_value) return a.q_value > b.q_value;
                  return a.item < b.item;
                });
      const int take =
          std::min<int>(expansion, static_cast<int>(candidates.size()));
      for (int c = 0; c < take; ++c) {
        BeamEntry successor = entry;  // copy the partial plan
        successor.state.Add(candidates[c].item);
        successor.violating_steps += candidates[c].theta == 0 ? 1 : 0;
        successor.cumulative_reward += candidates[c].reward;
        next_entries.push_back(std::move(successor));
      }
    }
    std::sort(next_entries.begin(), next_entries.end(),
              recommender_internal::BetterEntry);
    if (static_cast<int>(next_entries.size()) > width) {
      // erase instead of resize: BeamEntry is not default-constructible.
      next_entries.erase(next_entries.begin() + width, next_entries.end());
    }
    entries = std::move(next_entries);
  }

  // Pick the completed plan with the best (valid, domain score).
  const mdp::CmdpSpec spec = mdp::CmdpSpec::FromInstance(instance);
  model::Plan best;
  bool best_valid = false;
  double best_score = -1.0;
  for (const BeamEntry& entry : entries) {
    const model::Plan plan = entry.state.ToPlan();
    const bool valid = spec.Satisfied(plan);
    const double score = recommender_internal::DomainScore(instance, plan);
    if (best.empty() || (valid && !best_valid) ||
        (valid == best_valid && score > best_score)) {
      best = plan;
      best_valid = valid;
      best_score = score;
    }
  }
  return best;
}

}  // namespace rlplanner::rl

#endif  // RLPLANNER_RL_RECOMMENDER_H_
