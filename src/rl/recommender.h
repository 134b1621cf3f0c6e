#ifndef RLPLANNER_RL_RECOMMENDER_H_
#define RLPLANNER_RL_RECOMMENDER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "mdp/cmdp.h"
#include "mdp/episode_state.h"
#include "mdp/q_table.h"
#include "mdp/reward.h"
#include "model/plan.h"
#include "rl/action_mask.h"
#include "util/bitset.h"
#include "util/rng.h"

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

/// One admissible candidate of a step with its decision signals — what
/// beam search expands and interactive sessions display.
struct RankedCandidate {
  model::ItemId item = -1;
  /// Eq. 5 admissibility at this position (1 = all constraints satisfied).
  int theta = 0;
  /// Immediate Eq. 2 reward.
  double reward = 0.0;
  /// Learned action value from the current state.
  double q_value = 0.0;
};

/// Algorithm 1's tie-break stream over `candidates` in ascending id order:
/// the tied set restarts on a value more than 1e-12 above the held one and
/// grows on one within 1e-12 below it; then one `rng.NextIndex` picks from
/// it, even a single item. -1, with no draw, when `candidates` is empty.
template <typename ValueOf>
model::ItemId DrawBandedTie(const util::DynamicBitset& candidates,
                            ValueOf&& value_of, util::Rng& rng,
                            std::vector<model::ItemId>* scratch) {
  std::vector<model::ItemId>& tied = *scratch;
  tied.clear();
  double held = 0.0;
  candidates.ForEachSetBit([&](std::size_t i) {
    const auto item = static_cast<model::ItemId>(i);
    const double value = value_of(item);
    if (tied.empty() || value > held + 1e-12) {
      tied.assign(1, item);
      held = value;
    } else if (value >= held - 1e-12) {
      tied.push_back(item);
    }
  });
  if (tied.empty()) return -1;
  return tied[rng.NextIndex(tied.size())];
}

/// The one step-ranking rule of every traversal. Beyond theta, Eq. 2 sees
/// an item only through its reward class (type and category weight), so
/// `Score` evaluates a step once — the theta = 1 candidates, one Eq. 2 value
/// per class with a theta = 1 candidate — and three queries read per-item
/// rewards from the classes: Best (greedy recommendation), DrawRewardTie
/// (the reward-greedy behaviour policy and EDA) and Ranked (beam search,
/// interactive suggestions).
///
/// Theta is not recomputed over the catalog per step. The ranker keeps the
/// r1 and r2 sets of the sequence it last scored and updates them only
/// where the actions since can change them (incremental theta): a newly
/// covered ideal topic lowers the counts of the items holding it, and an
/// antecedent whose gap elapses re-checks its dependents. The sets are
/// exact for any state: Score replays from the empty episode whenever the
/// sequence it last saw is not a prefix of the new one, as between
/// episodes or beam entries. One ranker per traversal and thread.
class StepRanker {
 public:
  /// `reward` must outlive the ranker.
  explicit StepRanker(const mdp::RewardFunction& reward);

  /// Scores the step from `state` over `candidates`, which must stay
  /// unchanged until the next Score. `state` must belong to the reward
  /// function's instance.
  void Score(const mdp::EpisodeState& state,
             const util::DynamicBitset& candidates);

  /// The Eq. 2 reward of appending candidate `item`: its class reward when
  /// theta = 1, else 0.0 — bit-identical to RewardFunction::Reward.
  double RewardOf(model::ItemId item) const {
    return theta_one_.Test(static_cast<std::size_t>(item))
               ? class_reward_[reward_->RewardClassOf(item)]
               : 0.0;
  }

  /// The greedy step from `current`, defined as a stream over the
  /// candidates in ascending id order: the held item is replaced on a
  /// higher theta, a reward more than 1e-9 above (Beats), or one within
  /// 1e-9 below (Ties) with strictly greater Q. With no theta = 1
  /// candidate Q alone decides. When the top group is clean, the stream's
  /// winner is one `ArgmaxAction` over its theta = 1 members: they replace
  /// each other only on strictly greater Q, and no other class displaces
  /// them. When the band chains classes, the stream itself runs. -1 when
  /// there is no candidate.
  template <typename QModel>
  model::ItemId Best(const QModel& q, model::ItemId current) {
    if (present_.empty()) return q.ArgmaxAction(current, *candidates_);
    if (SelectTopGroup()) return q.ArgmaxAction(current, pick_);
    model::ItemId next = -1;
    double best_q = 0.0;
    double best_reward = 0.0;
    theta_one_.ForEachSetBit([&](std::size_t i) {
      const auto item = static_cast<model::ItemId>(i);
      const double item_reward = class_reward_[reward_->RewardClassOf(item)];
      const double q_value = q.Get(current, item);
      if (next < 0 || Beats(item_reward, best_reward) ||
          (Ties(item_reward, best_reward) && q_value > best_q)) {
        next = item;
        best_q = q_value;
        best_reward = item_reward;
      }
    });
    return next;
  }

  /// Algorithm 1's reward-greedy choice: the DrawBandedTie stream over
  /// every candidate's RewardOf, so theta = 0 candidates tie when the best
  /// class reward lies within the band of 0.
  model::ItemId DrawRewardTie(util::Rng& rng) {
    return DrawBandedTie(
        *candidates_, [this](model::ItemId item) { return RewardOf(item); },
        rng, &tied_);
  }

  /// Every candidate with its signals, best first: theta descending, then
  /// reward descending where the two differ by more than 1e-9, then
  /// `q_of(item)` descending, then id ascending.
  template <typename QOf>
  std::vector<RankedCandidate> Ranked(QOf&& q_of) const {
    std::vector<RankedCandidate> ranked;
    candidates_->ForEachSetBit([&](std::size_t i) {
      const auto item = static_cast<model::ItemId>(i);
      ranked.push_back(
          {item, theta_one_.Test(i) ? 1 : 0, RewardOf(item), q_of(item)});
    });
    std::sort(ranked.begin(), ranked.end(),
              [](const RankedCandidate& a, const RankedCandidate& b) {
                if (a.theta != b.theta) return a.theta > b.theta;
                if (std::abs(a.reward - b.reward) > 1e-9) {
                  return a.reward > b.reward;
                }
                if (a.q_value != b.q_value) return a.q_value > b.q_value;
                return a.item < b.item;
              });
    return ranked;
  }

 private:
  // The greedy stream's reward comparisons against the held best: an
  // outright win, and a tie that Q settles.
  static bool Beats(double r, double held) { return r > held + 1e-9; }
  static bool Ties(double r, double held) { return r >= held - 1e-9; }

  // Finds the top group — the present classes the best one does not beat
  // outright — and returns true with its theta = 1 members in `pick_` when
  // it is clean: its classes tie each other both ways, and every other
  // present class loses to each of them outright.
  bool SelectTopGroup();

  // Brings the maintained r1/r2 sets to `state.sequence()`: applies only
  // the items past `applied_` when it is a prefix, else resets and replays.
  void Sync(const mdp::EpisodeState& state);
  // Back to the empty episode's sets.
  void Reset();
  // Marks the ideal topics `item` newly covers and lowers the counts of the
  // items holding them, clearing r1 where a count drops below threshold.
  void Cover(model::ItemId item);

  const mdp::RewardFunction* reward_;
  // The maintained theta factors of the sequence `applied_`.
  std::vector<model::ItemId> applied_;
  std::vector<std::uint32_t> uncovered_;  // ideal topics each item adds
  util::DynamicBitset covered_;           // ideal topics `applied_` covers
  util::DynamicBitset r1_;                // uncovered_ >= the threshold
  util::DynamicBitset r2_;                // prerequisite gap met
  const util::DynamicBitset* candidates_ = nullptr;
  util::DynamicBitset theta_one_;     // theta = 1 candidates
  util::DynamicBitset pick_;          // theta = 1 members of the top group
  std::vector<double> class_reward_;  // Eq. 2 value by reward class
  std::vector<std::size_t> present_;  // classes with a theta = 1 candidate
  std::size_t best_class_ = 0;        // highest class reward among present
  std::vector<model::ItemId> tied_;   // DrawRewardTie scratch
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
/// the lowest id (StepRanker::Best):
/// 1. theta first — the Q state is only the last item, so Q(s, a) of an
///    action that violates a constraint *here* can still carry a high
///    future value learned at other positions; Theorem 1's guarantee needs
///    constraint-admissible actions to win outright;
/// 2. the immediate Eq. 2 reward next, compared within +-1e-9 — it encodes
///    the template-following type choice exactly as Algorithm 1's argmax-R
///    behavior policy does;
/// 3. Q last, to order the reward ties: all theta = 1 items of one reward
///    class tie, and the learned Q resolves which item fills the slot
///    (e.g. the antecedent elective a later core depends on). This is
///    precisely what separates RL-Planner from the EDA baseline, whose
///    tie-break is a coin flip.
///
/// Templated over the policy representation: `QModel` needs `Get(state,
/// action) -> double` and `ArgmaxAction(state, const DynamicBitset&)` with
/// QTable semantics, so dense tables, sparse tables, and the mmap-backed
/// serve-side `MappedPolicy` view all drive the identical traversal.
template <typename QModel>
model::Plan RecommendPlan(const QModel& q, const model::TaskInstance& instance,
                          const mdp::RewardFunction& reward,
                          const RecommendConfig& config) {
  const int horizon = EpisodeHorizon(instance);
  const ActionMask mask(reward, horizon, config.mask_type_overflow);
  const util::DynamicBitset excluded =
      recommender_internal::ExcludedBits(instance, config.excluded);

  mdp::EpisodeState state(instance);
  state.Add(config.start_item);
  util::DynamicBitset allowed(instance.catalog->size());
  StepRanker ranker(reward);
  while (static_cast<int>(state.Length()) < horizon) {
    mask.AllowedSet(state, &allowed);
    allowed.AndNotAssign(excluded);
    ranker.Score(state, allowed);
    const model::ItemId next = ranker.Best(q, state.CurrentItem());
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
/// Takes the first `expansion` entries of StepRanker::Ranked, which reads
/// every candidate's Q, so `QModel` needs only `Get(state, action)`.
template <typename QModel>
model::Plan RecommendPlanBeam(const QModel& q,
                              const model::TaskInstance& instance,
                              const mdp::RewardFunction& reward,
                              const RecommendConfig& config,
                              const BeamConfig& beam) {
  using recommender_internal::BeamEntry;
  const int horizon = EpisodeHorizon(instance);
  const ActionMask mask(reward, horizon, config.mask_type_overflow);
  const util::DynamicBitset excluded =
      recommender_internal::ExcludedBits(instance, config.excluded);
  util::DynamicBitset allowed(instance.catalog->size());
  StepRanker ranker(reward);

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
      // Rank the admissible successors by (theta, reward, Q).
      const model::ItemId current = entry.state.CurrentItem();
      mask.AllowedSet(entry.state, &allowed);
      allowed.AndNotAssign(excluded);
      ranker.Score(entry.state, allowed);
      const std::vector<RankedCandidate> candidates = ranker.Ranked(
          [&](model::ItemId item) { return q.Get(current, item); });
      if (candidates.empty()) {
        entry.done = true;
        next_entries.push_back(std::move(entry));
        continue;
      }
      all_done = false;
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
