#ifndef RLPLANNER_RL_EPISODE_RUNNER_H_
#define RLPLANNER_RL_EPISODE_RUNNER_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "mdp/episode_state.h"
#include "mdp/reward.h"
#include "model/item.h"
#include "obs/training_metrics.h"
#include "rl/action_mask.h"
#include "rl/recommender.h"
#include "rl/sarsa_config.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace rlplanner::rl {

/// An episode's starting item (Algorithm 1 line 3): the configured fixed
/// item, or a random primary drawn from `rng` out of the reward function's
/// ascending primary list (any item when the catalog has no primaries).
inline model::ItemId PickStartItem(const mdp::RewardFunction& reward,
                                   const SarsaConfig& config,
                                   util::Rng& rng) {
  if (config.start_item >= 0) return config.start_item;
  const std::vector<model::ItemId>& primaries = reward.PrimaryItems();
  if (!primaries.empty()) return primaries[rng.NextIndex(primaries.size())];
  return static_cast<model::ItemId>(
      rng.NextIndex(reward.instance().catalog->size()));
}

/// The episode generator of Algorithm 1, shared by the serial and sharded
/// learners. `QModel` is the value table the TD updates land in —
/// mdp::QTable or mdp::SparseQTable — and must provide Get/Set/SarsaUpdate
/// with QTable's signatures.
///
/// The runner holds *references* to its config and RNG: the serial learner
/// shares its own RNG so the refactor preserves the historical draw
/// sequence bit-exactly, while each sharded worker passes a private RNG
/// reseeded per (seed, round, worker). Not thread-safe across calls on the
/// same instance — give each worker its own runner (and its own ActionMask,
/// whose scratch buffers are also per-thread).
///
/// Each step's admissible set stays a bitset: exploration draws its n-th
/// set bit, and the greedy policies are StepRanker::DrawRewardTie (reward)
/// and DrawBandedTie over Q values.
template <typename QModel>
class EpisodeRunner {
 public:
  /// All referents must outlive the runner.
  EpisodeRunner(const model::TaskInstance& instance,
                const mdp::RewardFunction& reward, const SarsaConfig& config,
                util::Rng& rng)
      : instance_(&instance),
        reward_(&reward),
        config_(&config),
        rng_(&rng),
        allowed_(instance.catalog->size()),
        ranker_(reward) {}

  /// Generates one episode against `q`, applying the configured TD update
  /// at every step, and appends the episode's total Eq. 2 return to
  /// `episode_returns()`.
  void RunEpisode(QModel& q, const ActionMask& mask, double explore_epsilon) {
    const int horizon = EpisodeHorizon(*instance_);
    mdp::EpisodeState state(*instance_);
    double episode_return = 0.0;

    // Seed the episode with the starting item (Algorithm 1 line 3).
    const model::ItemId start = PickStartItem(*reward_, *config_, *rng_);
    state.Add(start);

    // Choose the first action from the start state.
    mask.AllowedSet(state, &allowed_);
    model::ItemId action = SelectAction(state, q, explore_epsilon);
    model::ItemId current = start;
    while (action >= 0 && static_cast<int>(state.Length()) < horizon) {
      const double reward = reward_->Reward(state, action);
      episode_return += reward;
      state.Add(action);

      // Choose e' from s' (on-policy), then apply the TD update (Eq. 9 for
      // SARSA; Q-learning/Expected-SARSA substitute their own targets). The
      // admissible set of s' is derived once into `allowed_` and shared by
      // the selection and the continuation target.
      model::ItemId next_action = -1;
      if (static_cast<int>(state.Length()) < horizon) {
        mask.AllowedSet(state, &allowed_);
        next_action = SelectAction(state, q, explore_epsilon);
      }
      if (config_->update_rule == UpdateRule::kSarsa) {
        if (metrics_ != nullptr) {
          // TD error from Q reads only, taken before the update lands —
          // recording never draws RNG or perturbs the training math, which
          // is what keeps deterministic runs bit-exact with metrics on.
          const double next_q =
              next_action >= 0 ? q.Get(action, next_action) : 0.0;
          metrics_->RecordStep(reward + config_->gamma * next_q -
                               q.Get(current, action));
        }
        q.SarsaUpdate(current, action, reward, action, next_action,
                      config_->alpha, config_->gamma);
      } else {
        const double continuation =
            ContinuationValue(q, state, next_action, explore_epsilon);
        const double old_value = q.Get(current, action);
        if (metrics_ != nullptr) {
          metrics_->RecordStep(reward + config_->gamma * continuation -
                               old_value);
        }
        q.Set(current, action,
              old_value + config_->alpha *
                              (reward + config_->gamma * continuation -
                               old_value));
      }

      current = action;
      action = next_action;
    }
    if (metrics_ != nullptr) metrics_->RecordEpisode();
    episode_returns_.push_back(episode_return);
  }

  /// Attaches the hot-path metrics facade (null detaches). Recording uses
  /// Q-value reads only, so attaching one changes no training output.
  void set_metrics(obs::TrainingMetrics* metrics) { metrics_ = metrics; }

  /// Total Eq. 2 return of each episode run so far, in order.
  const std::vector<double>& episode_returns() const {
    return episode_returns_;
  }
  std::vector<double>& mutable_episode_returns() { return episode_returns_; }

 private:
  // Behavior-policy action selection among the actions in `allowed_`;
  // -1 = none. Draws NextBernoulli, then exactly one NextIndex.
  model::ItemId SelectAction(const mdp::EpisodeState& state, const QModel& q,
                             double explore_epsilon) {
    if (allowed_.None()) return -1;

    // Exploration applies to both behavior policies: a pure argmax-R policy
    // only ever visits one trajectory, leaving the Q-table empty everywhere
    // else (the paper's Python implementation gets its exploration from the
    // abundant exact-tie random picks; our reward has fewer exact ties, so
    // a small epsilon restores the same coverage).
    if (rng_->NextBernoulli(explore_epsilon)) {
      return static_cast<model::ItemId>(
          allowed_.FindNth(rng_->NextIndex(allowed_.Count())));
    }

    // Greedy on immediate reward (Algorithm 1) or on Q, random tie-break.
    if (config_->exploration == ExplorationMode::kRewardGreedy) {
      ranker_.Score(state, allowed_);
      return ranker_.DrawRewardTie(*rng_);
    }
    const model::ItemId current = state.CurrentItem();
    return DrawBandedTie(
        allowed_,
        [&](model::ItemId item) {
          return current >= 0 ? q.Get(current, item) : 0.0;
        },
        *rng_, &tied_);
  }

  // The continuation value of (state after `action`, `next_action`) under
  // the configured update rule, over the actions in `allowed_` (which must
  // hold the admissible set of `next_state`, from which `next_action` was
  // drawn).
  double ContinuationValue(const QModel& q,
                           const mdp::EpisodeState& next_state,
                           model::ItemId next_action,
                           double explore_epsilon) const {
    if (next_action < 0) return 0.0;  // terminal
    const model::ItemId next_item = next_state.CurrentItem();
    if (next_item < 0) return 0.0;

    double max_q = -std::numeric_limits<double>::infinity();
    double sum_q = 0.0;
    allowed_.ForEachSetBit([&](std::size_t i) {
      const double value = q.Get(next_item, static_cast<model::ItemId>(i));
      max_q = std::max(max_q, value);
      sum_q += value;
    });
    if (config_->update_rule == UpdateRule::kQLearning) return max_q;
    // Expected SARSA under the epsilon-greedy mixture: with probability
    // epsilon a uniform action, otherwise the greedy one.
    const double uniform = sum_q / static_cast<double>(allowed_.Count());
    return explore_epsilon * uniform + (1.0 - explore_epsilon) * max_q;
  }

  const model::TaskInstance* instance_;
  const mdp::RewardFunction* reward_;
  const SarsaConfig* config_;
  util::Rng* rng_;
  obs::TrainingMetrics* metrics_ = nullptr;
  std::vector<double> episode_returns_;
  // Reusable per-step scratch (no heap allocation per step): the
  // admissible set of the current state, shared by SelectAction and
  // ContinuationValue; the reward ranker; the Q-tied set.
  util::DynamicBitset allowed_;
  StepRanker ranker_;
  std::vector<model::ItemId> tied_;
};

}  // namespace rlplanner::rl

#endif  // RLPLANNER_RL_EPISODE_RUNNER_H_
