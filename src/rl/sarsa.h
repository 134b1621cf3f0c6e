#ifndef RLPLANNER_RL_SARSA_H_
#define RLPLANNER_RL_SARSA_H_

#include <functional>
#include <vector>

#include "mdp/q_table.h"
#include "mdp/reward.h"
#include "mdp/sparse_q_table.h"
#include "rl/action_mask.h"
#include "rl/episode_runner.h"
#include "rl/sarsa_config.h"
#include "util/rng.h"

namespace rlplanner::obs {
class TraceCollector;
}  // namespace rlplanner::obs

namespace rlplanner::rl {

/// One policy-iteration round's episode work: runs `episodes` more
/// episodes of round `round` against `q` at exploration rate `explore`.
template <typename QModel>
using RoundBody =
    std::function<void(QModel& q, int round, int episodes, double explore)>;

/// The policy-iteration loop of Section III-C around Algorithm 1, shared by
/// the serial and sharded learners. It splits `config.num_episodes` into
/// `config.policy_rounds` rounds and lets `run_round` run each round's
/// episodes on `q`. After each round it rolls the greedy policy out; an
/// unsafe rollout decays the table, jitters it from `rng` and widens
/// exploration for the next round, and when the final table is unsafe the
/// last safe one is returned instead. The rollout start item is drawn from
/// `rng` before round 0 (unless `config.start_item` fixes it).
///
/// Emits a `train_round` and a `train_safety_rollout` span per round and
/// records one TrainingRoundSample per round (`metrics` and `trace` may be
/// null; neither draws randomness). `*time_to_safe_seconds` receives the
/// wall-clock seconds until the first safe round, -1 when none was seen
/// (a single-round run never rolls out). Instantiated in sarsa.cc for
/// mdp::QTable and mdp::SparseQTable.
template <typename QModel>
QModel RunPolicyIteration(const model::TaskInstance& instance,
                          const mdp::RewardFunction& reward,
                          const SarsaConfig& config, QModel q,
                          util::Rng& rng, const RoundBody<QModel>& run_round,
                          obs::TrainingMetrics* metrics,
                          obs::TraceCollector* trace,
                          double* time_to_safe_seconds);

/// The SARSA policy learner of Section III-C / Algorithm 1. Each episode
/// generates a trajectory of at most H items (H from the credit requirement
/// for courses, from the time budget for trips), computing Eq. 2 rewards and
/// applying the Eq. 9 update.
///
/// Templated over the Q representation: `QModel` is `mdp::QTable` (dense,
/// the historical default) or `mdp::SparseQTable` (10k-100k item catalogs).
/// Both instantiations draw from one RNG stream in the same order and run
/// arithmetic with identical operation order, so for a given seed they learn
/// bit-identical tables (pinned by test at paper scale). Explicitly
/// instantiated in sarsa.cc for exactly those two models.
///
/// The episode machinery lives in EpisodeRunner and the policy-iteration
/// loop in RunPolicyIteration (both shared with the sharded learner); this
/// class owns the single RNG stream both draw from. Not copyable: the
/// embedded runner points back into the learner's own config and RNG.
template <typename QModel>
class SarsaLearnerT {
 public:
  /// `instance` and `reward` must outlive the learner.
  SarsaLearnerT(const model::TaskInstance& instance,
                const mdp::RewardFunction& reward, const SarsaConfig& config,
                std::uint64_t seed = 17);

  SarsaLearnerT(const SarsaLearnerT&) = delete;
  SarsaLearnerT& operator=(const SarsaLearnerT&) = delete;

  /// Runs `config.num_episodes` episodes and returns the learned Q-table.
  QModel Learn();

  /// Incremental-retrain entry point: like Learn(), but the episode loop
  /// starts from `warm_start` instead of a zero table — the fleet
  /// orchestrator's continual-update path (warm starts from the incumbent
  /// policy, from a topic-space transfer, or from a feedback-shaped copy of
  /// either). `warm_start.num_items()` must match the task instance's
  /// catalog. Learn() is exactly LearnFrom(zero table), so a warm start of
  /// zeros reproduces a cold run bit for bit; the policy-iteration safety
  /// loop (rollout check, decay-and-retry restarts) applies to the warm
  /// table the same way it applies to a cold one.
  QModel LearnFrom(QModel warm_start);

  /// Total Eq. 2 return of each episode, in order (length = episodes run).
  /// Useful for convergence diagnostics and tests.
  const std::vector<double>& episode_returns() const {
    return runner_.episode_returns();
  }

  /// The horizon H used for episodes (see EpisodeHorizon).
  int Horizon() const { return EpisodeHorizon(*instance_); }

  /// Wall-clock seconds from the start of the last run's policy iteration
  /// until its first round whose greedy rollout satisfied every hard
  /// constraint; -1 when no safe round was observed (or policy_rounds <= 1,
  /// which never rolls out).
  double time_to_safe_seconds() const { return time_to_safe_seconds_; }

  /// Attaches the metrics facade (null detaches): per-step TD errors and
  /// episode counts flow from the embedded runner, per-round samples
  /// (episodes/sec, epsilon, safety verdict) from the policy-iteration
  /// loop. Purely observational — the learned table is unchanged.
  void set_metrics(obs::TrainingMetrics* metrics) {
    metrics_ = metrics;
    runner_.set_metrics(metrics);
  }

  /// Attaches a trace collector (null detaches): each policy-iteration
  /// round emits a `train_round` timeline span and, when policy_rounds > 1,
  /// a `train_safety_rollout` span. Spans only read the clock —
  /// no RNG draws, no Q-table touches — so the learned table is bit-exact
  /// with tracing on.
  void set_trace(obs::TraceCollector* trace) { trace_ = trace; }

 private:
  const model::TaskInstance* instance_;
  const mdp::RewardFunction* reward_;
  SarsaConfig config_;
  util::Rng rng_;
  EpisodeRunner<QModel> runner_;
  obs::TrainingMetrics* metrics_ = nullptr;
  obs::TraceCollector* trace_ = nullptr;
  double time_to_safe_seconds_ = -1.0;
};

extern template class SarsaLearnerT<mdp::QTable>;
extern template class SarsaLearnerT<mdp::SparseQTable>;

/// The historical dense learner — every pre-existing call site compiles
/// unchanged.
using SarsaLearner = SarsaLearnerT<mdp::QTable>;
/// The sparse learner for catalogs past kSparseAutoThreshold.
using SparseSarsaLearner = SarsaLearnerT<mdp::SparseQTable>;

}  // namespace rlplanner::rl

#endif  // RLPLANNER_RL_SARSA_H_
