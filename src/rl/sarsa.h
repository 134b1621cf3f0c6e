#ifndef RLPLANNER_RL_SARSA_H_
#define RLPLANNER_RL_SARSA_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "mdp/q_table.h"
#include "mdp/reward.h"
#include "mdp/sparse_q_table.h"
#include "rl/action_mask.h"
#include "rl/episode_runner.h"
#include "rl/sarsa_config.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rlplanner::obs {
class TraceCollector;
}  // namespace rlplanner::obs

namespace rlplanner::rl {

/// The SARSA policy learner of Section III-C / Algorithm 1. Each episode
/// generates a trajectory of at most H items (H from the credit requirement
/// for courses, from the time budget for trips), computing Eq. 2 rewards and
/// applying the Eq. 9 update. Around the episodes runs the policy-iteration
/// loop of Section III-C: the budget is split into `policy_rounds` rounds,
/// the greedy policy is rolled out after each, and an unsafe rollout decays
/// and jitters the table and widens exploration for the next round; when
/// the final table is unsafe the last safe one is returned instead.
///
/// `SarsaConfig::num_workers` (K) alone picks how a round's episodes run:
///  - K = 1: one after another on the table itself, every draw from the
///    learner's own RNG stream.
///  - K > 1: sharded. Each worker rolls its share of the round out against
///    a private copy of the round's starting table with a private RNG
///    seeded from (seed, round, worker); at the round barrier the workers'
///    TD deltas are folded back in *fixed worker order*
///    (Q += local_w - snapshot, w ascending). The learner's own RNG is the
///    coordinator: it draws the rollout start and the restart jitter.
/// Every stochastic choice derives from (seed, round, worker) and every
/// floating-point reduction has a fixed order, so the learned table is
/// bit-identical across runs and across physical thread counts: only
/// (seed, K) matter.
///
/// Templated over the Q representation: `QModel` is `mdp::QTable` (dense,
/// the historical default) or `mdp::SparseQTable` (10k-100k item catalogs).
/// Both instantiations draw from the same RNG streams in the same order and
/// run arithmetic with identical operation order, so for a given (seed, K)
/// they learn bit-identical tables (pinned by test at paper scale).
/// Explicitly instantiated in sarsa.cc for exactly those two models.
///
/// Learn() and LearnFrom() continue the learner's RNG stream: a second run
/// on the same learner draws on from where the first stopped instead of
/// restarting from the seed (the shard streams, derived from the seed, do
/// repeat). Not copyable: it owns per-worker scratch and an optional pool.
template <typename QModel>
class SarsaLearnerT {
 public:
  /// `instance` and `reward` must outlive the learner. `pool` optionally
  /// supplies the threads for K > 1; when null, the first sharded run
  /// starts a private pool of K threads that lives as long as the learner.
  /// Shard results never depend on which thread runs them, so a too-small
  /// pool (or the inline loop a ParallelFor nested in another degrades to)
  /// changes wall-clock only.
  SarsaLearnerT(const model::TaskInstance& instance,
                const mdp::RewardFunction& reward, const SarsaConfig& config,
                std::uint64_t seed = 17, util::ThreadPool* pool = nullptr);

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
  /// zeros reproduces a cold run bit for bit at every K; the
  /// policy-iteration safety loop (rollout check, decay-and-retry restarts)
  /// applies to the warm table the same way it applies to a cold one.
  QModel LearnFrom(QModel warm_start);

  /// Total Eq. 2 return of each episode of the last run, in (round, worker)
  /// order (length = episodes run). Useful for convergence diagnostics and
  /// tests.
  const std::vector<double>& episode_returns() const {
    return episode_returns_;
  }

  /// The horizon H used for episodes (see EpisodeHorizon).
  int Horizon() const { return EpisodeHorizon(*instance_); }

  /// The per-worker RNG seed: SplitMix64-style mix of the run seed with the
  /// (round, worker) coordinates, so shards are decorrelated but fully
  /// reproducible. Exposed for tests.
  static std::uint64_t WorkerSeed(std::uint64_t seed, int round, int worker);

  /// Wall-clock seconds from the start of the last run's policy iteration
  /// until its first round whose greedy rollout satisfied every hard
  /// constraint; -1 when no safe round was observed (or policy_rounds <= 1,
  /// which never rolls out).
  double time_to_safe_seconds() const { return time_to_safe_seconds_; }

  /// Attaches the metrics facade (null detaches): per-step TD errors and
  /// episode counts flow from the episode runners (on the worker threads
  /// when sharded), per-round samples (episodes/sec, epsilon, safety
  /// verdict) and the per-worker merge-barrier wait from the round loop.
  /// Purely observational — the learned table is unchanged.
  void set_metrics(obs::TrainingMetrics* metrics) { metrics_ = metrics; }

  /// Attaches a trace collector (null detaches): each policy-iteration
  /// round emits a `train_round` timeline span and, when policy_rounds > 1,
  /// a `train_safety_rollout` span; a sharded round adds a `train_shard`
  /// span per worker on that worker's own thread and a `train_merge` span.
  /// Spans only read the clock — no RNG draws, no Q-table touches — so the
  /// learned table is bit-exact with tracing on.
  void set_trace(obs::TraceCollector* trace) { trace_ = trace; }

 private:
  // The effective worker count K (>= 1).
  int num_workers() const { return static_cast<int>(masks_.size()); }

  // The policy-iteration loop around the rounds; draws the rollout start
  // and the restart jitter from rng_.
  QModel RunPolicyIteration(QModel q);

  // Runs one round's `episodes` episodes on `q` at exploration rate
  // `explore`: serially at K = 1, sharded and merged otherwise.
  void RunRound(QModel& q, int round, int episodes, double explore);

  // Runs `episodes` episodes on `q` drawing from `rng`, appending each
  // episode's return to `returns`.
  void RunEpisodes(QModel& q, util::Rng& rng, const ActionMask& mask,
                   int episodes, double explore,
                   std::vector<double>* returns) const;

  const model::TaskInstance* instance_;
  const mdp::RewardFunction* reward_;
  SarsaConfig config_;
  std::uint64_t seed_;
  util::Rng rng_;
  // One per worker (K of them): an ActionMask's scratch buffers make
  // sharing one across threads unsafe.
  std::vector<ActionMask> masks_;
  util::ThreadPool* pool_;
  // The private pool pool_ points at when none was supplied.
  std::unique_ptr<util::ThreadPool> owned_pool_;
  obs::TrainingMetrics* metrics_ = nullptr;
  obs::TraceCollector* trace_ = nullptr;
  std::vector<double> episode_returns_;
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
