#include "rl/parallel_sarsa.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/span.h"
#include "rl/episode_runner.h"
#include "util/rng.h"

namespace rlplanner::rl {

template <typename QModel>
ParallelSarsaLearnerT<QModel>::ParallelSarsaLearnerT(
    const model::TaskInstance& instance, const mdp::RewardFunction& reward,
    const SarsaConfig& config, std::uint64_t seed, util::ThreadPool* pool)
    : instance_(&instance),
      reward_(&reward),
      config_(config),
      seed_(seed),
      pool_(pool) {}

template <typename QModel>
int ParallelSarsaLearnerT<QModel>::num_workers() const {
  return std::max(1, config_.num_workers);
}

template <typename QModel>
std::uint64_t ParallelSarsaLearnerT<QModel>::WorkerSeed(std::uint64_t seed,
                                                        int round,
                                                        int worker) {
  // SplitMix64 finalizer over the run seed offset by the (round, worker)
  // coordinates: decorrelated shard streams, reproducible from (seed, K)
  // alone. The +1 keeps (round 0, worker 0) distinct from the raw seed.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL *
                               (static_cast<std::uint64_t>(round) * 0x10001ULL +
                                static_cast<std::uint64_t>(worker) + 1ULL);
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ULL;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z;
}

template <typename QModel>
void ParallelSarsaLearnerT<QModel>::ForEachWorker(
    int num_workers, const std::function<void(std::size_t)>& fn) {
  util::ThreadPool* pool = pool_ != nullptr ? pool_ : owned_pool_.get();
  if (pool != nullptr && num_workers > 1) {
    pool->ParallelFor(static_cast<std::size_t>(num_workers), fn);
    return;
  }
  for (std::size_t w = 0; w < static_cast<std::size_t>(num_workers); ++w) {
    fn(w);
  }
}

template <typename QModel>
QModel ParallelSarsaLearnerT<QModel>::Learn() {
  episode_returns_.clear();
  time_to_safe_seconds_ = -1.0;
  if (num_workers() <= 1) {
    // K = 1 is the serial learner: same RNG stream, same table. It records
    // its own steps, episodes and rounds.
    SarsaLearnerT<QModel> learner(*instance_, *reward_, config_, seed_);
    learner.set_metrics(metrics_);
    learner.set_trace(trace_);
    QModel q = learner.Learn();
    episode_returns_ = learner.episode_returns();
    time_to_safe_seconds_ = learner.time_to_safe_seconds();
    return q;
  }
  if (pool_ == nullptr && owned_pool_ == nullptr) {
    owned_pool_ = std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(num_workers()));
  }
  return LearnSharded();
}

template <typename QModel>
QModel ParallelSarsaLearnerT<QModel>::LearnSharded() {
  using Clock = std::chrono::steady_clock;
  const int k = num_workers();
  const int horizon = EpisodeHorizon(*instance_);
  episode_returns_.reserve(static_cast<std::size_t>(config_.num_episodes));

  // The coordinator RNG drives everything the serial learner drew from its
  // single stream *outside* episodes: the rollout start pick and the
  // restart jitter. Worker streams are derived from (seed, round, worker)
  // instead, so they never depend on scheduling.
  util::Rng coordinator(seed_);

  // Each worker owns an ActionMask (mutable scratch makes sharing unsafe).
  std::vector<ActionMask> masks;
  masks.reserve(static_cast<std::size_t>(k));
  for (int w = 0; w < k; ++w) {
    masks.emplace_back(*reward_, horizon, config_.mask_type_overflow);
  }

  obs::Registry* const span_registry =
      metrics_ != nullptr ? metrics_->registry() : nullptr;
  const auto run_round = [&](QModel& q, int round, int count,
                             double explore) {
    // Deterministic shard sizes: floor(count / K) each, the remainder going
    // to the lowest-index workers.
    std::vector<int> shard(static_cast<std::size_t>(k), count / k);
    for (int w = 0; w < count % k; ++w) shard[static_cast<std::size_t>(w)]++;

    // Workers roll out against private copies of the round snapshot; the
    // shared table stays untouched until the barrier.
    const QModel snapshot = q;
    std::vector<QModel> locals(static_cast<std::size_t>(k), snapshot);
    std::vector<std::vector<double>> returns(static_cast<std::size_t>(k));
    std::vector<Clock::time_point> worker_done(static_cast<std::size_t>(k));
    ForEachWorker(k, [&](std::size_t w) {
      // One span per shard on the emitting thread's own timeline — the
      // per-worker straggler picture the merge-wait histogram can't show.
      obs::ScopedSpan shard_span(span_registry, "train_shard", trace_);
      shard_span.AddArg("round", static_cast<std::uint64_t>(round));
      shard_span.AddArg("worker", static_cast<std::uint64_t>(w));
      shard_span.AddArg("episodes", static_cast<std::uint64_t>(shard[w]));
      util::Rng rng(WorkerSeed(seed_, round, static_cast<int>(w)));
      EpisodeRunner<QModel> runner(*instance_, *reward_, config_, rng);
      runner.set_metrics(metrics_);
      for (int e = 0; e < shard[w]; ++e) {
        runner.RunEpisode(locals[w], masks[w], explore);
      }
      returns[w] = std::move(runner.mutable_episode_returns());
      if (metrics_ != nullptr) worker_done[w] = Clock::now();
    });
    if (metrics_ != nullptr) {
      // How long each worker's shard result sat waiting for the slowest
      // worker — the price of the deterministic merge barrier.
      const auto barrier = Clock::now();
      for (int w = 0; w < k; ++w) {
        const auto waited = barrier - worker_done[static_cast<std::size_t>(w)];
        metrics_->RecordMergeBarrierWait(static_cast<std::uint64_t>(
            std::max<std::int64_t>(
                0, std::chrono::duration_cast<std::chrono::microseconds>(
                       waited)
                       .count())));
      }
    }

    // Round barrier: fold worker deltas in ascending worker order. Fixed
    // iteration and FP-evaluation order make the merged table — and thus
    // the whole run — bit-reproducible for a given (seed, K).
    obs::ScopedSpan merge_span(span_registry, "train_merge", trace_);
    merge_span.AddArg("round", static_cast<std::uint64_t>(round));
    for (int w = 0; w < k; ++w) {
      q.AccumulateDelta(locals[static_cast<std::size_t>(w)], snapshot);
      episode_returns_.insert(episode_returns_.end(),
                              returns[static_cast<std::size_t>(w)].begin(),
                              returns[static_cast<std::size_t>(w)].end());
    }
  };
  return RunPolicyIteration<QModel>(
      *instance_, *reward_, config_, QModel(instance_->catalog->size()),
      coordinator, run_round, metrics_, trace_, &time_to_safe_seconds_);
}

template class ParallelSarsaLearnerT<mdp::QTable>;
template class ParallelSarsaLearnerT<mdp::SparseQTable>;

}  // namespace rlplanner::rl
