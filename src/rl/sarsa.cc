#include "rl/sarsa.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <optional>
#include <utility>

#include "mdp/cmdp.h"
#include "obs/span.h"
#include "obs/training_metrics.h"
#include "rl/recommender.h"

namespace rlplanner::rl {

template <typename QModel>
SarsaLearnerT<QModel>::SarsaLearnerT(const model::TaskInstance& instance,
                                     const mdp::RewardFunction& reward,
                                     const SarsaConfig& config,
                                     std::uint64_t seed,
                                     util::ThreadPool* pool)
    : instance_(&instance),
      reward_(&reward),
      config_(config),
      seed_(seed),
      rng_(seed),
      pool_(pool) {
  const int k = std::max(1, config_.num_workers);
  masks_.reserve(static_cast<std::size_t>(k));
  for (int w = 0; w < k; ++w) {
    masks_.emplace_back(reward, Horizon(), config_.mask_type_overflow);
  }
}

template <typename QModel>
std::uint64_t SarsaLearnerT<QModel>::WorkerSeed(std::uint64_t seed, int round,
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
QModel SarsaLearnerT<QModel>::Learn() {
  return LearnFrom(QModel(instance_->catalog->size()));
}

template <typename QModel>
QModel SarsaLearnerT<QModel>::LearnFrom(QModel warm_start) {
  assert(warm_start.num_items() == instance_->catalog->size());
  episode_returns_.clear();
  episode_returns_.reserve(static_cast<std::size_t>(config_.num_episodes));
  if (num_workers() > 1 && pool_ == nullptr) {
    owned_pool_ = std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(num_workers()));
    pool_ = owned_pool_.get();
  }
  return RunPolicyIteration(std::move(warm_start));
}

template <typename QModel>
QModel SarsaLearnerT<QModel>::RunPolicyIteration(QModel q) {
  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point since) {
    return std::chrono::duration<double>(Clock::now() - since).count();
  };
  const auto start = Clock::now();
  time_to_safe_seconds_ = -1.0;

  // Policy iteration (Section III-C): alternate SARSA policy evaluation
  // with a greedy-rollout policy check. If the greedy policy still violates
  // a hard constraint after a round, the tie-order it locked into is bad:
  // decay the table and explore more widely in the next round.
  const int rounds = std::max(1, config_.policy_rounds);
  const int per_round = std::max(1, config_.num_episodes / rounds);
  const mdp::CmdpSpec spec = mdp::CmdpSpec::FromInstance(*instance_);
  double explore = config_.explore_epsilon;

  RecommendConfig rollout_config;
  rollout_config.start_item = PickStartItem(*reward_, config_, rng_);
  rollout_config.mask_type_overflow = config_.mask_type_overflow;
  rollout_config.gamma = config_.gamma;
  auto policy_is_safe = [&](const QModel& table) {
    return spec.Satisfied(
        RecommendPlan(table, *instance_, *reward_, rollout_config));
  };

  std::optional<QModel> last_safe;
  int episodes_done = 0;
  for (int round = 0; episodes_done < config_.num_episodes; ++round) {
    // Spans only read the clock: no RNG draws, no Q-table interaction, so
    // training stays bit-exact with tracing on.
    obs::ScopedSpan round_span(trace_, "train_round");
    round_span.AddArg("round", static_cast<std::uint64_t>(round));
    const auto round_start = Clock::now();
    const double round_epsilon = explore;
    const int target =
        round >= rounds - 1 ? config_.num_episodes
                            : std::min(config_.num_episodes,
                                       episodes_done + per_round);
    const int count = target - episodes_done;
    RunRound(q, round, count, explore);
    episodes_done = target;

    bool safe = true;  // single-round runs never roll out
    if (rounds > 1) {
      obs::ScopedSpan rollout_span(trace_, "train_safety_rollout");
      rollout_span.AddArg("round", static_cast<std::uint64_t>(round));
      safe = policy_is_safe(q);
    }
    round_span.AddArg("episodes", static_cast<std::uint64_t>(count));
    round_span.AddArg("safe", safe ? "true" : "false");
    if (metrics_ != nullptr) {
      obs::TrainingRoundSample sample;
      sample.round = round;
      sample.episodes = static_cast<std::uint64_t>(count);
      sample.seconds = seconds_since(round_start);
      sample.episodes_per_sec =
          sample.seconds > 0.0
              ? static_cast<double>(sample.episodes) / sample.seconds
              : 0.0;
      sample.epsilon = round_epsilon;
      sample.safe = safe;
      metrics_->RecordRound(sample);
    }
    if (rounds == 1) continue;
    if (safe) {
      if (time_to_safe_seconds_ < 0.0) {
        time_to_safe_seconds_ = seconds_since(start);
      }
      last_safe = q;
      explore = config_.explore_epsilon;
    } else {
      // The greedy policy's tie order is locked in and unsafe: decay the
      // table and jitter it so the next round's rollout resolves exact ties
      // differently (Algorithm 1's "Ensure: a policy satisfying P_hard").
      q.Scale(config_.restart_decay);
      q.AddNoise(rng_, 0.05);
      explore = std::min(0.5, explore + 0.1);
    }
  }
  // Prefer the final table, but never hand back an unsafe policy when a
  // safe snapshot was observed during the iteration.
  if (rounds > 1 && last_safe.has_value() && !policy_is_safe(q)) {
    return *std::move(last_safe);
  }
  return q;
}

template <typename QModel>
void SarsaLearnerT<QModel>::RunRound(QModel& q, int round, int episodes,
                                     double explore) {
  const int k = num_workers();
  if (k == 1) {
    RunEpisodes(q, rng_, masks_[0], episodes, explore, &episode_returns_);
    return;
  }
  using Clock = std::chrono::steady_clock;
  const auto uk = static_cast<std::size_t>(k);
  // Deterministic shard sizes: floor(episodes / K) each, the remainder
  // going to the lowest-index workers.
  std::vector<int> shard(uk, episodes / k);
  for (int w = 0; w < episodes % k; ++w) ++shard[static_cast<std::size_t>(w)];

  // Each worker copies the round's starting table on its own thread and
  // rolls out against that copy; `q` stays untouched until the barrier.
  const QModel snapshot = q;
  std::vector<std::optional<QModel>> locals(uk);
  std::vector<std::vector<double>> returns(uk);
  std::vector<Clock::time_point> worker_done(uk);
  pool_->ParallelFor(uk, [&](std::size_t w) {
    // One span per shard on the emitting thread's own timeline — the
    // per-worker straggler picture the merge-wait histogram can't show.
    obs::ScopedSpan shard_span(trace_, "train_shard");
    shard_span.AddArg("round", static_cast<std::uint64_t>(round));
    shard_span.AddArg("worker", static_cast<std::uint64_t>(w));
    shard_span.AddArg("episodes", static_cast<std::uint64_t>(shard[w]));
    util::Rng rng(WorkerSeed(seed_, round, static_cast<int>(w)));
    RunEpisodes(locals[w].emplace(snapshot), rng, masks_[w], shard[w],
                explore, &returns[w]);
    if (metrics_ != nullptr) worker_done[w] = Clock::now();
  });
  if (metrics_ != nullptr) {
    // How long each worker's shard result sat waiting for the slowest
    // worker — the price of the deterministic merge barrier.
    const auto barrier = Clock::now();
    for (const Clock::time_point done : worker_done) {
      metrics_->RecordMergeBarrierWait(static_cast<std::uint64_t>(
          std::max<std::int64_t>(
              0, std::chrono::duration_cast<std::chrono::microseconds>(
                     barrier - done)
                     .count())));
    }
  }

  // Round barrier: fold worker deltas in ascending worker order. Fixed
  // iteration and FP-evaluation order make the merged table — and thus
  // the whole run — bit-reproducible for a given (seed, K).
  obs::ScopedSpan merge_span(trace_, "train_merge");
  merge_span.AddArg("round", static_cast<std::uint64_t>(round));
  for (std::size_t w = 0; w < uk; ++w) {
    q.AccumulateDelta(*locals[w], snapshot);
    episode_returns_.insert(episode_returns_.end(), returns[w].begin(),
                            returns[w].end());
  }
}

template <typename QModel>
void SarsaLearnerT<QModel>::RunEpisodes(QModel& q, util::Rng& rng,
                                        const ActionMask& mask, int episodes,
                                        double explore,
                                        std::vector<double>* returns) const {
  EpisodeRunner<QModel> runner(*instance_, *reward_, config_, rng);
  runner.set_metrics(metrics_);
  for (int e = 0; e < episodes; ++e) {
    returns->push_back(runner.RunEpisode(q, mask, explore));
  }
}

template class SarsaLearnerT<mdp::QTable>;
template class SarsaLearnerT<mdp::SparseQTable>;

}  // namespace rlplanner::rl
