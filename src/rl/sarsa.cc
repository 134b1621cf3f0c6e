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
QModel RunPolicyIteration(const model::TaskInstance& instance,
                          const mdp::RewardFunction& reward,
                          const SarsaConfig& config, QModel q,
                          util::Rng& rng, const RoundBody<QModel>& run_round,
                          obs::TrainingMetrics* metrics,
                          obs::TraceCollector* trace,
                          double* time_to_safe_seconds) {
  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point since) {
    return std::chrono::duration<double>(Clock::now() - since).count();
  };
  const auto start = Clock::now();
  *time_to_safe_seconds = -1.0;

  // Policy iteration (Section III-C): alternate SARSA policy evaluation
  // with a greedy-rollout policy check. If the greedy policy still violates
  // a hard constraint after a round, the tie-order it locked into is bad:
  // decay the table and explore more widely in the next round.
  const int rounds = std::max(1, config.policy_rounds);
  const int per_round = std::max(1, config.num_episodes / rounds);
  const mdp::CmdpSpec spec = mdp::CmdpSpec::FromInstance(instance);
  double explore = config.explore_epsilon;

  RecommendConfig rollout_config;
  rollout_config.start_item = PickStartItem(reward, config, rng);
  rollout_config.mask_type_overflow = config.mask_type_overflow;
  rollout_config.gamma = config.gamma;
  auto policy_is_safe = [&](const QModel& table) {
    return spec.Satisfied(
        RecommendPlan(table, instance, reward, rollout_config));
  };

  obs::Registry* const span_registry =
      metrics != nullptr ? metrics->registry() : nullptr;
  std::optional<QModel> last_safe;
  int episodes_done = 0;
  for (int round = 0; episodes_done < config.num_episodes; ++round) {
    // Spans only read the clock: no RNG draws, no Q-table interaction, so
    // training stays bit-exact with tracing on.
    obs::ScopedSpan round_span(span_registry, "train_round", trace);
    round_span.AddArg("round", static_cast<std::uint64_t>(round));
    const auto round_start = Clock::now();
    const double round_epsilon = explore;
    const int target =
        round >= rounds - 1 ? config.num_episodes
                            : std::min(config.num_episodes,
                                       episodes_done + per_round);
    const int count = target - episodes_done;
    run_round(q, round, count, explore);
    episodes_done = target;

    bool safe = true;  // single-round runs never roll out
    if (rounds > 1) {
      obs::ScopedSpan rollout_span(span_registry, "train_safety_rollout",
                                   trace);
      rollout_span.AddArg("round", static_cast<std::uint64_t>(round));
      safe = policy_is_safe(q);
    }
    round_span.AddArg("episodes", static_cast<std::uint64_t>(count));
    round_span.AddArg("safe", safe ? "true" : "false");
    if (metrics != nullptr) {
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
      metrics->RecordRound(sample);
    }
    if (rounds == 1) continue;
    if (safe) {
      if (*time_to_safe_seconds < 0.0) {
        *time_to_safe_seconds = seconds_since(start);
      }
      last_safe = q;
      explore = config.explore_epsilon;
    } else {
      // The greedy policy's tie order is locked in and unsafe: decay the
      // table and jitter it so the next round's rollout resolves exact ties
      // differently (Algorithm 1's "Ensure: a policy satisfying P_hard").
      q.Scale(config.restart_decay);
      q.AddNoise(rng, 0.05);
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

template mdp::QTable RunPolicyIteration(
    const model::TaskInstance&, const mdp::RewardFunction&,
    const SarsaConfig&, mdp::QTable, util::Rng&,
    const RoundBody<mdp::QTable>&, obs::TrainingMetrics*,
    obs::TraceCollector*, double*);
template mdp::SparseQTable RunPolicyIteration(
    const model::TaskInstance&, const mdp::RewardFunction&,
    const SarsaConfig&, mdp::SparseQTable, util::Rng&,
    const RoundBody<mdp::SparseQTable>&, obs::TrainingMetrics*,
    obs::TraceCollector*, double*);

template <typename QModel>
SarsaLearnerT<QModel>::SarsaLearnerT(const model::TaskInstance& instance,
                                     const mdp::RewardFunction& reward,
                                     const SarsaConfig& config,
                                     std::uint64_t seed)
    : instance_(&instance),
      reward_(&reward),
      config_(config),
      rng_(seed),
      runner_(instance, reward, config_, rng_) {}

template <typename QModel>
QModel SarsaLearnerT<QModel>::Learn() {
  return LearnFrom(QModel(instance_->catalog->size()));
}

template <typename QModel>
QModel SarsaLearnerT<QModel>::LearnFrom(QModel warm_start) {
  assert(warm_start.num_items() == instance_->catalog->size());
  runner_.mutable_episode_returns().clear();
  runner_.mutable_episode_returns().reserve(
      static_cast<std::size_t>(config_.num_episodes));
  const ActionMask mask(*reward_, Horizon(), config_.mask_type_overflow);
  return RunPolicyIteration<QModel>(
      *instance_, *reward_, config_, std::move(warm_start), rng_,
      [&](QModel& q, int /*round*/, int episodes, double explore) {
        for (int e = 0; e < episodes; ++e) {
          runner_.RunEpisode(q, mask, explore);
        }
      },
      metrics_, trace_, &time_to_safe_seconds_);
}

template class SarsaLearnerT<mdp::QTable>;
template class SarsaLearnerT<mdp::SparseQTable>;

}  // namespace rlplanner::rl
