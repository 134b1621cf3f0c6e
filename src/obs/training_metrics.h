#ifndef RLPLANNER_OBS_TRAINING_METRICS_H_
#define RLPLANNER_OBS_TRAINING_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/registry.h"

namespace rlplanner::obs {

/// One coordinator-side training round observation, kept in insertion order
/// so the CLI can report per-round progression alongside the aggregate
/// registry snapshot.
struct TrainingRoundSample {
  int round = 0;
  std::uint64_t episodes = 0;
  double seconds = 0.0;
  double episodes_per_sec = 0.0;
  double epsilon = 0.0;  // explore epsilon in effect for the round
  bool safe = true;      // safety rollout verdict (true when not checked)
};

/// The trainer-facing metrics facade: caches registry pointers once at
/// construction so hot-path recording (per TD step, per episode) is a
/// branch plus a relaxed atomic op — and a pure no-op structure-wise when
/// constructed with a null registry, preserving bit-exact training.
///
/// Metric names registered (all under the shared registry, so a `serve`
/// process that trains its policy in-process exports both families):
///   train_episodes_total            counter, one per finished episode
///   train_steps_total               counter, one per TD update
///   train_rounds_total              counter, one per policy round
///   train_round_violations_total    counter, rounds whose safety rollout
///                                   found a hard-constraint violation
///   train_epsilon                   gauge, explore epsilon of last round
///   train_episodes_per_sec          gauge, throughput of last round
///   train_td_error_abs_micro        histogram of |TD error| * 1e6
///   train_merge_barrier_wait_us     histogram of per-worker wait at the
///                                   sharded learner's merge barrier
///   q_table_bytes                   gauge, resident bytes of the learned
///                                   Q representation (dense payload or
///                                   sparse rows + index)
///   q_table_nonzero_fraction        gauge, non-zero cells / |I|^2 of the
///                                   learned table
class TrainingMetrics {
 public:
  /// `registry` may be null or disabled; recording is then skipped.
  explicit TrainingMetrics(Registry* registry);

  TrainingMetrics(const TrainingMetrics&) = delete;
  TrainingMetrics& operator=(const TrainingMetrics&) = delete;

  /// Per-TD-update hot path: bumps train_steps_total and records the TD
  /// error magnitude. `td_error` is computed by the caller from Q-value
  /// reads only — recording never perturbs training math.
  void RecordStep(double td_error) {
    if (steps_ == nullptr) return;
    steps_->Increment();
    td_error_abs_micro_->RecordRounded(
        (td_error < 0 ? -td_error : td_error) * 1e6);
  }

  /// Per-episode hot path.
  void RecordEpisode() {
    if (episodes_ == nullptr) return;
    episodes_->Increment();
  }

  /// Coordinator-only: one call per finished policy round.
  void RecordRound(const TrainingRoundSample& sample);

  /// Coordinator-only: per-worker wait time at the sharded learner's merge
  /// barrier (fast workers idle until the slowest arrives).
  void RecordMergeBarrierWait(std::uint64_t micros) {
    if (merge_barrier_wait_us_ == nullptr) return;
    merge_barrier_wait_us_->Record(micros);
  }

  /// Coordinator-only, once per Train(): size and sparsity of the learned
  /// Q representation. `bytes` is the resident footprint of whichever
  /// representation trained; `nonzero_fraction` is non-zero cells over the
  /// full |I|^2 space, so dense and sparse runs of one workload report
  /// comparable sparsity.
  void RecordQTableStats(std::size_t bytes, double nonzero_fraction) {
    if (q_table_bytes_ == nullptr) return;
    q_table_bytes_->Set(static_cast<double>(bytes));
    q_table_nonzero_fraction_->Set(nonzero_fraction);
  }

  /// Rounds recorded so far, in order. Coordinator-thread reads only.
  const std::vector<TrainingRoundSample>& rounds() const { return rounds_; }

  Registry* registry() const { return registry_; }

 private:
  Registry* const registry_;
  // Null when the registry is null/disabled — one pointer check gates all
  // recording.
  Counter* episodes_ = nullptr;
  Counter* steps_ = nullptr;
  Counter* rounds_total_ = nullptr;
  Counter* round_violations_ = nullptr;
  Gauge* epsilon_ = nullptr;
  Gauge* episodes_per_sec_ = nullptr;
  Histogram* td_error_abs_micro_ = nullptr;
  Histogram* merge_barrier_wait_us_ = nullptr;
  Gauge* q_table_bytes_ = nullptr;
  Gauge* q_table_nonzero_fraction_ = nullptr;
  std::vector<TrainingRoundSample> rounds_;
};

/// Renders per-round samples as a JSON array for the CLI `--metrics-out`
/// payload and the bench JSON.
std::string TrainingRoundsJsonArray(
    const std::vector<TrainingRoundSample>& rounds);

}  // namespace rlplanner::obs

#endif  // RLPLANNER_OBS_TRAINING_METRICS_H_
