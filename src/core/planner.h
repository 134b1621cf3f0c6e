#ifndef RLPLANNER_CORE_PLANNER_H_
#define RLPLANNER_CORE_PLANNER_H_

#include <memory>
#include <optional>
#include <string>

#include "core/config.h"
#include "core/validation.h"
#include "mdp/q_table.h"
#include "mdp/reward.h"
#include "mdp/sparse_q_table.h"
#include "model/constraints.h"
#include "model/plan.h"
#include "rl/recommender.h"

namespace rlplanner::obs {
class TrainingMetrics;
}  // namespace rlplanner::obs

namespace rlplanner::core {

/// The RL-Planner facade — the library's main entry point.
///
/// Typical use:
/// ```
///   RlPlanner planner(instance, DefaultUniv1Config());
///   RLP_RETURN_IF_ERROR(planner.Train());
///   auto plan = planner.Recommend(start_item);
///   double score = planner.Score(plan.value());
/// ```
/// A planner can also *adopt* a policy learned elsewhere (transfer learning)
/// instead of training.
class RlPlanner {
 public:
  /// `instance` must outlive the planner; `config` is copied (including the
  /// non-owned `config.metrics` registry pointer, which must then outlive
  /// the planner too).
  RlPlanner(const model::TaskInstance& instance, PlannerConfig config);
  ~RlPlanner();

  RlPlanner(const RlPlanner&) = delete;
  RlPlanner& operator=(const RlPlanner&) = delete;

  /// Validates the instance and configuration, then runs SARSA for
  /// `config.sarsa.num_episodes` episodes.
  util::Status Train();

  /// True once Train() succeeded or AdoptPolicy() was called.
  bool trained() const { return q_.has_value() || sparse_q_.has_value(); }

  /// Recommends a plan starting at `start_item` by greedy Q traversal.
  /// Fails when the planner has no policy or the start item is invalid.
  util::Result<model::Plan> Recommend(model::ItemId start_item) const;

  /// Recommends with explicit per-request settings (start item, exclusions,
  /// masking) — the entry point the serving layer uses for constraint
  /// overrides. `config_.use_beam_search` still selects the traversal.
  util::Result<model::Plan> Recommend(const rl::RecommendConfig& recommend) const;

  /// Installs an externally learned policy (e.g. transferred from another
  /// dataset). The table dimension must match the catalog size.
  util::Status AdoptPolicy(mdp::QTable q);

  /// Sparse-representation overload: the planner serves from the sparse
  /// table directly (no densification), so multi-GB-dense policies stay at
  /// their sparse footprint.
  util::Status AdoptPolicy(mdp::SparseQTable q);

  /// The paper's plan score (see scoring.h).
  double Score(const model::Plan& plan) const;

  /// Hard-constraint check with a per-constraint report.
  ValidationReport Validate(const model::Plan& plan) const;

  /// True when the active policy uses the sparse representation.
  bool uses_sparse() const { return sparse_q_.has_value(); }

  /// Invokes `fn` with the active Q table, dense or sparse, and returns
  /// its result; `fn` must be generic over both (they share the `Get` and
  /// `ArgmaxAction` surface). Requires trained().
  template <typename Fn>
  auto VisitQ(Fn&& fn) const {
    if (sparse_q_.has_value()) return fn(*sparse_q_);
    return fn(*q_);
  }

  /// The learned dense Q-table. Requires trained() && !uses_sparse();
  /// otherwise throws std::bad_optional_access.
  const mdp::QTable& q_table() const { return q_.value(); }

  /// The learned sparse Q-table. Requires uses_sparse(); otherwise throws
  /// std::bad_optional_access.
  const mdp::SparseQTable& sparse_q_table() const {
    return sparse_q_.value();
  }

  /// Wall-clock seconds of the last Train() call.
  double train_seconds() const { return train_seconds_; }

  /// Per-round training metrics of the last Train() call; null when
  /// `config.metrics` was null or Train() has not run.
  const obs::TrainingMetrics* training_metrics() const {
    return training_metrics_.get();
  }

  /// Per-episode returns of the last Train() call.
  const std::vector<double>& episode_returns() const {
    return episode_returns_;
  }

  const model::TaskInstance& instance() const { return *instance_; }
  const PlannerConfig& config() const { return config_; }
  const mdp::RewardFunction& reward_function() const { return reward_; }

 private:
  // Publishes q_table_bytes / q_table_nonzero_fraction for the active
  // representation after training (no-op without a metrics registry).
  void RecordQTableGauges() const;

  const model::TaskInstance* instance_;
  PlannerConfig config_;
  mdp::RewardFunction reward_;
  // Exactly one of the two engages once trained: q_representation resolves
  // to dense or sparse before training, and AdoptPolicy overloads keep the
  // invariant.
  std::optional<mdp::QTable> q_;
  std::optional<mdp::SparseQTable> sparse_q_;
  std::vector<double> episode_returns_;
  // Created per Train() call when config_.metrics is set (unique_ptr keeps
  // obs/training_metrics.h out of this header; hence the out-of-line dtor).
  std::unique_ptr<obs::TrainingMetrics> training_metrics_;
  double train_seconds_ = 0.0;
};

}  // namespace rlplanner::core

#endif  // RLPLANNER_CORE_PLANNER_H_
