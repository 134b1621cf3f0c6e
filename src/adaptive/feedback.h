#ifndef RLPLANNER_ADAPTIVE_FEEDBACK_H_
#define RLPLANNER_ADAPTIVE_FEEDBACK_H_

#include <vector>

#include "mdp/q_table.h"
#include "model/prereq.h"
#include "util/status.h"

namespace rlplanner::adaptive {

/// The three feedback channels the paper's conclusion proposes to support:
/// "feedback could come as binary values (useful item / not useful),
/// categorical rating (e.g., on a scale of 1-5), or as a probability
/// distribution" (Section VI).
enum class FeedbackKind {
  kBinary = 0,
  kRating = 1,
  kDistribution = 2,
};

/// One feedback observation as a value type, so feedback can be queued,
/// shipped across threads, and replayed deterministically (the fleet
/// orchestrator batches these per tick and folds them into retraining).
/// `value` carries the binary signal (0/1) or the 1..5 rating;
/// `distribution` carries the 5-entry rating distribution for
/// kDistribution and is ignored otherwise.
struct FeedbackEvent {
  model::ItemId item = 0;
  FeedbackKind kind = FeedbackKind::kBinary;
  double value = 0.0;
  std::vector<double> distribution;
};

/// Accumulates end-user feedback about items and exposes a per-item
/// *affinity* in [0, 1] (0.5 = no signal). All three channels normalize
/// into the same scale and are blended with an exponential moving average,
/// so recent feedback dominates but does not erase history.
class FeedbackModel {
 public:
  /// `num_items` fixes the catalog size; `smoothing` in (0, 1] is the EMA
  /// weight of a new observation.
  explicit FeedbackModel(std::size_t num_items, double smoothing = 0.5);

  std::size_t num_items() const { return affinity_.size(); }

  /// Binary feedback: useful (1) / not useful (0).
  util::Status AddBinary(model::ItemId item, bool useful);

  /// Categorical rating on the 1..5 scale.
  util::Status AddRating(model::ItemId item, double rating);

  /// A probability distribution over the ratings 1..5 (need not be
  /// normalized; must be non-negative with positive mass).
  util::Status AddDistribution(model::ItemId item,
                               const std::vector<double>& probabilities);

  /// Current affinity of `item` in [0, 1]; 0.5 when nothing is known.
  double Affinity(model::ItemId item) const;

  /// Number of feedback events recorded for `item`.
  int ObservationCount(model::ItemId item) const;

  /// Replays one queued event through the matching Add* channel.
  util::Status Apply(const FeedbackEvent& event);

  /// Forget everything about `item` (affinity back to 0.5).
  util::Status Reset(model::ItemId item);

 private:
  util::Status Observe(model::ItemId item, double normalized_value);

  double smoothing_;
  std::vector<double> affinity_;
  std::vector<int> observations_;
};

/// Shapes a learned Q-table by the accumulated affinities: every action
/// column is shifted by `strength * (MaxAbsValue(q) + 1) * (affinity - 0.5)`.
/// AdaptivePlanner rolls out the shifted table directly; the fleet instead
/// *retrains* from it. Neutral
/// feedback (affinity 0.5 everywhere) returns the table unchanged, so
/// folding an empty batch is a bit-exact no-op. The shaped table is a warm
/// start only — SARSA's policy-iteration safety loop still gates the final
/// policy on the hard constraints, so feedback biases learning but can
/// never override Section II's P_hard.
mdp::QTable FoldFeedback(const mdp::QTable& q, const FeedbackModel& feedback,
                         double strength);

}  // namespace rlplanner::adaptive

#endif  // RLPLANNER_ADAPTIVE_FEEDBACK_H_
