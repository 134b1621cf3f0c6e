#ifndef RLPLANNER_ADAPTIVE_ADAPTIVE_PLANNER_H_
#define RLPLANNER_ADAPTIVE_ADAPTIVE_PLANNER_H_

#include <functional>

#include "adaptive/feedback.h"
#include "core/planner.h"

namespace rlplanner::adaptive {

/// The feedback loop sketched in the paper's conclusion: recommend a plan,
/// collect per-item feedback, fold it into the policy, and re-recommend.
///
/// Feedback enters the recommendation as a Q-value shift
/// `Q'(s, a) = Q(s, a) + strength * (affinity(a) - 0.5)`: a disliked item
/// loses exactly the kind of tie-break advantage a liked item gains, while
/// theta (hard-constraint admissibility) and the template-following reward
/// ordering stay untouched — feedback personalizes *which* item fills a
/// slot, never whether the plan stays valid.
class AdaptivePlanner {
 public:
  /// `planner` must be trained (or have adopted a policy) and must outlive
  /// the adaptive wrapper. `strength` scales the affinity shift.
  AdaptivePlanner(const core::RlPlanner& planner, double strength = 0.5);

  /// Recommendation using the feedback-shifted policy. Fails with
  /// FailedPrecondition on a sparse planner: the shift touches all |I|^2
  /// cells by design.
  util::Result<model::Plan> Recommend(model::ItemId start_item) const;

  /// The accumulated feedback (mutable: callers add feedback here).
  FeedbackModel& feedback() { return feedback_; }
  const FeedbackModel& feedback() const { return feedback_; }

  /// Runs up to `max_iterations` recommend -> rate -> adapt cycles.
  /// `rate` is called once per plan item and returns a 1..5 rating; the
  /// loop stops early when two consecutive plans are identical (the policy
  /// absorbed the feedback). Returns the final plan.
  util::Result<model::Plan> RunLoop(
      model::ItemId start_item, int max_iterations,
      const std::function<double(model::ItemId)>& rate);

 private:
  const core::RlPlanner* planner_;
  double strength_;
  FeedbackModel feedback_;
};

}  // namespace rlplanner::adaptive

#endif  // RLPLANNER_ADAPTIVE_ADAPTIVE_PLANNER_H_
