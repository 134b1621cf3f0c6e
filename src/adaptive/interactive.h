#ifndef RLPLANNER_ADAPTIVE_INTERACTIVE_H_
#define RLPLANNER_ADAPTIVE_INTERACTIVE_H_

#include <memory>
#include <vector>

#include "core/planner.h"
#include "mdp/episode_state.h"
#include "rl/recommender.h"

namespace rlplanner::adaptive {

/// One candidate next item with its decision signals (item, theta, Eq. 2
/// reward, and Q from the current session state; Q is 0 before the first
/// item), for display in an advising UI.
using Suggestion = rl::RankedCandidate;

/// An interactive advising session over a trained policy ("capable to make
/// interactive recommendations in real-time", Section IV): the student or
/// traveler alternates between accepting the planner's suggestion and
/// pinning their own choice, and the planner replans around whatever
/// prefix exists. Suggestions are rl::StepRanker::Ranked over the session's
/// admissible set, read through RlPlanner::VisitQ, so dense and sparse
/// policies rank alike.
class InteractiveSession {
 public:
  /// `planner` must be trained and outlive the session.
  explicit InteractiveSession(const core::RlPlanner& planner);

  /// Items chosen so far.
  const std::vector<model::ItemId>& sequence() const {
    return state_->sequence();
  }
  std::size_t Length() const { return state_->Length(); }

  /// True when the session reached the horizon (courses) or no admissible
  /// item remains (trips: budget exhausted).
  bool Done() const;

  /// The top `k` candidates for the next slot, best first (same ordering
  /// as the automatic recommendation: theta, then reward, then Q).
  std::vector<Suggestion> SuggestNext(int k) const;

  /// Appends a user-chosen item. Fails when the item is inadmissible
  /// (already chosen / over budget / makes the split unsatisfiable).
  util::Status Pin(model::ItemId item);

  /// Accepts the planner's best suggestion. Fails when Done().
  util::Result<model::ItemId> AcceptSuggestion();

  /// Completes the remainder automatically and returns the full plan.
  model::Plan Complete();

  /// The plan as chosen so far.
  model::Plan CurrentPlan() const { return state_->ToPlan(); }

 private:
  std::vector<Suggestion> RankCandidates() const;

  const core::RlPlanner* planner_;
  std::unique_ptr<mdp::EpisodeState> state_;
  int horizon_;
};

}  // namespace rlplanner::adaptive

#endif  // RLPLANNER_ADAPTIVE_INTERACTIVE_H_
