#ifndef RLPLANNER_MDP_CMDP_H_
#define RLPLANNER_MDP_CMDP_H_

#include <functional>
#include <string>
#include <vector>

#include "model/constraints.h"
#include "model/plan.h"

namespace rlplanner::mdp {

/// One constraint functional `D_j(H) <= c_j` of the CMDP formulation
/// (Eq. 1): `cost` measures the violation of a trajectory and `bound` is the
/// admissible level. All of the paper's hard constraints are expressed with
/// bound 0 ("number of missing credits", "number of missing primary items",
/// "number of gap violations", ...), so a trajectory is safe iff every cost
/// evaluates to 0.
struct ConstraintFunctional {
  std::string name;
  std::function<double(const model::Plan&)> cost;
  double bound = 0.0;

  /// True when `value`, a cost of this functional, exceeds its bound.
  bool Violated(double value) const { return value > bound + 1e-9; }
};

/// The CMDP view of a task instance: the item graph is complete
/// (states = items, actions = transitions) and the hard constraints of
/// `P_hard` become constraint functionals. `RL-Planner` solves the CMDP by
/// the weighted transformation of Section III-B (Theorem 1); this class
/// exists so the transformation's premise — that the produced trajectories
/// are safe — can be checked directly, and so tests/benches can count
/// exactly which constraints a baseline violates.
class CmdpSpec {
 public:
  /// Builds the constraint set implied by `instance`:
  /// - total credits >= #cr (courses) or total time <= budget (trips);
  /// - at least #primary primary items (Theorem 1 Case I: extra primaries
  ///   may stand in for secondaries, so only the lower bound is binding);
  /// - plan length == #primary + #secondary (courses);
  /// - every antecedent present with distance >= gap;
  /// - per-category minima when the instance declares them;
  /// - trip extras: distance threshold, no consecutive same-theme POIs.
  /// The instance must outlive the spec.
  static CmdpSpec FromInstance(const model::TaskInstance& instance);

  const std::vector<ConstraintFunctional>& constraints() const {
    return constraints_;
  }

  /// Costs of all functionals on `plan`, in declaration order.
  std::vector<double> Evaluate(const model::Plan& plan) const;

  /// True when every cost is within its bound.
  bool Satisfied(const model::Plan& plan) const;

  /// Names of the functionals whose cost exceeds its bound.
  std::vector<std::string> Violations(const model::Plan& plan) const;

 private:
  std::vector<ConstraintFunctional> constraints_;
};

}  // namespace rlplanner::mdp

#endif  // RLPLANNER_MDP_CMDP_H_
