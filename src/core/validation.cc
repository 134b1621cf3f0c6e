#include "core/validation.h"

#include "util/string_util.h"

namespace rlplanner::core {

std::string ValidationReport::ToString() const {
  if (valid) return "valid";
  return "INVALID: " + util::Join(violations, ", ");
}

ValidationReport ValidatePlan(const model::TaskInstance& instance,
                              const model::Plan& plan) {
  const mdp::CmdpSpec spec = mdp::CmdpSpec::FromInstance(instance);
  ValidationReport report;
  // Each constraint's closure runs once; its violation is read off its cost.
  report.costs = spec.Evaluate(plan);
  for (std::size_t i = 0; i < report.costs.size(); ++i) {
    const mdp::ConstraintFunctional& constraint = spec.constraints()[i];
    report.constraint_names.push_back(constraint.name);
    if (constraint.Violated(report.costs[i])) {
      report.violations.push_back(constraint.name);
    }
  }
  report.valid = report.violations.empty();
  return report;
}

}  // namespace rlplanner::core
