#include "mdp/cmdp.h"

#include <algorithm>
#include <cmath>

namespace rlplanner::mdp {

namespace {

// Number of prerequisite-gap violations in `plan`: items whose antecedent
// expression is not satisfied at their position with the required gap.
double GapViolations(const model::TaskInstance& instance,
                     const model::Plan& plan) {
  const auto positions = plan.PositionTable(instance.catalog->size());
  double violations = 0.0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const model::Item& item = instance.catalog->item(plan.at(i));
    if (!item.prereqs.SatisfiedAt(positions, static_cast<int>(i),
                                  instance.hard.gap)) {
      violations += 1.0;
    }
  }
  return violations;
}

double ConsecutiveThemeViolations(const model::TaskInstance& instance,
                                  const model::Plan& plan) {
  double violations = 0.0;
  for (std::size_t i = 1; i < plan.size(); ++i) {
    const model::Item& prev = instance.catalog->item(plan.at(i - 1));
    const model::Item& cur = instance.catalog->item(plan.at(i));
    if (cur.primary_theme >= 0 && cur.primary_theme == prev.primary_theme) {
      violations += 1.0;
    }
  }
  return violations;
}

double DuplicateItems(const model::Plan& plan) {
  auto items = plan.items();
  std::sort(items.begin(), items.end());
  double duplicates = 0.0;
  for (std::size_t i = 1; i < items.size(); ++i) {
    if (items[i] == items[i - 1]) duplicates += 1.0;
  }
  return duplicates;
}

}  // namespace

CmdpSpec CmdpSpec::FromInstance(const model::TaskInstance& instance) {
  CmdpSpec spec;
  const model::TaskInstance* inst = &instance;
  const bool is_trip = inst->catalog->domain() == model::Domain::kTrip;

  spec.constraints_.push_back(
      {"no_duplicate_items",
       [](const model::Plan& plan) { return DuplicateItems(plan); }, 0.0});

  if (is_trip) {
    // Trips treat #cr as a time *budget*: cost = hours over budget.
    spec.constraints_.push_back(
        {"time_budget", [inst](const model::Plan& plan) {
           return std::max(0.0, plan.TotalCredits(*inst->catalog) -
                                    inst->hard.min_credits);
         },
         0.0});
  } else {
    // Courses treat #cr as a minimum: cost = missing credit hours.
    spec.constraints_.push_back(
        {"min_credits", [inst](const model::Plan& plan) {
           return std::max(0.0, inst->hard.min_credits -
                                    plan.TotalCredits(*inst->catalog));
         },
         0.0});
    spec.constraints_.push_back(
        {"plan_length", [inst](const model::Plan& plan) {
           return std::abs(static_cast<double>(plan.size()) -
                           inst->hard.TotalItems());
         },
         0.0});
  }

  spec.constraints_.push_back(
      {"primary_split", [inst](const model::Plan& plan) {
         return std::max(
             0.0, static_cast<double>(
                      inst->hard.num_primary -
                      plan.CountByType(*inst->catalog,
                                       model::ItemType::kPrimary)));
       },
       0.0});

  spec.constraints_.push_back(
      {"prerequisite_gap", [inst](const model::Plan& plan) {
         return GapViolations(*inst, plan);
       },
       0.0});

  if (!inst->hard.category_min_counts.empty()) {
    spec.constraints_.push_back(
        {"category_minima", [inst](const model::Plan& plan) {
           double missing = 0.0;
           for (std::size_t c = 0; c < inst->hard.category_min_counts.size();
                ++c) {
             missing += std::max(
                 0, inst->hard.category_min_counts[c] -
                        plan.CountByCategory(*inst->catalog,
                                             static_cast<int>(c)));
           }
           return missing;
         },
         0.0});
  }

  if (is_trip && std::isfinite(inst->hard.distance_threshold_km)) {
    spec.constraints_.push_back(
        {"distance_threshold", [inst](const model::Plan& plan) {
           return std::max(0.0, plan.TotalDistanceKm(*inst->catalog) -
                                    inst->hard.distance_threshold_km);
         },
         0.0});
  }

  if (is_trip && inst->hard.no_consecutive_same_theme) {
    spec.constraints_.push_back(
        {"consecutive_theme", [inst](const model::Plan& plan) {
           return ConsecutiveThemeViolations(*inst, plan);
         },
         0.0});
  }

  return spec;
}

std::vector<double> CmdpSpec::Evaluate(const model::Plan& plan) const {
  std::vector<double> costs;
  costs.reserve(constraints_.size());
  for (const auto& constraint : constraints_) {
    costs.push_back(constraint.cost(plan));
  }
  return costs;
}

bool CmdpSpec::Satisfied(const model::Plan& plan) const {
  for (const auto& constraint : constraints_) {
    if (constraint.Violated(constraint.cost(plan))) return false;
  }
  return true;
}

std::vector<std::string> CmdpSpec::Violations(const model::Plan& plan) const {
  std::vector<std::string> names;
  for (const auto& constraint : constraints_) {
    if (constraint.Violated(constraint.cost(plan))) {
      names.push_back(constraint.name);
    }
  }
  return names;
}

}  // namespace rlplanner::mdp
