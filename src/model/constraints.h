#ifndef RLPLANNER_MODEL_CONSTRAINTS_H_
#define RLPLANNER_MODEL_CONSTRAINTS_H_

#include <limits>
#include <vector>

#include "model/catalog.h"
#include "model/interleaving_template.h"
#include "model/topic_vector.h"
#include "util/status.h"

namespace rlplanner::model {

/// Hard constraints `P_hard = <#cr, #primary, #secondary, gap>`
/// (Section II-A2), extended with the dataset-specific hard requirements the
/// evaluation uses:
/// - Univ-2 adds per-sub-discipline unit minima (`category_min_counts`);
/// - trips add a walking-distance threshold `d` and the "no two consecutive
///   POIs of the same theme" gap semantics (Section IV-A1).
struct HardConstraints {
  /// Minimum total credit hours (courses) or the visitation-time budget in
  /// hours (trips): `#cr` / time threshold `t`.
  double min_credits = 0.0;
  /// Required number of primary items.
  int num_primary = 0;
  /// Required number of secondary items.
  int num_secondary = 0;
  /// Minimum distance between an item and its antecedent in the sequence.
  int gap = 1;
  /// Optional per-weight-category minimum item counts (Univ-2 sub-discipline
  /// requirements). Empty = only the primary/secondary split applies.
  std::vector<int> category_min_counts;
  /// Trip-only: maximum total walking distance in km (`d`); +inf disables.
  double distance_threshold_km = std::numeric_limits<double>::infinity();
  /// Trip-only: forbid consecutive POIs sharing their primary theme.
  bool no_consecutive_same_theme = false;

  /// Plan length `H` implied by the credit requirement: the number of items
  /// needed when each contributes `credits_per_item` (courses: 30 credits /
  /// 3 per course = 10). For the primary/secondary split to be satisfiable
  /// this equals `num_primary + num_secondary`.
  int HorizonForUniformCredits(double credits_per_item) const;

  /// `num_primary + num_secondary`.
  int TotalItems() const { return num_primary + num_secondary; }

  /// Sanity checks (non-negative counts, gap >= 1, category minima
  /// consistent with the total).
  util::Status Validate() const;

  bool operator==(const HardConstraints&) const = default;
};

/// Soft constraints `P_soft = <T_ideal, IT>` (Section II-A3).
struct SoftConstraints {
  /// Ideal topic/theme vector `T^ideal` the plan should cover.
  TopicVector ideal_topics;
  /// Interleaving template the plan should adhere to.
  InterleavingTemplate interleaving;
};

/// A full TPP instance: the catalog plus both constraint sets. This is what
/// planners (RL-Planner, OMEGA, EDA) consume.
struct TaskInstance {
  const Catalog* catalog = nullptr;
  HardConstraints hard;
  SoftConstraints soft;

  /// Validates cross-field consistency: catalog present, template counts
  /// match the split, ideal-vector size matches the vocabulary, enough
  /// items of each type exist in the catalog.
  util::Status Validate() const;
};

}  // namespace rlplanner::model

#endif  // RLPLANNER_MODEL_CONSTRAINTS_H_
