#ifndef RLPLANNER_EVAL_USER_STUDY_H_
#define RLPLANNER_EVAL_USER_STUDY_H_

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "datagen/dataset.h"
#include "model/constraints.h"
#include "model/plan.h"

namespace rlplanner::eval {

/// The four Table IV questions, rated 1..5.
struct StudyRatings {
  double overall = 0.0;
  double ordering = 0.0;
  double topic_coverage = 0.0;
  /// "Core and Elective Interleaving" (courses) / "Distance and Time
  /// Threshold" (trips).
  double interleaving = 0.0;
};

/// Simulates the Section IV-C user study (25 students / 50 AMT workers are
/// not reproducible offline). Each simulated rater converts objective plan
/// qualities — hard-constraint validity, template adherence, ideal-topic
/// coverage, prerequisite-ordering quality, and (trips) budget slack — into
/// a 1..5 rating per question through a calibrated affine response with
/// per-rater Gaussian noise, and the ratings are averaged over `num_raters`.
/// The substitution preserves the relationship under test: plans that are
/// valid, template-faithful and well-covering rate close to the gold
/// standard; invalid or poorly interleaved plans rate visibly lower.
StudyRatings SimulateRatings(const model::TaskInstance& instance,
                             const model::Plan& plan, int num_raters,
                             std::uint64_t seed);

/// Per-question mean of `ratings` (all zero when empty).
StudyRatings AverageRatings(const std::vector<StudyRatings>& ratings);

/// One Table IV study arm pair on one dataset: mean ratings of RL-Planner
/// plans and of gold standards.
struct UserStudyResult {
  StudyRatings rl;
  StudyRatings gold;
};

/// Rates `plans_per_method` RL-Planner plans and as many gold standards on
/// `dataset`, each by `raters` simulated raters, and averages per method.
/// Plan i of RL-Planner trains from `dataset.default_start` with seed
/// 500 + i and is rated with seed 9000 + i; gold standard i is built with
/// seed 40 + i and rated with seed 4500 + i. A plan that fails to train,
/// recommend or build is left out of its method's mean.
UserStudyResult RunUserStudy(const datagen::Dataset& dataset,
                             const core::PlannerConfig& config,
                             int plans_per_method, int raters);

}  // namespace rlplanner::eval

#endif  // RLPLANNER_EVAL_USER_STUDY_H_
