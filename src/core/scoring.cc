#include "core/scoring.h"

#include "mdp/cmdp.h"
#include "mdp/similarity.h"
#include "model/topic_vector.h"

namespace rlplanner::core {

double TemplateScore(const model::TaskInstance& instance,
                     const model::Plan& plan) {
  return mdp::BestSimilarity(plan.ToTypeSequence(*instance.catalog),
                             instance.soft.interleaving);
}

double IdealTopicCoverage(const model::TaskInstance& instance,
                          const model::Plan& plan) {
  return model::CoverageFraction(plan.CoveredTopics(*instance.catalog),
                                 instance.soft.ideal_topics);
}

double ScorePlan(const model::TaskInstance& instance,
                 const model::Plan& plan) {
  if (plan.empty()) return 0.0;
  if (!mdp::CmdpSpec::FromInstance(instance).Satisfied(plan)) return 0.0;
  if (instance.catalog->domain() == model::Domain::kTrip) {
    return plan.MeanPopularity(*instance.catalog);
  }
  return TemplateScore(instance, plan);
}

}  // namespace rlplanner::core
