// Tests for the public facade: PlannerConfig validation, plan validation
// and scoring, and the RlPlanner train/recommend/score/adopt lifecycle.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "baselines/gold.h"
#include "core/config.h"
#include "core/planner.h"
#include "core/scoring.h"
#include "core/validation.h"
#include "datagen/course_data.h"
#include "datagen/trip_data.h"
#include "geo/latlng.h"
#include "mdp/cmdp.h"
#include "util/rng.h"

namespace rlplanner::core {
namespace {

// ----------------------------------------------------------------- Config --

TEST(ConfigTest, DefaultsAreValid) {
  EXPECT_TRUE(DefaultUniv1Config().Validate().ok());
  EXPECT_TRUE(DefaultUniv2Config().Validate().ok());
  EXPECT_TRUE(DefaultTripConfig().Validate().ok());
}

TEST(ConfigTest, TableIIIDefaults) {
  const PlannerConfig univ1 = DefaultUniv1Config();
  EXPECT_EQ(univ1.sarsa.num_episodes, 500);
  EXPECT_DOUBLE_EQ(univ1.sarsa.alpha, 0.75);
  EXPECT_DOUBLE_EQ(univ1.sarsa.gamma, 0.95);
  EXPECT_DOUBLE_EQ(univ1.reward.epsilon, 0.0025);

  const PlannerConfig univ2 = DefaultUniv2Config();
  EXPECT_EQ(univ2.sarsa.num_episodes, 100);
  ASSERT_EQ(univ2.reward.category_weights.size(), 6u);
  EXPECT_DOUBLE_EQ(univ2.reward.category_weights[3], 0.42);
  EXPECT_DOUBLE_EQ(univ2.reward.delta, 0.8);

  const PlannerConfig trip = DefaultTripConfig();
  EXPECT_DOUBLE_EQ(trip.reward.delta, 0.6);
  EXPECT_DOUBLE_EQ(trip.reward.beta, 0.4);
}

TEST(ConfigTest, RejectsBadValues) {
  PlannerConfig config;
  config.sarsa.num_episodes = 0;
  EXPECT_FALSE(config.Validate().ok());
  config.sarsa.num_episodes = 10;
  config.sarsa.alpha = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config.sarsa.alpha = 0.5;
  config.sarsa.gamma = -0.1;
  EXPECT_FALSE(config.Validate().ok());
  config.sarsa.gamma = 0.9;
  config.reward.delta = 0.9;  // delta + beta != 1
  EXPECT_FALSE(config.Validate().ok());
}

// ---------------------------------------------------------------- Scoring --

TEST(ScoringTest, InvalidPlanScoresZero) {
  datagen::Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  EXPECT_DOUBLE_EQ(ScorePlan(instance, model::Plan({0, 1})), 0.0);
  EXPECT_DOUBLE_EQ(ScorePlan(instance, model::Plan()), 0.0);
}

TEST(ScoringTest, PerfectTemplateMatchScoresH) {
  datagen::Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  // m1->m2->m4->m5->m6->m3 fully satisfies permutation I2 (PSSSPP).
  const model::Plan plan({0, 1, 3, 4, 5, 2});
  EXPECT_DOUBLE_EQ(ScorePlan(instance, plan), 6.0);
  EXPECT_DOUBLE_EQ(TemplateScore(instance, plan), 6.0);
}

TEST(ScoringTest, TripScoreIsMeanPopularity) {
  datagen::Dataset dataset = datagen::MakeNycTrip();
  const model::TaskInstance instance = dataset.Instance();
  // Build a tiny valid trip by hand: two primaries + a secondary with
  // different themes, within budgets. Use the gold machinery instead of
  // guessing: TemplateScore/popularity split is what we verify here.
  model::Plan plan;
  double hours = 0.0;
  int last_theme = -1;
  int primaries = 0;
  for (const model::Item& item : dataset.catalog.items()) {
    if (!item.prereqs.empty()) continue;
    if (item.primary_theme == last_theme) continue;
    if (hours + item.credits > instance.hard.min_credits) continue;
    if (item.type == model::ItemType::kPrimary && primaries >= 2) continue;
    if (!plan.empty() &&
        geo::HaversineKm(
            dataset.catalog.item(plan.items().back()).location,
            item.location) > 1.0) {
      continue;  // keep the walking distance trivially small
    }
    plan.Append(item.id);
    hours += item.credits;
    last_theme = item.primary_theme;
    if (item.type == model::ItemType::kPrimary) ++primaries;
    if (plan.size() == 4 && primaries >= 2) break;
  }
  if (primaries >= 2 && plan.size() >= 3) {
    const double expected = plan.MeanPopularity(dataset.catalog);
    EXPECT_DOUBLE_EQ(ScorePlan(instance, plan), expected);
  }
}

TEST(ScoringTest, IdealTopicCoverageFractional) {
  datagen::Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  // m2 covers classification + clustering = 2 of the 4 ideal topics.
  EXPECT_DOUBLE_EQ(IdealTopicCoverage(instance, model::Plan({1})), 0.5);
}

// ------------------------------------------------------------- Validation --

// ValidatePlan evaluates each constraint once and reads the violations off
// those costs; ScorePlan gates on CmdpSpec::Satisfied. Both must agree with
// the spec's own per-call answers on valid plans (gold standards), near
// misses (gold plans with one edit) and random item sequences, on course
// and trip catalogs.
TEST(ValidationTest, ReportMatchesCmdpSpecOnRandomPlans) {
  const std::vector<datagen::Dataset> datasets = {
      datagen::MakeUniv1DsCt(), datagen::MakeUniv1Cs(),
      datagen::MakeUniv2Ds(), datagen::MakeNycTrip(),
      datagen::MakeParisTrip()};
  util::Rng rng(20261019);
  for (const datagen::Dataset& dataset : datasets) {
    SCOPED_TRACE(dataset.name);
    const model::TaskInstance instance = dataset.Instance();
    const mdp::CmdpSpec spec = mdp::CmdpSpec::FromInstance(instance);
    const auto gold = baselines::BuildGoldStandard(instance);
    ASSERT_TRUE(gold.ok()) << gold.status().ToString();
    const std::size_t items = dataset.catalog.size();
    const auto random_item = [&] {
      return static_cast<model::ItemId>(rng.NextIndex(items));
    };

    std::vector<model::Plan> plans = {gold.value(), model::Plan()};
    for (int trial = 0; trial < 60; ++trial) {
      std::vector<model::ItemId> edited = gold.value().items();
      const std::size_t at = rng.NextIndex(edited.size());
      switch (trial % 4) {
        case 0:  // swap two positions (may break a prerequisite gap)
          std::swap(edited[at], edited[rng.NextIndex(edited.size())]);
          break;
        case 1:  // drop one item
          edited.erase(edited.begin() + static_cast<std::ptrdiff_t>(at));
          break;
        case 2:  // replace one item (may duplicate another)
          edited[at] = random_item();
          break;
        default: {  // a random sequence of a random length
          edited.assign(1 + rng.NextIndex(2 * edited.size()), 0);
          for (model::ItemId& item : edited) item = random_item();
        }
      }
      plans.emplace_back(std::move(edited));
    }

    int valid = 0;
    for (const model::Plan& plan : plans) {
      const ValidationReport report = ValidatePlan(instance, plan);
      ASSERT_EQ(report.costs, spec.Evaluate(plan));
      ASSERT_EQ(report.violations, spec.Violations(plan));
      ASSERT_EQ(report.valid, spec.Satisfied(plan));
      ASSERT_EQ(report.constraint_names.size(), spec.constraints().size());
      double score = 0.0;  // an empty or invalid plan scores 0
      if (report.valid && !plan.empty()) {
        score = instance.catalog->domain() == model::Domain::kTrip
                    ? plan.MeanPopularity(*instance.catalog)
                    : TemplateScore(instance, plan);
      }
      EXPECT_EQ(ScorePlan(instance, plan), score);
      valid += report.valid ? 1 : 0;
    }
    EXPECT_GE(valid, 1);  // the gold plan
    EXPECT_LT(valid, static_cast<int>(plans.size()));
  }
}

// ---------------------------------------------------------------- Planner --

TEST(PlannerTest, RecommendBeforeTrainFails) {
  datagen::Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  RlPlanner planner(instance, PlannerConfig{});
  EXPECT_FALSE(planner.trained());
  auto plan = planner.Recommend(0);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(PlannerTest, TrainThenRecommendLifecycle) {
  datagen::Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  PlannerConfig config;
  config.sarsa.num_episodes = 100;
  config.sarsa.start_item = 0;
  config.reward.epsilon = 1.0;
  RlPlanner planner(instance, config);
  ASSERT_TRUE(planner.Train().ok());
  EXPECT_TRUE(planner.trained());
  EXPECT_GE(planner.train_seconds(), 0.0);
  EXPECT_EQ(planner.episode_returns().size(), 100u);

  auto plan = planner.Recommend(0);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().at(0), 0);
  EXPECT_TRUE(planner.Validate(plan.value()).valid);
  EXPECT_GT(planner.Score(plan.value()), 0.0);
}

TEST(PlannerTest, RecommendRejectsBadStart) {
  datagen::Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  PlannerConfig config;
  config.sarsa.num_episodes = 20;
  config.reward.epsilon = 1.0;
  RlPlanner planner(instance, config);
  ASSERT_TRUE(planner.Train().ok());
  EXPECT_FALSE(planner.Recommend(-1).ok());
  EXPECT_FALSE(planner.Recommend(99).ok());
}

TEST(PlannerTest, TrainValidatesInstanceAndConfig) {
  datagen::Dataset dataset = datagen::MakeTableIIToy();
  dataset.hard.num_primary = 50;  // impossible
  const model::TaskInstance instance = dataset.Instance();
  RlPlanner planner(instance, PlannerConfig{});
  EXPECT_FALSE(planner.Train().ok());
}

TEST(PlannerTest, AdoptPolicyChecksDimension) {
  datagen::Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  RlPlanner planner(instance, PlannerConfig{});
  EXPECT_FALSE(planner.AdoptPolicy(mdp::QTable(3)).ok());
  EXPECT_TRUE(planner.AdoptPolicy(mdp::QTable(6)).ok());
  EXPECT_TRUE(planner.trained());
}

}  // namespace
}  // namespace rlplanner::core
