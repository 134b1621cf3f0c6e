// End-to-end integration and property tests: the full
// train -> recommend -> validate -> score pipeline over the built-in
// datasets and over swept synthetic instance shapes.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>

#include "baselines/eda.h"
#include "baselines/gold.h"
#include "baselines/omega.h"
#include "core/config.h"
#include "core/planner.h"
#include "core/scoring.h"
#include "datagen/course_data.h"
#include "datagen/synthetic.h"
#include "datagen/trip_data.h"
#include "eval/experiment.h"
#include "eval/user_study.h"

namespace rlplanner {
namespace {

core::PlannerConfig FastConfig(const datagen::Dataset& dataset) {
  core::PlannerConfig config;
  config.sarsa.num_episodes = 120;
  config.sarsa.start_item = dataset.default_start;
  return config;
}

// ------------------------------------------------------ built-in datasets --

TEST(EndToEndTest, AllBuiltinDatasetsProduceScoredPlans) {
  const datagen::Dataset datasets[] = {
      datagen::MakeUniv1DsCt(),  datagen::MakeUniv1Cybersecurity(),
      datagen::MakeUniv1Cs(),    datagen::MakeUniv2Ds(),
      datagen::MakeNycTrip(),    datagen::MakeParisTrip()};
  for (const datagen::Dataset& dataset : datasets) {
    const model::TaskInstance instance = dataset.Instance();
    core::PlannerConfig config = FastConfig(dataset);
    core::RlPlanner planner(instance, config);
    ASSERT_TRUE(planner.Train().ok()) << dataset.name;
    auto plan = planner.Recommend(dataset.default_start);
    ASSERT_TRUE(plan.ok()) << dataset.name;
    EXPECT_FALSE(plan.value().empty()) << dataset.name;
    // Score is 0 exactly when the plan is invalid.
    const bool valid = planner.Validate(plan.value()).valid;
    const double score = planner.Score(plan.value());
    EXPECT_EQ(valid, score > 0.0) << dataset.name;
  }
}

TEST(EndToEndTest, GoldDominatesRlPlannerEverywhere) {
  const datagen::Dataset datasets[] = {
      datagen::MakeUniv1DsCt(), datagen::MakeUniv2Ds(),
      datagen::MakeNycTrip()};
  for (const datagen::Dataset& dataset : datasets) {
    const model::TaskInstance instance = dataset.Instance();
    core::PlannerConfig config = FastConfig(dataset);
    config.sarsa.num_episodes = 300;
    core::RlPlanner planner(instance, config);
    ASSERT_TRUE(planner.Train().ok());
    auto plan = planner.Recommend(dataset.default_start);
    ASSERT_TRUE(plan.ok());
    auto gold = baselines::BuildGoldStandard(instance);
    ASSERT_TRUE(gold.ok()) << dataset.name;
    EXPECT_GE(core::ScorePlan(instance, gold.value()),
              planner.Score(plan.value()))
        << dataset.name;
  }
}

TEST(EndToEndTest, RlBeatsOmegaOnDefaults) {
  // Figure 1's central comparison, at reduced episode counts.
  const datagen::Dataset dataset = datagen::MakeUniv1DsCt();
  const model::TaskInstance instance = dataset.Instance();
  core::PlannerConfig config = core::DefaultUniv1Config();
  config.sarsa.start_item = dataset.default_start;
  config.seed = 1000;
  core::RlPlanner planner(instance, config);
  ASSERT_TRUE(planner.Train().ok());
  auto plan = planner.Recommend(dataset.default_start);
  ASSERT_TRUE(plan.ok());

  const baselines::Omega omega(instance);
  double omega_best = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    omega_best = std::max(
        omega_best, core::ScorePlan(instance, omega.BuildPlan(seed)));
  }
  EXPECT_GT(planner.Score(plan.value()), omega_best);
}

// ------------------------------------------- Figure 1: RL above EDA --

// One Figure 1 dataset with its Table III configuration, run the way
// bench/fig1_baselines runs it: 10 seeded runs per method.
struct Fig1Case {
  const char* name;
  datagen::Dataset (*make)();
  core::PlannerConfig (*config)();
};

class Fig1RlBeatsEdaTest : public ::testing::TestWithParam<Fig1Case> {};

TEST_P(Fig1RlBeatsEdaTest, RlMeanScoreAboveEda) {
  const datagen::Dataset dataset = GetParam().make();
  const core::PlannerConfig config = GetParam().config();
  const eval::ExperimentResult rl =
      eval::RunMethod(dataset, eval::Method::kRlPlannerAvg, config, 10);
  const eval::ExperimentResult eda =
      eval::RunMethod(dataset, eval::Method::kEda, config, 10);
  EXPECT_GT(rl.mean_score, eda.mean_score);
}

INSTANTIATE_TEST_SUITE_P(
    Fig1Datasets, Fig1RlBeatsEdaTest,
    ::testing::Values(
        Fig1Case{"Univ1DsCt", datagen::MakeUniv1DsCt,
                 core::DefaultUniv1Config},
        Fig1Case{"Univ1Cybersecurity", datagen::MakeUniv1Cybersecurity,
                 core::DefaultUniv1Config},
        Fig1Case{"Univ1Cs", datagen::MakeUniv1Cs, core::DefaultUniv1Config},
        Fig1Case{"Univ2Ds", datagen::MakeUniv2Ds, core::DefaultUniv2Config},
        Fig1Case{"Nyc", datagen::MakeNycTrip, core::DefaultTripConfig},
        Fig1Case{"Paris", datagen::MakeParisTrip, core::DefaultTripConfig}),
    [](const ::testing::TestParamInfo<Fig1Case>& info) {
      return std::string(info.param.name);
    });

// ------------------------------------- Table IV: RL rates below gold --

// bench/table4_user_study's two studies. The paper's shape: RL-Planner
// rates below the gold standard on every question.
TEST(Table4ShapeTest, RlRatesBelowGoldOnEveryQuestion) {
  const eval::UserStudyResult course = eval::RunUserStudy(
      datagen::MakeUniv1DsCt(), core::DefaultUniv1Config(), 5, 25);
  const eval::UserStudyResult nyc = eval::RunUserStudy(
      datagen::MakeNycTrip(), core::DefaultTripConfig(), 5, 5);
  const eval::UserStudyResult paris = eval::RunUserStudy(
      datagen::MakeParisTrip(), core::DefaultTripConfig(), 5, 5);
  const eval::UserStudyResult trip = {
      eval::AverageRatings({nyc.rl, paris.rl}),
      eval::AverageRatings({nyc.gold, paris.gold})};
  for (const auto& [study, result] :
       {std::pair{"course", course}, std::pair{"trip", trip}}) {
    EXPECT_LT(result.rl.overall, result.gold.overall) << study;
    EXPECT_LT(result.rl.ordering, result.gold.ordering) << study;
    EXPECT_LT(result.rl.topic_coverage, result.gold.topic_coverage) << study;
    EXPECT_LT(result.rl.interleaving, result.gold.interleaving) << study;
  }
}

TEST(EndToEndTest, FullPipelineIsDeterministic) {
  const datagen::Dataset dataset = datagen::MakeUniv1Cs();
  const model::TaskInstance instance = dataset.Instance();
  core::PlannerConfig config = FastConfig(dataset);
  config.seed = 321;

  core::RlPlanner a(instance, config);
  core::RlPlanner b(instance, config);
  ASSERT_TRUE(a.Train().ok());
  ASSERT_TRUE(b.Train().ok());
  auto plan_a = a.Recommend(dataset.default_start);
  auto plan_b = b.Recommend(dataset.default_start);
  ASSERT_TRUE(plan_a.ok());
  ASSERT_TRUE(plan_b.ok());
  EXPECT_EQ(plan_a.value(), plan_b.value());
  EXPECT_EQ(a.episode_returns(), b.episode_returns());
}

// -------------------------------------------------- synthetic shape sweep --

// (num_items, required primaries, required secondaries, gap, seed)
using Shape = std::tuple<int, int, int, int, int>;

class SyntheticShapeTest : public ::testing::TestWithParam<Shape> {};

TEST_P(SyntheticShapeTest, PipelineInvariantsHold) {
  const auto [num_items, primaries, secondaries, gap, seed] = GetParam();
  datagen::SyntheticSpec spec;
  spec.num_items = num_items;
  spec.vocab_size = 2 * num_items;
  spec.num_primary_required = primaries;
  spec.num_secondary_required = secondaries;
  spec.gap = gap;
  spec.seed = static_cast<std::uint64_t>(seed);
  const datagen::Dataset dataset = datagen::GenerateSynthetic(spec);
  const model::TaskInstance instance = dataset.Instance();
  ASSERT_TRUE(instance.Validate().ok());

  core::PlannerConfig config;
  config.sarsa.num_episodes = 80;
  config.sarsa.start_item = dataset.default_start;
  config.seed = static_cast<std::uint64_t>(seed) * 13 + 7;
  core::RlPlanner planner(instance, config);
  ASSERT_TRUE(planner.Train().ok());
  auto plan = planner.Recommend(dataset.default_start);
  ASSERT_TRUE(plan.ok());

  // Invariant 1: plans never repeat items.
  auto items = plan.value().items();
  std::sort(items.begin(), items.end());
  EXPECT_EQ(std::adjacent_find(items.begin(), items.end()), items.end());

  // Invariant 2: course plans have exactly H items.
  EXPECT_EQ(static_cast<int>(plan.value().size()),
            instance.hard.TotalItems());

  // Invariant 3: the plan starts at the requested item.
  EXPECT_EQ(plan.value().at(0), dataset.default_start);

  // Invariant 4: score is positive iff the plan is valid, and bounded by H.
  const double score = planner.Score(plan.value());
  EXPECT_EQ(planner.Validate(plan.value()).valid, score > 0.0);
  EXPECT_LE(score, instance.hard.TotalItems());

  // Invariant 5: episode returns are non-negative and as many as N.
  EXPECT_EQ(planner.episode_returns().size(), 80u);
  for (double r : planner.episode_returns()) EXPECT_GE(r, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SyntheticShapeTest,
    ::testing::Values(Shape{20, 3, 3, 1, 1}, Shape{20, 3, 3, 2, 2},
                      Shape{30, 4, 4, 2, 3}, Shape{30, 5, 3, 3, 4},
                      Shape{40, 5, 5, 3, 5}, Shape{40, 2, 8, 1, 6},
                      Shape{60, 6, 6, 3, 7}, Shape{60, 4, 4, 4, 8},
                      Shape{80, 5, 5, 2, 9}, Shape{25, 6, 2, 1, 10}));

// Trip-domain synthetic sweep: budget-bounded horizons.
class SyntheticTripTest : public ::testing::TestWithParam<int> {};

TEST_P(SyntheticTripTest, BudgetsAreNeverExceeded) {
  datagen::SyntheticSpec spec;
  spec.domain = model::Domain::kTrip;
  spec.num_items = 40;
  spec.vocab_size = 15;
  spec.num_primary_required = 2;
  spec.num_secondary_required = 3;
  spec.gap = 1;
  spec.time_budget = 6.0;
  spec.seed = static_cast<std::uint64_t>(GetParam());
  const datagen::Dataset dataset = datagen::GenerateSynthetic(spec);
  const model::TaskInstance instance = dataset.Instance();
  ASSERT_TRUE(instance.Validate().ok());

  core::PlannerConfig config;
  config.sarsa.num_episodes = 60;
  config.sarsa.start_item = dataset.default_start;
  core::RlPlanner planner(instance, config);
  ASSERT_TRUE(planner.Train().ok());
  auto plan = planner.Recommend(dataset.default_start);
  ASSERT_TRUE(plan.ok());
  EXPECT_LE(plan.value().TotalCredits(dataset.catalog),
            spec.time_budget + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyntheticTripTest, ::testing::Range(1, 9));

// EDA and OMEGA never crash on any synthetic shape either.
class BaselineRobustnessTest : public ::testing::TestWithParam<int> {};

TEST_P(BaselineRobustnessTest, BaselinesHandleArbitraryShapes) {
  datagen::SyntheticSpec spec;
  spec.num_items = 25 + 5 * GetParam();
  spec.vocab_size = 40;
  spec.prereq_probability = 0.3;
  spec.seed = static_cast<std::uint64_t>(GetParam()) + 100;
  const datagen::Dataset dataset = datagen::GenerateSynthetic(spec);
  const model::TaskInstance instance = dataset.Instance();

  mdp::RewardWeights weights;
  const baselines::EdaGreedy eda(instance, weights);
  const model::Plan eda_plan = eda.BuildPlan(1);
  EXPECT_LE(eda_plan.size(), dataset.catalog.size());

  const baselines::Omega omega(instance);
  const model::Plan omega_plan = omega.BuildPlan(1);
  EXPECT_LE(omega_plan.size(), dataset.catalog.size());

  // Scoring handles every produced plan without issue.
  EXPECT_GE(core::ScorePlan(instance, eda_plan), 0.0);
  EXPECT_GE(core::ScorePlan(instance, omega_plan), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BaselineRobustnessTest,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace rlplanner
