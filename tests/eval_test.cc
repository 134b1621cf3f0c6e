// Tests for the evaluation harness: experiment runner, sweep harness,
// simulated user study, and transfer case studies.

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/gold.h"
#include "core/config.h"
#include "datagen/course_data.h"
#include "datagen/trip_data.h"
#include "eval/experiment.h"
#include "eval/convergence.h"
#include "eval/sweep.h"
#include "eval/transfer_study.h"
#include "eval/user_study.h"

namespace rlplanner::eval {
namespace {

core::PlannerConfig FastToyConfig() {
  core::PlannerConfig config;
  config.sarsa.num_episodes = 60;
  config.reward.epsilon = 1.0;
  return config;
}

// -------------------------------------------------------------- Experiment --

TEST(ExperimentTest, MethodNamesDistinct) {
  EXPECT_STRNE(MethodName(Method::kRlPlannerAvg),
               MethodName(Method::kRlPlannerMin));
  EXPECT_STRNE(MethodName(Method::kOmega), MethodName(Method::kEda));
}

TEST(ExperimentTest, RunsRequestedNumberOfRuns) {
  const datagen::Dataset toy = datagen::MakeTableIIToy();
  const auto result =
      RunMethod(toy, Method::kRlPlannerAvg, FastToyConfig(), 4);
  EXPECT_EQ(result.scores.size(), 4u);
  EXPECT_GE(result.valid_fraction, 0.0);
  EXPECT_LE(result.valid_fraction, 1.0);
  EXPECT_GE(result.mean_score, 0.0);
}

TEST(ExperimentTest, GoldScoresMaxOnToy) {
  const datagen::Dataset toy = datagen::MakeTableIIToy();
  const auto result = RunMethod(toy, Method::kGold, FastToyConfig(), 3);
  EXPECT_DOUBLE_EQ(result.mean_score, 6.0);
  EXPECT_DOUBLE_EQ(result.valid_fraction, 1.0);
}

TEST(ExperimentTest, StatsAreConsistent) {
  const datagen::Dataset toy = datagen::MakeTableIIToy();
  const auto result = RunMethod(toy, Method::kEda, FastToyConfig(), 5);
  double mean = 0.0;
  for (double s : result.scores) mean += s;
  mean /= result.scores.size();
  EXPECT_NEAR(result.mean_score, mean, 1e-12);
  EXPECT_GE(result.stddev_score, 0.0);
}

TEST(ExperimentTest, DeterministicForSameSeedBase) {
  const datagen::Dataset toy = datagen::MakeTableIIToy();
  const auto a = RunMethod(toy, Method::kRlPlannerAvg, FastToyConfig(), 3, 77);
  const auto b = RunMethod(toy, Method::kRlPlannerAvg, FastToyConfig(), 3, 77);
  EXPECT_EQ(a.scores, b.scores);
}

TEST(ExperimentTest, ParallelRunsBitIdenticalToSerial) {
  const datagen::Dataset toy = datagen::MakeTableIIToy();
  util::ThreadPool pool(4);
  const auto serial =
      RunMethod(toy, Method::kRlPlannerAvg, FastToyConfig(), 6, 77);
  const auto parallel =
      RunMethod(toy, Method::kRlPlannerAvg, FastToyConfig(), 6, 77, &pool);
  EXPECT_EQ(serial.scores, parallel.scores);
  EXPECT_DOUBLE_EQ(serial.mean_score, parallel.mean_score);
  EXPECT_DOUBLE_EQ(serial.stddev_score, parallel.stddev_score);
  EXPECT_DOUBLE_EQ(serial.valid_fraction, parallel.valid_fraction);
  EXPECT_EQ(serial.last_plan.items(), parallel.last_plan.items());
}

TEST(ExperimentTest, ConvenienceWrappersMatchRunMethod) {
  const datagen::Dataset toy = datagen::MakeTableIIToy();
  const core::PlannerConfig config = FastToyConfig();
  EXPECT_DOUBLE_EQ(
      MeanRlScore(toy, config, mdp::SimilarityMode::kAverage, 3, 42),
      RunMethod(toy, Method::kRlPlannerAvg, config, 3, 42).mean_score);
  EXPECT_DOUBLE_EQ(
      MeanEdaScore(toy, config.reward, 3, 42),
      RunMethod(toy, Method::kEda, config, 3, 42).mean_score);
}

// ------------------------------------------------------------------- Sweep --

TEST(SweepTest, AppliesMutatorsPerValue) {
  const auto make = [] { return datagen::MakeTableIIToy(); };
  const core::PlannerConfig base = FastToyConfig();
  SweepValue low{"N=1",
                 [](core::PlannerConfig& c) { c.sarsa.num_episodes = 1; },
                 nullptr, false};
  SweepValue high{"N=60", nullptr, nullptr, true};
  const SweepRow row = RunSweep(make, base, "N", {low, high}, 2);
  EXPECT_EQ(row.parameter, "N");
  ASSERT_EQ(row.value_labels.size(), 2u);
  EXPECT_EQ(row.value_labels[0], "N=1");
  // EDA column: NaN where not applicable, a number where it is.
  EXPECT_TRUE(std::isnan(row.eda[0]));
  EXPECT_FALSE(std::isnan(row.eda[1]));
}

TEST(SweepTest, ParallelSweepBitIdenticalToSerial) {
  const auto make = [] { return datagen::MakeTableIIToy(); };
  const core::PlannerConfig base = FastToyConfig();
  SweepValue low{"N=1",
                 [](core::PlannerConfig& c) { c.sarsa.num_episodes = 1; },
                 nullptr, false};
  SweepValue high{"N=60", nullptr, nullptr, true};
  util::ThreadPool pool(4);
  const SweepRow serial = RunSweep(make, base, "N", {low, high}, 3);
  const SweepRow parallel =
      RunSweep(make, base, "N", {low, high}, 3, 1000, &pool);
  EXPECT_EQ(serial.rl_avg, parallel.rl_avg);
  EXPECT_EQ(serial.rl_min, parallel.rl_min);
  ASSERT_EQ(serial.eda.size(), parallel.eda.size());
  for (std::size_t i = 0; i < serial.eda.size(); ++i) {
    if (std::isnan(serial.eda[i])) {
      EXPECT_TRUE(std::isnan(parallel.eda[i]));
    } else {
      EXPECT_EQ(serial.eda[i], parallel.eda[i]);
    }
  }
}

TEST(SweepTest, FormatRendersDashesForNaN) {
  SweepRow row;
  row.parameter = "x";
  row.value_labels = {"a"};
  row.rl_avg = {1.0};
  row.rl_min = {2.0};
  row.eda = {std::numeric_limits<double>::quiet_NaN()};
  const std::string text = FormatSweepTable("T", {row});
  EXPECT_NE(text.find("—"), std::string::npos);
  EXPECT_NE(text.find("T"), std::string::npos);
}

// -------------------------------------------------------------- User study --

TEST(UserStudyTest, GoldRatesAboveInvalidPlan) {
  const datagen::Dataset toy = datagen::MakeTableIIToy();
  const model::TaskInstance instance = toy.Instance();
  auto gold = baselines::BuildGoldStandard(instance);
  ASSERT_TRUE(gold.ok());
  const auto good = SimulateRatings(instance, gold.value(), 25, 1);
  const auto bad = SimulateRatings(instance, model::Plan({0, 1}), 25, 1);
  EXPECT_GT(good.overall, bad.overall);
  EXPECT_GT(good.interleaving, bad.interleaving);
}

TEST(UserStudyTest, RatingsStayOnTheScale) {
  const datagen::Dataset toy = datagen::MakeTableIIToy();
  const model::TaskInstance instance = toy.Instance();
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto r = SimulateRatings(instance, model::Plan({0, 1, 3}), 10, seed);
    for (double v : {r.overall, r.ordering, r.topic_coverage,
                     r.interleaving}) {
      EXPECT_GE(v, 1.0);
      EXPECT_LE(v, 5.0);
    }
  }
}

TEST(UserStudyTest, DeterministicPerSeed) {
  const datagen::Dataset toy = datagen::MakeTableIIToy();
  const model::TaskInstance instance = toy.Instance();
  const model::Plan plan({0, 1, 3, 4, 5, 2});
  const auto a = SimulateRatings(instance, plan, 25, 7);
  const auto b = SimulateRatings(instance, plan, 25, 7);
  EXPECT_DOUBLE_EQ(a.overall, b.overall);
  EXPECT_DOUBLE_EQ(a.ordering, b.ordering);
}

TEST(UserStudyTest, MoreRatersLessVariance) {
  const datagen::Dataset toy = datagen::MakeTableIIToy();
  const model::TaskInstance instance = toy.Instance();
  const model::Plan plan({0, 1, 3, 4, 5, 2});
  auto spread = [&](int raters) {
    double lo = 5.0;
    double hi = 1.0;
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      const double v = SimulateRatings(instance, plan, raters, seed).overall;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    return hi - lo;
  };
  EXPECT_LT(spread(200), spread(2));
}

// ------------------------------------------------------------- Convergence --

TEST(ConvergenceTest, MeasuresAndSmoothsReturns) {
  const datagen::Dataset toy = datagen::MakeTableIIToy();
  core::PlannerConfig config = FastToyConfig();
  config.sarsa.num_episodes = 100;
  const ConvergenceCurve curve = MeasureConvergence(toy, config, 10, 0.2);
  ASSERT_EQ(curve.episode_returns.size(), 100u);
  ASSERT_EQ(curve.smoothed.size(), 100u);
  EXPECT_GT(curve.final_level, 0.0);
  // The smoothed curve is bounded by the raw extremes.
  double lo = curve.episode_returns[0];
  double hi = curve.episode_returns[0];
  for (double r : curve.episode_returns) {
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  for (double s : curve.smoothed) {
    EXPECT_GE(s, lo - 1e-9);
    EXPECT_LE(s, hi + 1e-9);
  }
  // The reward-greedy behavior converges quickly on the toy.
  EXPECT_GE(curve.converged_at, 0);
  EXPECT_LT(curve.converged_at, 60);
}

TEST(ConvergenceTest, FormatCurvesRendersNamesAndConvergence) {
  const datagen::Dataset toy = datagen::MakeTableIIToy();
  core::PlannerConfig config = FastToyConfig();
  config.sarsa.num_episodes = 40;
  const ConvergenceCurve curve = MeasureConvergence(toy, config);
  const std::string text = FormatCurves({{"sarsa", curve}}, 8);
  EXPECT_NE(text.find("sarsa"), std::string::npos);
  EXPECT_NE(text.find("converged at episode"), std::string::npos);
  EXPECT_NE(text.find("episode"), std::string::npos);
}

TEST(ConvergenceTest, InvalidConfigYieldsEmptyCurve) {
  datagen::Dataset toy = datagen::MakeTableIIToy();
  core::PlannerConfig config = FastToyConfig();
  config.sarsa.num_episodes = 0;  // invalid
  const ConvergenceCurve curve = MeasureConvergence(toy, config);
  EXPECT_TRUE(curve.episode_returns.empty());
  EXPECT_EQ(curve.converged_at, -1);
}

// ---------------------------------------------------------------- Transfer --

TEST(TransferStudyTest, ProducesCasesSortedValidFirst) {
  const datagen::Dataset ds = datagen::MakeUniv1DsCt();
  const datagen::Dataset cs = datagen::MakeUniv1Cs();
  auto config = rlplanner::core::DefaultUniv1Config();
  config.sarsa.num_episodes = 200;
  std::vector<model::ItemId> starts = {cs.default_start};
  for (const model::Item& item : cs.catalog.items()) {
    if (item.prereqs.empty() && item.id != cs.default_start) {
      starts.push_back(item.id);
    }
    if (starts.size() == 4) break;
  }
  const auto cases = RunTransferStudy(ds, cs, config, starts);
  ASSERT_EQ(cases.size(), starts.size());
  for (std::size_t i = 1; i < cases.size(); ++i) {
    // valid cases come first.
    EXPECT_GE(cases[i - 1].valid, cases[i].valid);
  }
  for (const auto& c : cases) {
    EXPECT_EQ(c.source_name, ds.name);
    EXPECT_EQ(c.target_name, cs.name);
    EXPECT_FALSE(c.rendered.empty());
    EXPECT_EQ(c.valid, c.violations.empty());
  }
}

TEST(TransferStudyTest, DefaultStartUsedWhenStartsEmpty) {
  const datagen::Dataset nyc = datagen::MakeNycTrip();
  const datagen::Dataset paris = datagen::MakeParisTrip();
  auto config = rlplanner::core::DefaultTripConfig();
  config.sarsa.num_episodes = 100;
  const auto cases = RunTransferStudy(nyc, paris, config, {});
  ASSERT_EQ(cases.size(), 1u);
  EXPECT_EQ(cases[0].plan.at(0), paris.default_start);
}

}  // namespace
}  // namespace rlplanner::eval
