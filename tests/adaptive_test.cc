// Tests for the adaptive extensions (the paper's Section VI future work):
// feedback model, feedback-adapted recommendation loop, and interactive
// advising sessions.

#include <gtest/gtest.h>

#include <algorithm>

#include "adaptive/adaptive_planner.h"
#include "adaptive/feedback.h"
#include "adaptive/interactive.h"
#include "core/config.h"
#include "core/planner.h"
#include "core/validation.h"
#include "datagen/course_data.h"
#include "mdp/reward.h"
#include "rl/recommender.h"
#include "rl/sarsa.h"
#include "util/rng.h"

namespace rlplanner::adaptive {
namespace {

// ---------------------------------------------------------- FeedbackModel --

TEST(FeedbackModelTest, StartsNeutral) {
  FeedbackModel feedback(5);
  for (model::ItemId i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(feedback.Affinity(i), 0.5);
    EXPECT_EQ(feedback.ObservationCount(i), 0);
  }
  EXPECT_DOUBLE_EQ(feedback.Affinity(-1), 0.5);  // unknown item -> neutral
}

TEST(FeedbackModelTest, BinaryFeedbackShiftsAffinity) {
  FeedbackModel feedback(3, 0.5);
  ASSERT_TRUE(feedback.AddBinary(0, true).ok());
  EXPECT_DOUBLE_EQ(feedback.Affinity(0), 0.75);
  ASSERT_TRUE(feedback.AddBinary(1, false).ok());
  EXPECT_DOUBLE_EQ(feedback.Affinity(1), 0.25);
  EXPECT_EQ(feedback.ObservationCount(0), 1);
}

TEST(FeedbackModelTest, RatingNormalization) {
  FeedbackModel feedback(2, 1.0);  // full weight: affinity = last value
  ASSERT_TRUE(feedback.AddRating(0, 5.0).ok());
  EXPECT_DOUBLE_EQ(feedback.Affinity(0), 1.0);
  ASSERT_TRUE(feedback.AddRating(0, 1.0).ok());
  EXPECT_DOUBLE_EQ(feedback.Affinity(0), 0.0);
  ASSERT_TRUE(feedback.AddRating(0, 3.0).ok());
  EXPECT_DOUBLE_EQ(feedback.Affinity(0), 0.5);
  EXPECT_FALSE(feedback.AddRating(0, 0.5).ok());
  EXPECT_FALSE(feedback.AddRating(0, 6.0).ok());
}

TEST(FeedbackModelTest, DistributionUsesExpectation) {
  FeedbackModel feedback(2, 1.0);
  // All mass on rating 5.
  ASSERT_TRUE(feedback.AddDistribution(0, {0, 0, 0, 0, 1}).ok());
  EXPECT_DOUBLE_EQ(feedback.Affinity(0), 1.0);
  // Uniform distribution -> expectation 3 -> affinity 0.5.
  ASSERT_TRUE(feedback.AddDistribution(0, {1, 1, 1, 1, 1}).ok());
  EXPECT_DOUBLE_EQ(feedback.Affinity(0), 0.5);
  // Unnormalized mass is fine.
  ASSERT_TRUE(feedback.AddDistribution(1, {0, 0, 0, 0, 10}).ok());
  EXPECT_DOUBLE_EQ(feedback.Affinity(1), 1.0);
}

TEST(FeedbackModelTest, DistributionValidation) {
  FeedbackModel feedback(1);
  EXPECT_FALSE(feedback.AddDistribution(0, {1, 1}).ok());
  EXPECT_FALSE(feedback.AddDistribution(0, {0, 0, 0, 0, 0}).ok());
  EXPECT_FALSE(feedback.AddDistribution(0, {-1, 0, 0, 0, 2}).ok());
}

TEST(FeedbackModelTest, EmaBlendsHistory) {
  FeedbackModel feedback(1, 0.5);
  ASSERT_TRUE(feedback.AddBinary(0, true).ok());   // 0.75
  ASSERT_TRUE(feedback.AddBinary(0, true).ok());   // 0.875
  ASSERT_TRUE(feedback.AddBinary(0, false).ok());  // 0.4375
  EXPECT_DOUBLE_EQ(feedback.Affinity(0), 0.4375);
}

TEST(FeedbackModelTest, ResetForgets) {
  FeedbackModel feedback(1);
  ASSERT_TRUE(feedback.AddBinary(0, true).ok());
  ASSERT_TRUE(feedback.Reset(0).ok());
  EXPECT_DOUBLE_EQ(feedback.Affinity(0), 0.5);
  EXPECT_EQ(feedback.ObservationCount(0), 0);
  EXPECT_FALSE(feedback.Reset(9).ok());
}

TEST(FeedbackModelTest, RejectsUnknownItems) {
  FeedbackModel feedback(2);
  EXPECT_FALSE(feedback.AddBinary(5, true).ok());
  EXPECT_FALSE(feedback.AddRating(-1, 3.0).ok());
}

// -------------------------------------------------------- AdaptivePlanner --

class AdaptiveFixture : public ::testing::Test {
 protected:
  AdaptiveFixture()
      : dataset_(datagen::MakeUniv1DsCt()), instance_(dataset_.Instance()) {
    config_ = core::DefaultUniv1Config();
    config_.sarsa.start_item = dataset_.default_start;
    config_.seed = 1000;  // a seed whose plan is valid
    planner_ = std::make_unique<core::RlPlanner>(instance_, config_);
    EXPECT_TRUE(planner_->Train().ok());
  }

  datagen::Dataset dataset_;
  model::TaskInstance instance_;
  core::PlannerConfig config_;
  std::unique_ptr<core::RlPlanner> planner_;
};

TEST_F(AdaptiveFixture, NeutralFeedbackReproducesBasePlan) {
  AdaptivePlanner adaptive(*planner_);
  auto base = planner_->Recommend(dataset_.default_start);
  auto adapted = adaptive.Recommend(dataset_.default_start);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(adapted.ok());
  EXPECT_EQ(base.value(), adapted.value());
}

// A secondary item in the plan that no primary's prerequisite expression
// references — safe to substitute without endangering a core's antecedents.
model::ItemId FindSubstitutableSecondary(const datagen::Dataset& dataset,
                                         const model::Plan& plan) {
  for (model::ItemId item : plan.items()) {
    if (dataset.catalog.item(item).type != model::ItemType::kSecondary) {
      continue;
    }
    bool enabler = false;
    for (const model::Item& other : dataset.catalog.items()) {
      if (other.type != model::ItemType::kPrimary) continue;
      for (const auto& group : other.prereqs.groups()) {
        for (model::ItemId member : group) {
          if (member == item) enabler = true;
        }
      }
    }
    if (!enabler) return item;
  }
  return -1;
}

TEST_F(AdaptiveFixture, NegativeFeedbackRemovesDislikedElective) {
  AdaptivePlanner adaptive(*planner_, /*strength=*/2.0);
  auto base = planner_->Recommend(dataset_.default_start);
  ASSERT_TRUE(base.ok());
  // Dislike a substitutable secondary item of the base plan.
  const model::ItemId disliked =
      FindSubstitutableSecondary(dataset_, base.value());
  ASSERT_GE(disliked, 0);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(adaptive.feedback().AddBinary(disliked, false).ok());
  }
  auto adapted = adaptive.Recommend(dataset_.default_start);
  ASSERT_TRUE(adapted.ok());
  EXPECT_FALSE(adapted.value().Contains(disliked))
      << dataset_.catalog.item(disliked).code;
  // The adapted plan must still satisfy the hard constraints.
  EXPECT_TRUE(planner_->Validate(adapted.value()).valid);
}

TEST_F(AdaptiveFixture, PositiveFeedbackPullsItemIn) {
  AdaptivePlanner adaptive(*planner_, 2.0);
  auto base = planner_->Recommend(dataset_.default_start);
  ASSERT_TRUE(base.ok());
  // Find a prerequisite-free elective NOT in the base plan and praise it.
  model::ItemId liked = -1;
  for (const model::Item& item : dataset_.catalog.items()) {
    if (item.type == model::ItemType::kSecondary && item.prereqs.empty() &&
        !base.value().Contains(item.id)) {
      liked = item.id;
      break;
    }
  }
  ASSERT_GE(liked, 0);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(adaptive.feedback().AddRating(liked, 5.0).ok());
  }
  auto adapted = adaptive.Recommend(dataset_.default_start);
  ASSERT_TRUE(adapted.ok());
  EXPECT_TRUE(adapted.value().Contains(liked))
      << dataset_.catalog.item(liked).code;
}

TEST_F(AdaptiveFixture, LoopConvergesWithConsistentRater) {
  AdaptivePlanner adaptive(*planner_, 1.0);
  // A rater who dislikes one specific elective and likes everything else.
  auto base = planner_->Recommend(dataset_.default_start);
  ASSERT_TRUE(base.ok());
  const model::ItemId disliked =
      FindSubstitutableSecondary(dataset_, base.value());
  ASSERT_GE(disliked, 0);
  auto plan = adaptive.RunLoop(
      dataset_.default_start, 10,
      [&](model::ItemId item) { return item == disliked ? 1.0 : 5.0; });
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan.value().Contains(disliked));
  EXPECT_TRUE(planner_->Validate(plan.value()).valid);
}

TEST_F(AdaptiveFixture, DistributionFeedbackSteersLikeRatings) {
  AdaptivePlanner by_rating(*planner_, 2.0);
  AdaptivePlanner by_distribution(*planner_, 2.0);
  auto base = planner_->Recommend(dataset_.default_start);
  ASSERT_TRUE(base.ok());
  const model::ItemId disliked =
      FindSubstitutableSecondary(dataset_, base.value());
  ASSERT_GE(disliked, 0);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(by_rating.feedback().AddRating(disliked, 1.0).ok());
    // All probability mass on rating 1 — the same signal.
    ASSERT_TRUE(
        by_distribution.feedback().AddDistribution(disliked, {1, 0, 0, 0, 0})
            .ok());
  }
  EXPECT_DOUBLE_EQ(by_rating.feedback().Affinity(disliked),
                   by_distribution.feedback().Affinity(disliked));
  auto a = by_rating.Recommend(dataset_.default_start);
  auto b = by_distribution.Recommend(dataset_.default_start);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
}

TEST_F(AdaptiveFixture, ZeroStrengthIgnoresFeedback) {
  AdaptivePlanner adaptive(*planner_, /*strength=*/0.0);
  auto base = planner_->Recommend(dataset_.default_start);
  ASSERT_TRUE(base.ok());
  const model::ItemId disliked =
      FindSubstitutableSecondary(dataset_, base.value());
  ASSERT_GE(disliked, 0);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(adaptive.feedback().AddBinary(disliked, false).ok());
  }
  auto adapted = adaptive.Recommend(dataset_.default_start);
  ASSERT_TRUE(adapted.ok());
  EXPECT_EQ(adapted.value(), base.value());
}

TEST_F(AdaptiveFixture, InteractiveSuggestionSignalsAreConsistent) {
  InteractiveSession session(*planner_);
  ASSERT_TRUE(session.Pin(dataset_.default_start).ok());
  const auto suggestions = session.SuggestNext(-1);  // all candidates
  for (const auto& s : suggestions) {
    EXPECT_GE(s.theta, 0);
    EXPECT_LE(s.theta, 1);
    EXPECT_GE(s.reward, 0.0);
    // theta = 0 forces reward 0 (Eq. 2).
    if (s.theta == 0) {
      EXPECT_DOUBLE_EQ(s.reward, 0.0);
    }
  }
}

TEST(AdaptivePlannerTest, RequiresTrainedPlanner) {
  datagen::Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  core::RlPlanner planner(instance, core::PlannerConfig{});
  AdaptivePlanner adaptive(planner);
  EXPECT_FALSE(adaptive.Recommend(0).ok());
}

// ----------------------------------------------------- InteractiveSession --

TEST_F(AdaptiveFixture, InteractiveCompleteMatchesAutomaticPlan) {
  InteractiveSession session(*planner_);
  ASSERT_TRUE(session.Pin(dataset_.default_start).ok());
  const model::Plan interactive = session.Complete();
  auto automatic = planner_->Recommend(dataset_.default_start);
  ASSERT_TRUE(automatic.ok());
  EXPECT_EQ(interactive, automatic.value());
}

TEST_F(AdaptiveFixture, SuggestionsAreRankedAndAdmissible) {
  InteractiveSession session(*planner_);
  ASSERT_TRUE(session.Pin(dataset_.default_start).ok());
  const auto suggestions = session.SuggestNext(5);
  ASSERT_FALSE(suggestions.empty());
  EXPECT_LE(suggestions.size(), 5u);
  for (std::size_t i = 1; i < suggestions.size(); ++i) {
    EXPECT_GE(suggestions[i - 1].theta, suggestions[i].theta);
  }
  // Top suggestion must be admissible to pin.
  EXPECT_TRUE(session.Pin(suggestions.front().item).ok());
}

TEST_F(AdaptiveFixture, PinRejectsInadmissibleItems) {
  InteractiveSession session(*planner_);
  ASSERT_TRUE(session.Pin(dataset_.default_start).ok());
  // Repeating the same item is inadmissible.
  EXPECT_FALSE(session.Pin(dataset_.default_start).ok());
  EXPECT_FALSE(session.Pin(-3).ok());
  EXPECT_FALSE(session.Pin(999).ok());
}

TEST_F(AdaptiveFixture, PinnedPrefixIsRespected) {
  InteractiveSession session(*planner_);
  // Pin two prerequisite-free items of the student's own choosing.
  const auto math661 = dataset_.catalog.FindByCode("MATH 661").value();
  ASSERT_TRUE(session.Pin(dataset_.default_start).ok());
  ASSERT_TRUE(session.Pin(math661).ok());
  const model::Plan plan = session.Complete();
  EXPECT_EQ(plan.at(0), dataset_.default_start);
  EXPECT_EQ(plan.at(1), math661);
  EXPECT_EQ(static_cast<int>(plan.size()), instance_.hard.TotalItems());
}

TEST_F(AdaptiveFixture, DoneAfterHorizonAndAcceptFails) {
  InteractiveSession session(*planner_);
  ASSERT_TRUE(session.Pin(dataset_.default_start).ok());
  while (!session.Done()) {
    ASSERT_TRUE(session.AcceptSuggestion().ok());
  }
  EXPECT_EQ(static_cast<int>(session.Length()),
            instance_.hard.TotalItems());
  EXPECT_FALSE(session.AcceptSuggestion().ok());
  EXPECT_FALSE(session.Pin(0).ok());
}

// A sparse-trained planner (the representation above 2,048 items) trains
// the same table as the dense one, so an interactive session over it ranks
// and completes identically; AdaptivePlanner refuses it, because its
// affinity shift touches all |I|^2 cells by design.
TEST_F(AdaptiveFixture, SparsePlannerSuggestsLikeDenseAndAdaptiveRefusesIt) {
  core::PlannerConfig sparse_config = config_;
  sparse_config.sarsa.q_representation = rl::QRepresentation::kSparse;
  core::RlPlanner sparse(instance_, sparse_config);
  ASSERT_TRUE(sparse.Train().ok());
  ASSERT_TRUE(sparse.uses_sparse());

  InteractiveSession dense_session(*planner_);
  InteractiveSession sparse_session(sparse);
  ASSERT_TRUE(dense_session.Pin(dataset_.default_start).ok());
  ASSERT_TRUE(sparse_session.Pin(dataset_.default_start).ok());
  const auto dense_suggestions = dense_session.SuggestNext(-1);
  const auto sparse_suggestions = sparse_session.SuggestNext(-1);
  ASSERT_EQ(sparse_suggestions.size(), dense_suggestions.size());
  ASSERT_FALSE(dense_suggestions.empty());
  for (std::size_t i = 0; i < dense_suggestions.size(); ++i) {
    EXPECT_EQ(sparse_suggestions[i].item, dense_suggestions[i].item);
    EXPECT_EQ(sparse_suggestions[i].theta, dense_suggestions[i].theta);
    EXPECT_EQ(sparse_suggestions[i].reward, dense_suggestions[i].reward);
    EXPECT_EQ(sparse_suggestions[i].q_value, dense_suggestions[i].q_value);
  }
  EXPECT_EQ(sparse_session.Complete(), dense_session.Complete());

  const AdaptivePlanner adaptive(sparse);
  const auto adapted = adaptive.Recommend(dataset_.default_start);
  ASSERT_FALSE(adapted.ok());
  EXPECT_EQ(adapted.status().code(), util::StatusCode::kFailedPrecondition);
}

// ------------------------------------------------- FoldFeedback property --

// Property: folding ANY feedback batch into a retrain preserves
// hard-constraint satisfaction. FoldFeedback only shapes the warm start —
// the SARSA safety loop and the theta-gated rollout still stand between the
// shaped table and the served plan, so no batch of user opinions, however
// adversarial, can push a published policy into violating P_hard (the
// paper's inviolable constraint set).
class FeedbackFoldPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FeedbackFoldPropertyTest, FoldedRetrainPreservesHardConstraints) {
  const int seed = GetParam();
  const datagen::Dataset dataset = datagen::MakeUniv1DsCt();
  const model::TaskInstance instance = dataset.Instance();
  core::PlannerConfig config = core::DefaultUniv1Config();
  config.sarsa.start_item = dataset.default_start;
  config.seed = 1000;  // a seed whose base plan is valid
  core::RlPlanner planner(instance, config);
  ASSERT_TRUE(planner.Train().ok());

  // A random batch mixing every feedback kind over random items.
  util::Rng rng(static_cast<std::uint64_t>(seed) * 7919u + 1u);
  FeedbackModel feedback(dataset.catalog.size(), /*smoothing=*/0.5);
  for (int i = 0; i < 24; ++i) {
    FeedbackEvent event;
    event.item =
        static_cast<model::ItemId>(rng.NextBounded(dataset.catalog.size()));
    switch (rng.NextInt(0, 2)) {
      case 0:
        event.kind = FeedbackKind::kBinary;
        event.value = rng.NextBernoulli(0.5) ? 1.0 : 0.0;
        break;
      case 1:
        event.kind = FeedbackKind::kRating;
        event.value = rng.NextDouble(1.0, 5.0);
        break;
      default:
        event.kind = FeedbackKind::kDistribution;
        event.distribution = {rng.NextDouble() + 0.01, rng.NextDouble(),
                              rng.NextDouble(), rng.NextDouble(),
                              rng.NextDouble()};
        break;
    }
    ASSERT_TRUE(feedback.Apply(event).ok());
  }

  const mdp::QTable shaped =
      FoldFeedback(planner.q_table(), feedback, /*strength=*/0.8);
  const mdp::RewardFunction reward(instance, config.reward);
  rl::SarsaLearnerT<mdp::QTable> learner(
      instance, reward, config.sarsa,
      config.seed + static_cast<std::uint64_t>(seed));
  const mdp::QTable retrained = learner.LearnFrom(shaped);

  rl::RecommendConfig recommend;
  recommend.start_item = dataset.default_start;
  recommend.gamma = config.sarsa.gamma;
  recommend.mask_type_overflow = config.sarsa.mask_type_overflow;
  const model::Plan plan =
      rl::RecommendPlan(retrained, instance, reward, recommend);
  const core::ValidationReport report = core::ValidatePlan(instance, plan);
  EXPECT_TRUE(report.valid)
      << "feedback batch seed " << seed
      << " broke hard-constraint satisfaction: " << report.violations.size()
      << " violated constraints";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FeedbackFoldPropertyTest,
                         ::testing::Range(1, 6));

}  // namespace
}  // namespace rlplanner::adaptive
