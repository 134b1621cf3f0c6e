// Tests for the RL layer: action masking, SARSA learning (Algorithm 1),
// greedy recommendation, and policy transfer.

#include <gtest/gtest.h>

#include <algorithm>

#include "datagen/course_data.h"
#include "datagen/synthetic.h"
#include "datagen/trip_data.h"
#include "mdp/cmdp.h"
#include "rl/action_mask.h"
#include "rl/policy_inspector.h"
#include "rl/recommender.h"
#include "rl/sarsa.h"
#include "rl/transfer.h"

namespace rlplanner::rl {
namespace {

mdp::RewardWeights ToyWeights() {
  mdp::RewardWeights weights;
  weights.epsilon = 1.0;
  return weights;
}

// ------------------------------------------------------------ ActionMask --

TEST(ActionMaskTest, DisallowsChosenItems) {
  datagen::Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  const mdp::RewardWeights weights = ToyWeights();
  const mdp::RewardFunction reward(instance, weights);
  const ActionMask mask(reward, 6, /*mask_type_overflow=*/true);
  mdp::EpisodeState state(instance);
  state.Add(0);
  EXPECT_FALSE(mask.Allowed(state, 0));
  EXPECT_TRUE(mask.Allowed(state, 1));
  EXPECT_TRUE(mask.AnyAllowed(state));
}

TEST(ActionMaskTest, ForcesPrimariesWhenSlotsRunOut) {
  // Toy: 3 primaries required in 6 slots. After 3 secondaries, only
  // primaries may be chosen.
  datagen::Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  const mdp::RewardWeights weights = ToyWeights();
  const mdp::RewardFunction reward(instance, weights);
  const ActionMask mask(reward, 6, true);
  mdp::EpisodeState state(instance);
  state.Add(1);  // m2 secondary
  state.Add(3);  // m4 secondary
  state.Add(4);  // m5 secondary
  // Remaining slots = 3, primaries owed = 3: every secondary is masked.
  for (const model::Item& item : dataset.catalog.items()) {
    if (state.Contains(item.id)) continue;
    if (item.type == model::ItemType::kSecondary) {
      EXPECT_FALSE(mask.Allowed(state, item.id)) << item.code;
    } else {
      EXPECT_TRUE(mask.Allowed(state, item.id)) << item.code;
    }
  }
}

TEST(ActionMaskTest, DisabledMaskOnlyChecksFeasibility) {
  datagen::Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  const mdp::RewardWeights weights = ToyWeights();
  const mdp::RewardFunction reward(instance, weights);
  const ActionMask mask(reward, 6, /*mask_type_overflow=*/false);
  mdp::EpisodeState state(instance);
  state.Add(1);
  state.Add(3);
  state.Add(4);
  // With masking off, the dead-end secondary choice is allowed (this is
  // what lets the EDA baseline walk into invalid splits).
  int allowed_secondaries = 0;
  for (const model::Item& item : dataset.catalog.items()) {
    if (!state.Contains(item.id) &&
        item.type == model::ItemType::kSecondary &&
        mask.Allowed(state, item.id)) {
      ++allowed_secondaries;
    }
  }
  EXPECT_EQ(allowed_secondaries, 0);  // toy has only 3 secondaries, all used
  EXPECT_TRUE(mask.Allowed(state, 0));
}

TEST(ActionMaskTest, TripMaskProtectsPrimaryReachability) {
  datagen::Dataset dataset = datagen::MakeNycTrip();
  const model::TaskInstance instance = dataset.Instance();
  mdp::RewardWeights weights;
  const mdp::RewardFunction reward(instance, weights);
  const ActionMask mask(reward, static_cast<int>(dataset.catalog.size()),
                        true);
  // From an empty state every prereq-free POI within budget should be fine.
  mdp::EpisodeState state(instance);
  EXPECT_TRUE(mask.AnyAllowed(state));
}

TEST(ActionMaskTest, BlocksActionsThatStrandAPendingCore) {
  // DS-CT has exactly 5 cores, so every core must be scheduled. CS 677
  // needs a math/stats elective at least `gap`=3 slots earlier; once the
  // episode is deep enough that no enabler could still precede CS 677 by
  // 3 slots, *any* non-enabling action must be masked.
  datagen::Dataset dataset = datagen::MakeUniv1DsCt();
  const model::TaskInstance instance = dataset.Instance();
  mdp::RewardWeights weights;
  const mdp::RewardFunction reward(instance, weights);
  const ActionMask mask(reward, /*horizon=*/10, true);

  auto id = [&](const char* code) {
    return dataset.catalog.FindByCode(code).value();
  };
  mdp::EpisodeState state(instance);
  // Six slots burned without any CS 677 enabler: 4 cores placed legally
  // (675 @0, 610 @1, 634 @4 via 610, 644 @5? needs 631/634 gap 3 — place
  // 644 last legal spot) — use non-enabler electives elsewhere.
  state.Add(id("CS 675"));   // 0 core
  state.Add(id("CS 610"));   // 1 core
  state.Add(id("CS 608"));   // 2 elective (not an enabler)
  state.Add(id("CS 630"));   // 3 elective
  state.Add(id("CS 634"));   // 4 core (610 @1, gap 3 ok)
  state.Add(id("CS 643"));   // 5 elective
  // Position 6 is next; remaining cores: CS 644 (needs 631 OR 634: 634@4,
  // 6-4=2 <3 — so 644 must go at >=7) and CS 677 (needs a math elective
  // >=3 earlier; none placed, so the enabler must go NOW at 6 for CS 677
  // to fit at 9). A non-enabling elective at slot 6 strands CS 677:
  EXPECT_FALSE(mask.Allowed(state, id("CS 639")));
  EXPECT_FALSE(mask.Allowed(state, id("IS 601")));
  // An enabling elective is allowed:
  EXPECT_TRUE(mask.Allowed(state, id("MATH 663")));
  EXPECT_TRUE(mask.Allowed(state, id("MATH 661")));
}

// Randomized old-vs-new equivalence: the word-level AllowedSet must agree
// bit-for-bit with the per-id Allowed() loop on every state a random
// admissible episode can reach, across both domains and both mask settings.
TEST(ActionMaskTest, AllowedSetMatchesPerIdScanOnRandomEpisodes) {
  const std::vector<datagen::Dataset> datasets = {
      datagen::MakeTableIIToy(), datagen::MakeUniv1DsCt(),
      datagen::MakeUniv2Ds(), datagen::MakeNycTrip()};
  util::Rng rng(2024);
  for (const datagen::Dataset& dataset : datasets) {
    const model::TaskInstance instance = dataset.Instance();
    mdp::RewardWeights weights;
    const mdp::RewardFunction reward(instance, weights);
    const int horizon =
        dataset.catalog.domain() == model::Domain::kTrip
            ? static_cast<int>(dataset.catalog.size())
            : instance.hard.TotalItems();
    for (const bool overflow_mask : {true, false}) {
      const ActionMask mask(reward, horizon, overflow_mask);
      util::DynamicBitset allowed(dataset.catalog.size());
      for (int episode = 0; episode < 8; ++episode) {
        mdp::EpisodeState state(instance);
        state.Add(static_cast<model::ItemId>(
            rng.NextIndex(dataset.catalog.size())));
        while (static_cast<int>(state.Length()) < horizon) {
          mask.AllowedSet(state, &allowed);
          std::vector<model::ItemId> expected;
          for (std::size_t i = 0; i < dataset.catalog.size(); ++i) {
            const auto item = static_cast<model::ItemId>(i);
            EXPECT_EQ(allowed.Test(i), mask.Allowed(state, item))
                << dataset.name << " item " << i << " at length "
                << state.Length();
            if (mask.Allowed(state, item)) expected.push_back(item);
          }
          ASSERT_EQ(allowed.Count(), expected.size());
          if (expected.empty()) break;
          state.Add(expected[rng.NextIndex(expected.size())]);
        }
      }
    }
  }
}

// ------------------------------------------------------------------ SARSA --

TEST(SarsaTest, LearnsNonTrivialQTableOnToy) {
  datagen::Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  const mdp::RewardWeights weights = ToyWeights();
  const mdp::RewardFunction reward(instance, weights);
  SarsaConfig config;
  config.num_episodes = 100;
  config.start_item = 0;
  SarsaLearner learner(instance, reward, config, 11);
  const mdp::QTable q = learner.Learn();
  EXPECT_GT(q.NonZeroFraction(), 0.05);
  EXPECT_GT(q.MaxAbsValue(), 0.0);
  EXPECT_EQ(learner.episode_returns().size(), 100u);
}

TEST(SarsaTest, EpisodeReturnsAreFiniteAndNonNegative) {
  datagen::Dataset dataset = datagen::MakeUniv1DsCt();
  const model::TaskInstance instance = dataset.Instance();
  mdp::RewardWeights weights;
  const mdp::RewardFunction reward(instance, weights);
  SarsaConfig config;
  config.num_episodes = 50;
  config.start_item = dataset.default_start;
  SarsaLearner learner(instance, reward, config, 5);
  (void)learner.Learn();
  for (double r : learner.episode_returns()) {
    EXPECT_GE(r, 0.0);
    EXPECT_LT(r, 1e6);
  }
}

TEST(SarsaTest, DeterministicForSameSeed) {
  datagen::Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  const mdp::RewardWeights weights = ToyWeights();
  const mdp::RewardFunction reward(instance, weights);
  SarsaConfig config;
  config.num_episodes = 60;
  config.start_item = 0;
  SarsaLearner a(instance, reward, config, 99);
  SarsaLearner b(instance, reward, config, 99);
  const mdp::QTable qa = a.Learn();
  const mdp::QTable qb = b.Learn();
  for (std::size_t s = 0; s < qa.num_items(); ++s) {
    for (std::size_t t = 0; t < qa.num_items(); ++t) {
      EXPECT_DOUBLE_EQ(qa.Get(s, t), qb.Get(s, t));
    }
  }
}

TEST(SarsaTest, HorizonMatchesDomain) {
  datagen::Dataset courses = datagen::MakeUniv1DsCt();
  const model::TaskInstance course_instance = courses.Instance();
  mdp::RewardWeights weights;
  const mdp::RewardFunction course_reward(course_instance, weights);
  SarsaConfig config;
  SarsaLearner course_learner(course_instance, course_reward, config);
  EXPECT_EQ(course_learner.Horizon(), 10);

  datagen::Dataset trips = datagen::MakeNycTrip();
  const model::TaskInstance trip_instance = trips.Instance();
  const mdp::RewardFunction trip_reward(trip_instance, weights);
  SarsaLearner trip_learner(trip_instance, trip_reward, config);
  EXPECT_EQ(trip_learner.Horizon(), 90);
}

// Policy iteration: with enough rounds the learner returns a policy whose
// greedy rollout satisfies every hard constraint, across seeds.
class SarsaSafetyTest : public ::testing::TestWithParam<int> {};

TEST_P(SarsaSafetyTest, GreedyRolloutSatisfiesHardConstraints) {
  datagen::Dataset dataset = datagen::MakeUniv1DsCt();
  const model::TaskInstance instance = dataset.Instance();
  mdp::RewardWeights weights;
  const mdp::RewardFunction reward(instance, weights);
  SarsaConfig config;
  config.num_episodes = 500;
  config.start_item = dataset.default_start;
  SarsaLearner learner(instance, reward, config,
                       static_cast<std::uint64_t>(GetParam()));
  const mdp::QTable q = learner.Learn();

  RecommendConfig recommend;
  recommend.start_item = dataset.default_start;
  const model::Plan plan = RecommendPlan(q, instance, reward, recommend);
  const mdp::CmdpSpec spec = mdp::CmdpSpec::FromInstance(instance);
  EXPECT_TRUE(spec.Satisfied(plan))
      << "seed " << GetParam() << ": " << plan.ToString(dataset.catalog);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SarsaSafetyTest, ::testing::Range(100, 110));

// TD update-rule variants: all three learn usable policies on the toy.
class UpdateRuleTest : public ::testing::TestWithParam<UpdateRule> {};

TEST_P(UpdateRuleTest, LearnsAndRecommendsValidToyPlan) {
  datagen::Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  const mdp::RewardWeights weights = ToyWeights();
  const mdp::RewardFunction reward(instance, weights);
  SarsaConfig config;
  config.num_episodes = 120;
  config.start_item = 0;
  config.update_rule = GetParam();
  SarsaLearner learner(instance, reward, config, 7);
  const mdp::QTable q = learner.Learn();
  EXPECT_GT(q.MaxAbsValue(), 0.0);

  RecommendConfig recommend;
  recommend.start_item = 0;
  const model::Plan plan = RecommendPlan(q, instance, reward, recommend);
  const mdp::CmdpSpec spec = mdp::CmdpSpec::FromInstance(instance);
  EXPECT_TRUE(spec.Satisfied(plan));
}

INSTANTIATE_TEST_SUITE_P(Rules, UpdateRuleTest,
                         ::testing::Values(UpdateRule::kSarsa,
                                           UpdateRule::kQLearning,
                                           UpdateRule::kExpectedSarsa));

TEST(UpdateRuleTest, RulesProduceDifferentTables) {
  datagen::Dataset dataset = datagen::MakeUniv1DsCt();
  const model::TaskInstance instance = dataset.Instance();
  mdp::RewardWeights weights;
  const mdp::RewardFunction reward(instance, weights);
  SarsaConfig config;
  config.num_episodes = 100;
  config.start_item = dataset.default_start;
  config.policy_rounds = 1;  // isolate the update rule

  auto learn = [&](UpdateRule rule) {
    SarsaConfig c = config;
    c.update_rule = rule;
    SarsaLearner learner(instance, reward, c, 5);
    return learner.Learn();
  };
  const mdp::QTable sarsa = learn(UpdateRule::kSarsa);
  const mdp::QTable qlearning = learn(UpdateRule::kQLearning);
  bool any_difference = false;
  for (std::size_t s = 0; s < sarsa.num_items() && !any_difference; ++s) {
    for (std::size_t a = 0; a < sarsa.num_items(); ++a) {
      if (std::abs(sarsa.Get(s, a) - qlearning.Get(s, a)) > 1e-9) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

// ------------------------------------------------------------ Beam search --

TEST(BeamSearchTest, DegenerateBeamEqualsGreedy) {
  datagen::Dataset dataset = datagen::MakeUniv1DsCt();
  const model::TaskInstance instance = dataset.Instance();
  mdp::RewardWeights weights;
  const mdp::RewardFunction reward(instance, weights);
  const mdp::QTable q(dataset.catalog.size());
  RecommendConfig config;
  config.start_item = dataset.default_start;
  BeamConfig beam;
  beam.width = 1;
  beam.expansion = 1;
  EXPECT_EQ(RecommendPlanBeam(q, instance, reward, config, beam),
            RecommendPlan(q, instance, reward, config));
}

TEST(BeamSearchTest, RespectsHorizonAndUniqueness) {
  datagen::Dataset dataset = datagen::MakeUniv1Cs();
  const model::TaskInstance instance = dataset.Instance();
  mdp::RewardWeights weights;
  const mdp::RewardFunction reward(instance, weights);
  const mdp::QTable q(dataset.catalog.size());
  RecommendConfig config;
  config.start_item = dataset.default_start;
  BeamConfig beam;
  const model::Plan plan =
      RecommendPlanBeam(q, instance, reward, config, beam);
  EXPECT_EQ(static_cast<int>(plan.size()), instance.hard.TotalItems());
  auto items = plan.items();
  std::sort(items.begin(), items.end());
  EXPECT_EQ(std::adjacent_find(items.begin(), items.end()), items.end());
  EXPECT_EQ(plan.at(0), dataset.default_start);
}

TEST(BeamSearchTest, TripBeamStaysWithinBudgets) {
  datagen::Dataset dataset = datagen::MakeNycTrip();
  const model::TaskInstance instance = dataset.Instance();
  mdp::RewardWeights weights;
  const mdp::RewardFunction reward(instance, weights);
  const mdp::QTable q(dataset.catalog.size());
  RecommendConfig config;
  config.start_item = dataset.default_start;
  BeamConfig beam;
  beam.width = 6;
  const model::Plan plan =
      RecommendPlanBeam(q, instance, reward, config, beam);
  EXPECT_LE(plan.TotalCredits(dataset.catalog),
            instance.hard.min_credits + 1e-9);
  EXPECT_LE(plan.TotalDistanceKm(dataset.catalog),
            instance.hard.distance_threshold_km + 1e-9);
}

TEST(BeamSearchTest, RespectsExclusions) {
  datagen::Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  const mdp::RewardWeights weights = ToyWeights();
  const mdp::RewardFunction reward(instance, weights);
  const mdp::QTable q(dataset.catalog.size());
  RecommendConfig config;
  config.start_item = 0;
  config.excluded = {2};  // never pick m3
  BeamConfig beam;
  const model::Plan plan =
      RecommendPlanBeam(q, instance, reward, config, beam);
  EXPECT_FALSE(plan.Contains(2));
}

// ------------------------------------------------------------ Recommender --

TEST(RecommenderTest, PlanStartsAtRequestedItemAndHasNoRepeats) {
  datagen::Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  const mdp::RewardWeights weights = ToyWeights();
  const mdp::RewardFunction reward(instance, weights);
  const mdp::QTable q(dataset.catalog.size());  // all-zero: reward tiebreak
  RecommendConfig config;
  config.start_item = 2;
  const model::Plan plan = RecommendPlan(q, instance, reward, config);
  ASSERT_FALSE(plan.empty());
  EXPECT_EQ(plan.at(0), 2);
  auto items = plan.items();
  std::sort(items.begin(), items.end());
  EXPECT_EQ(std::adjacent_find(items.begin(), items.end()), items.end());
}

TEST(RecommenderTest, CoursePlansHaveExactHorizonLength) {
  datagen::Dataset dataset = datagen::MakeUniv1DsCt();
  const model::TaskInstance instance = dataset.Instance();
  mdp::RewardWeights weights;
  const mdp::RewardFunction reward(instance, weights);
  const mdp::QTable q(dataset.catalog.size());
  RecommendConfig config;
  config.start_item = dataset.default_start;
  const model::Plan plan = RecommendPlan(q, instance, reward, config);
  EXPECT_EQ(static_cast<int>(plan.size()), instance.hard.TotalItems());
}

TEST(RecommenderTest, TripPlansRespectBudgets) {
  datagen::Dataset dataset = datagen::MakeNycTrip();
  const model::TaskInstance instance = dataset.Instance();
  mdp::RewardWeights weights;
  const mdp::RewardFunction reward(instance, weights);
  const mdp::QTable q(dataset.catalog.size());
  RecommendConfig config;
  config.start_item = dataset.default_start;
  const model::Plan plan = RecommendPlan(q, instance, reward, config);
  EXPECT_LE(plan.TotalCredits(dataset.catalog),
            instance.hard.min_credits + 1e-9);
  EXPECT_LE(plan.TotalDistanceKm(dataset.catalog),
            instance.hard.distance_threshold_km + 1e-9);
}

// -------------------------------------------------------- PolicyInspector --

TEST(PolicyInspectorTest, TopActionsSortedAndBounded) {
  datagen::Dataset dataset = datagen::MakeTableIIToy();
  mdp::QTable q(dataset.catalog.size());
  q.Set(0, 1, 3.0);
  q.Set(0, 2, 5.0);
  q.Set(0, 4, 1.0);
  const PolicyInspector inspector(q, dataset.catalog);
  const auto top = inspector.TopActions(0, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].to, 2);
  EXPECT_EQ(top[1].to, 1);
  EXPECT_GT(top[0].q_value, top[1].q_value);
  EXPECT_TRUE(inspector.TopActions(-1, 3).empty());
}

TEST(PolicyInspectorTest, TopTransitionsAcrossRows) {
  datagen::Dataset dataset = datagen::MakeTableIIToy();
  mdp::QTable q(dataset.catalog.size());
  q.Set(0, 1, 1.0);
  q.Set(3, 4, 9.0);
  q.Set(2, 5, 4.0);
  const PolicyInspector inspector(q, dataset.catalog);
  const auto top = inspector.TopTransitions(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].from, 3);
  EXPECT_EQ(top[1].from, 2);
}

TEST(PolicyInspectorTest, GreedySuccessorsAndDot) {
  datagen::Dataset dataset = datagen::MakeTableIIToy();
  mdp::QTable q(dataset.catalog.size());
  q.Set(0, 3, 2.0);
  q.Set(0, 1, 1.0);
  const PolicyInspector inspector(q, dataset.catalog);
  const auto successors = inspector.GreedySuccessors();
  EXPECT_EQ(successors[0], 3);
  EXPECT_EQ(successors[1], -1);  // all-zero row

  const std::string dot = inspector.ToDot(5);
  EXPECT_NE(dot.find("digraph policy"), std::string::npos);
  EXPECT_NE(dot.find("m1"), std::string::npos);  // node label = item code
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(PolicyInspectorTest, TrainedPolicyHasMeaningfulStructure) {
  datagen::Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  const mdp::RewardWeights weights = ToyWeights();
  const mdp::RewardFunction reward(instance, weights);
  SarsaConfig config;
  config.num_episodes = 150;
  config.start_item = 0;
  SarsaLearner learner(instance, reward, config, 3);
  const mdp::QTable q = learner.Learn();
  const PolicyInspector inspector(q, dataset.catalog);
  EXPECT_FALSE(inspector.TopTransitions(10).empty());
}

void ExpectSameEdges(const std::vector<PolicyEdge>& a,
                     const std::vector<PolicyEdge>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].from, b[i].from) << "edge " << i;
    EXPECT_EQ(a[i].to, b[i].to) << "edge " << i;
    EXPECT_EQ(a[i].q_value, b[i].q_value) << "edge " << i;
  }
}

TEST(PolicyInspectorTest, SparseTableInspectsLikeItsDenseTwin) {
  // Both learners train bit-identical tables from one seed; the inspector
  // reads only their non-zero cells, so every query must agree.
  datagen::Dataset dataset = datagen::MakeUniv1DsCt();
  const model::TaskInstance instance = dataset.Instance();
  const mdp::RewardWeights weights;
  const mdp::RewardFunction reward(instance, weights);
  SarsaConfig config;
  config.num_episodes = 200;
  config.start_item = dataset.default_start;
  SarsaLearner dense_learner(instance, reward, config, 5);
  SparseSarsaLearner sparse_learner(instance, reward, config, 5);
  const mdp::QTable dense = dense_learner.Learn();
  const mdp::SparseQTable sparse = sparse_learner.Learn();
  const PolicyInspector from_dense(dense, dataset.catalog);
  const PolicyInspector from_sparse(sparse, dataset.catalog);

  ASSERT_FALSE(from_dense.TopTransitions(-1).empty());
  ExpectSameEdges(from_sparse.TopTransitions(-1),
                  from_dense.TopTransitions(-1));
  ExpectSameEdges(from_sparse.TopTransitions(12),
                  from_dense.TopTransitions(12));
  for (std::size_t s = 0; s < dataset.catalog.size(); ++s) {
    const auto state = static_cast<model::ItemId>(s);
    ExpectSameEdges(from_sparse.TopActions(state, -1),
                    from_dense.TopActions(state, -1));
    ExpectSameEdges(from_sparse.TopActions(state, 3),
                    from_dense.TopActions(state, 3));
  }
  EXPECT_EQ(from_sparse.GreedySuccessors(), from_dense.GreedySuccessors());
  EXPECT_EQ(from_sparse.ToDot(40), from_dense.ToDot(40));
}

// --------------------------------------------------------------- Transfer --

TEST(TransferTest, SharedCodesMapDirectly) {
  const datagen::Dataset ds = datagen::MakeUniv1DsCt();
  const datagen::Dataset cs = datagen::MakeUniv1Cs();
  const auto match = PolicyTransfer::MatchByTopics(ds.catalog, cs.catalog);
  ASSERT_EQ(match.size(), cs.catalog.size());
  // CS 675 exists in both programs and must map to itself by code.
  const auto target_id = cs.catalog.FindByCode("CS 675").value();
  const auto source_id = ds.catalog.FindByCode("CS 675").value();
  EXPECT_EQ(match[target_id], source_id);
}

TEST(TransferTest, DisjointCatalogsMapByThemeSimilarity) {
  const datagen::Dataset nyc = datagen::MakeNycTrip();
  const datagen::Dataset paris = datagen::MakeParisTrip();
  const auto match = PolicyTransfer::MatchByTopics(nyc.catalog, paris.catalog);
  // The Louvre (museum + art gallery + architecture) should map to a NYC
  // POI that is at least a museum.
  const auto louvre = paris.catalog.FindByCode("louvre museum").value();
  ASSERT_GE(match[louvre], 0);
  const model::Item& mapped = nyc.catalog.item(match[louvre]);
  EXPECT_TRUE(mapped.topics.Test(
      static_cast<std::size_t>(nyc.catalog.TopicId("museum"))));
}

TEST(TransferTest, MappedTablePullsSourceValues) {
  const datagen::Dataset nyc = datagen::MakeNycTrip();
  const datagen::Dataset paris = datagen::MakeParisTrip();
  mdp::QTable source(nyc.catalog.size());
  const auto match = PolicyTransfer::MatchByTopics(nyc.catalog, paris.catalog);
  // Put a recognizable value on one mapped pair.
  model::ItemId s = -1;
  model::ItemId a = -1;
  for (std::size_t i = 0; i < match.size() && (s < 0 || a < 0); ++i) {
    if (match[i] >= 0) {
      if (s < 0) {
        s = static_cast<model::ItemId>(i);
      } else if (match[i] != match[s]) {
        a = static_cast<model::ItemId>(i);
      }
    }
  }
  ASSERT_GE(s, 0);
  ASSERT_GE(a, 0);
  source.Set(match[s], match[a], 0.77);
  const mdp::QTable mapped =
      PolicyTransfer::MapAcrossCatalogs(source, nyc.catalog, paris.catalog);
  EXPECT_DOUBLE_EQ(mapped.Get(s, a), 0.77);
  // Diagonal is never populated.
  EXPECT_DOUBLE_EQ(mapped.Get(s, s), 0.0);
}

TEST(TransferTest, SyntheticSelfTransferIsIdentity) {
  datagen::SyntheticSpec spec;
  spec.num_items = 20;
  spec.seed = 31;
  const datagen::Dataset dataset = datagen::GenerateSynthetic(spec);
  const auto match =
      PolicyTransfer::MatchByTopics(dataset.catalog, dataset.catalog);
  for (std::size_t i = 0; i < match.size(); ++i) {
    EXPECT_EQ(match[i], static_cast<model::ItemId>(i));
  }
}

}  // namespace
}  // namespace rlplanner::rl
