// Tests for the MDP layer: episode state, reward components r1/r2/theta and
// the full Eq. 2 reward — including the paper's Section III-B worked
// examples on the Table II toy catalog.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "datagen/course_data.h"
#include "datagen/synthetic.h"
#include "datagen/trip_data.h"
#include "geo/latlng.h"
#include "mdp/episode_state.h"
#include "mdp/reward.h"
#include "mdp/similarity.h"
#include "model/topic_vector.h"
#include "rl/recommender.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace rlplanner::mdp {
namespace {

class ToyRewardTest : public ::testing::Test {
 protected:
  ToyRewardTest()
      : dataset_(datagen::MakeTableIIToy()),
        instance_(dataset_.Instance()) {
    weights_.epsilon = 1.0;  // Example 1: absolute threshold of 1 topic
    weights_.delta = 0.8;
    weights_.beta = 0.2;
    weights_.category_weights = {0.6, 0.4};
  }

  model::ItemId Id(const char* code) {
    return dataset_.catalog.FindByCode(code).value();
  }

  datagen::Dataset dataset_;
  model::TaskInstance instance_;
  RewardWeights weights_;
};

TEST_F(ToyRewardTest, EpisodeStateTracksEverything) {
  EpisodeState state(instance_);
  EXPECT_TRUE(state.Empty());
  EXPECT_EQ(state.CurrentItem(), -1);
  state.Add(Id("m1"));
  state.Add(Id("m2"));
  EXPECT_EQ(state.Length(), 2u);
  EXPECT_EQ(state.CurrentItem(), Id("m2"));
  EXPECT_TRUE(state.Contains(Id("m1")));
  EXPECT_FALSE(state.Contains(Id("m3")));
  EXPECT_EQ(state.primary_count(), 1);
  EXPECT_EQ(state.secondary_count(), 1);
  EXPECT_DOUBLE_EQ(state.total_credits(), 6.0);
  // m1 covers algorithms+data structure, m2 classification+clustering.
  EXPECT_EQ(state.covered_topics().Count(), 4u);
  EXPECT_EQ(state.position_of()[Id("m1")], 0);
  EXPECT_EQ(state.ToPlan().size(), 2u);
}

TEST_F(ToyRewardTest, ChosenItemsBitsetTracksPositionOf) {
  // chosen_items() is the word-level mirror of position_of(); candidate
  // scans seed from its complement, so the two must stay in lockstep.
  EpisodeState state(instance_);
  EXPECT_EQ(state.chosen_items().size(), instance_.catalog->size());
  EXPECT_EQ(state.chosen_items().Count(), 0u);
  state.Add(Id("m1"));
  state.Add(Id("m3"));
  EXPECT_EQ(state.chosen_items().Count(), 2u);
  for (std::size_t i = 0; i < instance_.catalog->size(); ++i) {
    EXPECT_EQ(state.chosen_items().Test(i),
              state.position_of()[i] >= 0)
        << "item " << i;
  }
}

TEST_F(ToyRewardTest, PaperTopicCoverageExample) {
  // Paper: with epsilon=1 and T_ideal from Example 1, s2(m2)->s4(m4) has
  // r1=1 but s2(m2)->s5(m5) has r1=0 (Big Data adds no ideal topic).
  const RewardFunction reward(instance_, weights_);
  EpisodeState state(instance_);
  state.Add(Id("m2"));
  EXPECT_EQ(reward.TopicCoverageReward(state, Id("m4")), 1);
  EXPECT_EQ(reward.TopicCoverageReward(state, Id("m5")), 0);
}

TEST_F(ToyRewardTest, TopicRewardCountsOnlyNewIdealTopics) {
  const RewardFunction reward(instance_, weights_);
  EpisodeState state(instance_);
  state.Add(Id("m2"));  // already covers classification+clustering
  state.Add(Id("m4"));  // linear system, matrix decomposition
  // m6 covers classification, clustering, regression, neural network: only
  // neural network is a *new* ideal topic -> still >= 1.
  EXPECT_EQ(reward.TopicCoverageReward(state, Id("m6")), 1);
}

TEST_F(ToyRewardTest, PrerequisiteRewardOrGroup) {
  // m5 requires (m2 OR m3) with gap 1.
  const RewardFunction reward(instance_, weights_);
  EpisodeState with_m2(instance_);
  with_m2.Add(Id("m2"));
  EXPECT_EQ(reward.PrerequisiteReward(with_m2, Id("m5")), 1);

  EpisodeState with_m3(instance_);
  with_m3.Add(Id("m3"));
  EXPECT_EQ(reward.PrerequisiteReward(with_m3, Id("m5")), 1);

  EpisodeState with_neither(instance_);
  with_neither.Add(Id("m1"));
  EXPECT_EQ(reward.PrerequisiteReward(with_neither, Id("m5")), 0);
}

TEST_F(ToyRewardTest, PrerequisiteRewardAndGroup) {
  // m6 requires m4 AND m2.
  const RewardFunction reward(instance_, weights_);
  EpisodeState both(instance_);
  both.Add(Id("m4"));
  both.Add(Id("m2"));
  EXPECT_EQ(reward.PrerequisiteReward(both, Id("m6")), 1);

  EpisodeState only_one(instance_);
  only_one.Add(Id("m4"));
  EXPECT_EQ(reward.PrerequisiteReward(only_one, Id("m6")), 0);
}

TEST_F(ToyRewardTest, ThetaIsProductOfR1AndR2) {
  const RewardFunction reward(instance_, weights_);
  EpisodeState state(instance_);
  state.Add(Id("m2"));
  // m5: r2=1 (m2 present) but r1=0 -> theta 0.
  EXPECT_EQ(reward.Theta(state, Id("m5")), 0);
  // m4: r1=1, no prereqs -> theta 1.
  EXPECT_EQ(reward.Theta(state, Id("m4")), 1);
}

TEST_F(ToyRewardTest, RewardZeroWhenThetaZero) {
  const RewardFunction reward(instance_, weights_);
  EpisodeState state(instance_);
  state.Add(Id("m2"));
  EXPECT_DOUBLE_EQ(reward.Reward(state, Id("m5")), 0.0);
}

TEST_F(ToyRewardTest, RewardCombinesSimilarityAndTypeWeight) {
  const RewardFunction reward(instance_, weights_);
  EpisodeState state(instance_);
  state.Add(Id("m1"));  // primary
  // Adding m2 (secondary): extended sequence PS.
  const double sim = reward.InterleavingSimilarity(state, Id("m2"));
  const double expected = weights_.delta * sim + weights_.beta * 0.4;
  EXPECT_DOUBLE_EQ(reward.Reward(state, Id("m2")), expected);
  EXPECT_DOUBLE_EQ(reward.TypeWeight(Id("m1")), 0.6);
  EXPECT_DOUBLE_EQ(reward.TypeWeight(Id("m2")), 0.4);
}

TEST_F(ToyRewardTest, FeasibilityBlocksRepeats) {
  const RewardFunction reward(instance_, weights_);
  EpisodeState state(instance_);
  state.Add(Id("m1"));
  EXPECT_FALSE(reward.IsFeasible(state, Id("m1")));
  EXPECT_TRUE(reward.IsFeasible(state, Id("m2")));
}

TEST(RewardWeightsTest, ValidateSimplexConditions) {
  RewardWeights ok;
  EXPECT_TRUE(ok.Validate().ok());

  RewardWeights bad_sum = ok;
  bad_sum.delta = 0.9;  // delta+beta != 1
  EXPECT_FALSE(bad_sum.Validate().ok());

  RewardWeights bad_weights = ok;
  bad_weights.category_weights = {0.9, 0.9};
  EXPECT_FALSE(bad_weights.Validate().ok());

  RewardWeights negative = ok;
  negative.epsilon = -0.1;
  EXPECT_FALSE(negative.Validate().ok());

  RewardWeights empty = ok;
  empty.category_weights.clear();
  EXPECT_FALSE(empty.Validate().ok());
}

TEST(RewardEpsilonTest, FractionalEpsilonScalesWithVocabulary) {
  // Univ-1 style: |T| = 60, epsilon = 0.0025 -> ceil(0.15) = 1 topic;
  // epsilon = 0.02 -> ceil(1.2) = 2 topics.
  datagen::Dataset dataset = datagen::MakeUniv1DsCt();
  const model::TaskInstance instance = dataset.Instance();
  RewardWeights weights;
  weights.epsilon = 0.0025;
  const RewardFunction one(instance, weights);
  EXPECT_EQ(one.RequiredNewIdealTopics(), 1u);
  RewardWeights weights2 = weights;
  weights2.epsilon = 0.02;
  const RewardFunction two(instance, weights2);
  EXPECT_EQ(two.RequiredNewIdealTopics(), 2u);
  RewardWeights weights3 = weights;
  weights3.epsilon = 3.0;  // absolute when >= 1
  const RewardFunction three(instance, weights3);
  EXPECT_EQ(three.RequiredNewIdealTopics(), 3u);
}

TEST(TripRewardTest, TimeBudgetGatesFeasibility) {
  datagen::Dataset dataset = datagen::MakeNycTrip();
  const model::TaskInstance instance = dataset.Instance();
  RewardWeights weights;
  const RewardFunction reward(instance, weights);
  EpisodeState state(instance);
  // Fill the 6-hour budget.
  double used = 0.0;
  for (const model::Item& item : dataset.catalog.items()) {
    if (used + item.credits > 5.0) continue;
    if (state.Contains(item.id)) continue;
    state.Add(item.id);
    used += item.credits;
    if (used > 4.5) break;
  }
  // Any POI longer than the remaining budget must be infeasible.
  for (const model::Item& item : dataset.catalog.items()) {
    if (state.Contains(item.id)) continue;
    if (state.total_credits() + item.credits > 6.0 + 1e-9) {
      EXPECT_FALSE(reward.IsFeasible(state, item.id));
    }
  }
}

TEST(TripRewardTest, ConsecutiveSameThemeBlocksR2) {
  datagen::Dataset dataset = datagen::MakeNycTrip();
  const model::TaskInstance instance = dataset.Instance();
  RewardWeights weights;
  const RewardFunction reward(instance, weights);

  // Find two POIs sharing a primary theme and no prerequisites.
  model::ItemId first = -1;
  model::ItemId second = -1;
  for (const model::Item& a : dataset.catalog.items()) {
    if (!a.prereqs.empty() || a.primary_theme < 0) continue;
    for (const model::Item& b : dataset.catalog.items()) {
      if (a.id == b.id || !b.prereqs.empty()) continue;
      if (a.primary_theme == b.primary_theme) {
        first = a.id;
        second = b.id;
        break;
      }
    }
    if (first >= 0) break;
  }
  ASSERT_GE(first, 0);
  EpisodeState state(instance);
  state.Add(first);
  EXPECT_EQ(reward.PrerequisiteReward(state, second), 0);
}

TEST_F(ToyRewardTest, DeltaBetaExtremesIsolateTerms) {
  // delta=1: reward equals the similarity term; beta=1: reward equals the
  // type weight (when theta=1).
  mdp::RewardWeights only_similarity = weights_;
  only_similarity.delta = 1.0;
  only_similarity.beta = 0.0;
  const RewardFunction sim_reward(instance_, only_similarity);
  EpisodeState state(instance_);
  state.Add(Id("m1"));
  EXPECT_DOUBLE_EQ(sim_reward.Reward(state, Id("m2")),
                   sim_reward.InterleavingSimilarity(state, Id("m2")));

  mdp::RewardWeights only_type = weights_;
  only_type.delta = 0.0;
  only_type.beta = 1.0;
  const RewardFunction type_reward(instance_, only_type);
  EXPECT_DOUBLE_EQ(type_reward.Reward(state, Id("m2")), 0.4);
  // A theta-positive primary: enable m6 (needs m4 AND m2; adds the ideal
  // topic "neural network").
  EpisodeState enabled(instance_);
  enabled.Add(Id("m4"));
  enabled.Add(Id("m2"));
  EXPECT_DOUBLE_EQ(type_reward.Reward(enabled, Id("m6")), 0.6);
}

TEST_F(ToyRewardTest, MinSimilarityModeUsedInReward) {
  mdp::RewardWeights min_weights = weights_;
  min_weights.similarity = SimilarityMode::kMinimum;
  const RewardFunction min_reward(instance_, min_weights);
  const RewardFunction avg_reward(instance_, weights_);
  EpisodeState state(instance_);
  state.Add(Id("m1"));
  EXPECT_LE(min_reward.InterleavingSimilarity(state, Id("m2")),
            avg_reward.InterleavingSimilarity(state, Id("m2")) + 1e-12);
}

TEST(Univ2RewardTest, SixCategoryWeightsApply) {
  datagen::Dataset dataset = datagen::MakeUniv2Ds();
  const model::TaskInstance instance = dataset.Instance();
  mdp::RewardWeights weights;
  weights.category_weights = {0.25, 0.01, 0.15, 0.42, 0.01, 0.16};
  const RewardFunction reward(instance, weights);
  // CS 229 is category 3 (applied ML), STATS 390 category 4 (practical).
  const auto cs229 = dataset.catalog.FindByCode("CS 229").value();
  const auto stats390 = dataset.catalog.FindByCode("STATS 390").value();
  EXPECT_DOUBLE_EQ(reward.TypeWeight(cs229), 0.42);
  EXPECT_DOUBLE_EQ(reward.TypeWeight(stats390), 0.01);
  // Out-of-range categories get weight 0 rather than UB.
  mdp::RewardWeights two_weights;
  const RewardFunction short_reward(instance, two_weights);
  EXPECT_DOUBLE_EQ(short_reward.TypeWeight(cs229), 0.0);
}

TEST_F(ToyRewardTest, ThetaShortCircuitsPrereqCheck) {
  // When r1 = 0 the theta product is 0 regardless of r2; exercised by an
  // item whose topics are fully covered AND whose prereqs are unmet.
  const RewardFunction reward(instance_, weights_);
  EpisodeState state(instance_);
  state.Add(Id("m2"));  // covers classification+clustering
  state.Add(Id("m4"));  // linear system etc.
  // m5: adds no new ideal topic (r1=0) and its r2 is satisfied (m2 there).
  EXPECT_EQ(reward.Theta(state, Id("m5")), 0);
}

// ------------------------------------------------------ reward classes --

// Datasets covering prerequisites (Univ-2), the trip theme rule (NYC,
// Paris) and a sparse synthetic catalog.
std::vector<datagen::Dataset> ClassTestDatasets() {
  datagen::SyntheticSpec spec;
  spec.num_items = 300;
  spec.vocab_size = 200;
  spec.prereq_probability = 0.4;
  std::vector<datagen::Dataset> datasets;
  datasets.push_back(datagen::MakeUniv2Ds());
  datasets.push_back(datagen::MakeNycTrip());
  datasets.push_back(datagen::MakeParisTrip());
  datasets.push_back(datagen::GenerateSynthetic(spec));
  return datasets;
}

// The free-function references of Eq. 3-5 and Eq. 2: the newly covered
// ideal topics counted directly, and AggSim recomputed over the type
// sequence extended by the candidate.
int ReferenceTheta(const model::TaskInstance& instance,
                   const RewardFunction& reward, const EpisodeState& state,
                   model::ItemId item) {
  const std::size_t gained = model::NewlyCoveredIdealTopics(
      state.covered_topics(), instance.catalog->item(item).topics,
      instance.soft.ideal_topics);
  if (gained < reward.RequiredNewIdealTopics()) return 0;
  return reward.PrerequisiteReward(state, item);
}

double ReferenceReward(const model::TaskInstance& instance,
                       const RewardWeights& weights,
                       const RewardFunction& reward, const EpisodeState& state,
                       model::ItemId item) {
  if (ReferenceTheta(instance, reward, state, item) == 0) return 0.0;
  model::TypeSequence extended = state.type_sequence();
  extended.push_back(instance.catalog->item(item).type);
  return weights.delta * AggregateSimilarity(extended,
                                             instance.soft.interleaving,
                                             weights.similarity) +
         weights.beta * reward.TypeWeight(item);
}

// ------------------------------------------------- incremental theta --

// rl::StepRanker keeps the theta = 1 set across Score calls and updates it
// per action. Whatever order states reach it in, each candidate's theta, as
// Ranked() reports it, must equal the per-item Theta and the reference.
struct IncrementalThetaParam {
  const char* dataset;
  double epsilon;
  int gap;
  bool quarter_ideal;  // T_ideal = a quarter of the vocabulary
  // Build the reward as a per-user T_ideal override does: on the catalog
  // index of a reward over the dataset's own T_ideal.
  bool shared_index;
};

datagen::Dataset MakeNamedDataset(const std::string& name) {
  if (name == "univ1_dsct") return datagen::MakeUniv1DsCt();
  if (name == "univ2_ds") return datagen::MakeUniv2Ds();
  if (name == "nyc") return datagen::MakeNycTrip();
  if (name == "paris") return datagen::MakeParisTrip();
  datagen::SyntheticSpec spec;
  spec.num_items = 300;
  spec.vocab_size = 200;
  spec.prereq_probability = 0.4;
  return datagen::GenerateSynthetic(spec);
}

class IncrementalThetaTest
    : public ::testing::TestWithParam<IncrementalThetaParam> {
 protected:
  IncrementalThetaTest() : dataset_(MakeNamedDataset(GetParam().dataset)) {
    instance_ = dataset_.Instance();
    instance_.hard.gap = GetParam().gap;
    const model::TaskInstance dataset_instance = instance_;
    if (GetParam().quarter_ideal) {
      const std::size_t vocabulary = dataset_.catalog.vocabulary_size();
      std::vector<std::size_t> topics(vocabulary);
      for (std::size_t t = 0; t < vocabulary; ++t) topics[t] = t;
      util::Rng rng(7);
      rng.Shuffle(topics);
      instance_.soft.ideal_topics = model::TopicVector(vocabulary);
      for (std::size_t t = 0; t < vocabulary / 4; ++t) {
        instance_.soft.ideal_topics.Set(topics[t]);
      }
    }
    weights_.epsilon = GetParam().epsilon;
    if (GetParam().shared_index) {
      // The base goes out of scope here; the override keeps its index.
      const RewardFunction base(dataset_instance, weights_);
      reward_ = std::make_unique<RewardFunction>(instance_, base);
    } else {
      reward_ = std::make_unique<RewardFunction>(instance_, weights_);
    }
    for (const model::Item& item : dataset_.catalog.items()) {
      for (model::ItemId antecedent : item.prereqs.ReferencedItems()) {
        antecedents_.push_back(antecedent);
      }
    }
  }

  // Scores `state` over a random ~70% of its unchosen items and checks the
  // theta of every candidate.
  void ExpectExactTheta(rl::StepRanker& ranker, const EpisodeState& state,
                        util::Rng& rng) {
    const std::size_t n = dataset_.catalog.size();
    util::DynamicBitset candidates(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (!state.Contains(static_cast<model::ItemId>(i)) &&
          rng.NextDouble() < 0.7) {
        candidates.Set(i);
      }
    }
    ranker.Score(state, candidates);
    const std::vector<rl::RankedCandidate> ranked =
        ranker.Ranked([](model::ItemId) { return 0.0; });
    ASSERT_EQ(ranked.size(), candidates.Count());
    for (const rl::RankedCandidate& candidate : ranked) {
      ASSERT_TRUE(candidates.Test(static_cast<std::size_t>(candidate.item)));
      const int theta = ReferenceTheta(instance_, *reward_, state,
                                       candidate.item);
      EXPECT_EQ(reward_->Theta(state, candidate.item), theta);
      EXPECT_EQ(candidate.theta, theta)
          << "step " << state.Length() << ", item " << candidate.item;
    }
  }

  // Appends a random unchosen item — an antecedent half of the time, so
  // gaps elapse and dependents turn admissible within a short episode.
  void AddRandomItem(EpisodeState& state, util::Rng& rng) {
    const std::size_t n = dataset_.catalog.size();
    for (int attempt = 0; attempt < 8 && !antecedents_.empty(); ++attempt) {
      if (!rng.NextBernoulli(0.5)) break;
      const model::ItemId item =
          antecedents_[rng.NextIndex(antecedents_.size())];
      if (!state.Contains(item)) {
        state.Add(item);
        return;
      }
    }
    model::ItemId item;
    do {
      item = static_cast<model::ItemId>(rng.NextIndex(n));
    } while (state.Contains(item));
    state.Add(item);
  }

  std::size_t EpisodeLength() const {
    return std::min<std::size_t>(dataset_.catalog.size() / 2, 14);
  }

  datagen::Dataset dataset_;
  model::TaskInstance instance_;
  RewardWeights weights_;
  std::unique_ptr<RewardFunction> reward_;
  std::vector<model::ItemId> antecedents_;
};

TEST_P(IncrementalThetaTest, ScoreEveryStep) {
  for (std::uint64_t run = 1; run <= 4; ++run) {
    util::Rng rng(run);
    rl::StepRanker ranker(*reward_);
    EpisodeState state(instance_);
    while (true) {
      ExpectExactTheta(ranker, state, rng);
      if (state.Length() == EpisodeLength()) break;
      AddRandomItem(state, rng);
    }
  }
}

// Exploring training steps skip Score, so one Score may apply several
// actions at once.
TEST_P(IncrementalThetaTest, ScoreEveryOtherStep) {
  for (std::uint64_t run = 1; run <= 4; ++run) {
    util::Rng rng(run);
    rl::StepRanker ranker(*reward_);
    EpisodeState state(instance_);
    AddRandomItem(state, rng);
    while (state.Length() < EpisodeLength()) {
      if (state.Length() % 2 == run % 2) ExpectExactTheta(ranker, state, rng);
      AddRandomItem(state, rng);
    }
    ExpectExactTheta(ranker, state, rng);
  }
}

// Beam search scores the entries of one step in turn on one ranker: each
// entry's sequence diverges from the one scored before it.
TEST_P(IncrementalThetaTest, AlternateTwoDivergingStates) {
  for (std::uint64_t run = 1; run <= 4; ++run) {
    util::Rng rng(run);
    rl::StepRanker ranker(*reward_);
    EpisodeState first(instance_);
    for (int i = 0; i < 3; ++i) AddRandomItem(first, rng);
    ExpectExactTheta(ranker, first, rng);
    EpisodeState second = first;
    while (second.Length() < EpisodeLength()) {
      AddRandomItem(first, rng);
      AddRandomItem(second, rng);
      ExpectExactTheta(ranker, first, rng);
      ExpectExactTheta(ranker, second, rng);
    }
  }
}

// The T_ideal sets incremental theta starts from equal a full build's, however
// the reward was built.
TEST_P(IncrementalThetaTest, IdealTopicSetsMatchAFullBuild) {
  const RewardFunction full(instance_, weights_);
  EXPECT_EQ(reward_->IdealTopicCounts(), full.IdealTopicCounts());
  EXPECT_TRUE(reward_->InitialCoverageItems() == full.InitialCoverageItems());
}

// Training and the safety rollout run episode after episode on one ranker.
TEST_P(IncrementalThetaTest, NewEpisodesOnOneRanker) {
  util::Rng rng(11);
  rl::StepRanker ranker(*reward_);
  for (int episode = 0; episode < 4; ++episode) {
    EpisodeState state(instance_);
    AddRandomItem(state, rng);
    while (true) {
      ExpectExactTheta(ranker, state, rng);
      if (state.Length() == EpisodeLength()) break;
      AddRandomItem(state, rng);
    }
  }
}

std::vector<IncrementalThetaParam> IncrementalThetaMatrix() {
  std::vector<IncrementalThetaParam> params;
  for (const char* dataset :
       {"univ1_dsct", "univ2_ds", "nyc", "paris", "synthetic"}) {
    for (double epsilon : {RewardWeights().epsilon, 2.0}) {
      for (int gap : {1, 2, 3, 5}) {
        for (bool quarter_ideal : {false, true}) {
          for (bool shared_index : {false, true}) {
            params.push_back(
                {dataset, epsilon, gap, quarter_ideal, shared_index});
          }
        }
      }
    }
  }
  return params;
}

std::string IncrementalThetaName(
    const ::testing::TestParamInfo<IncrementalThetaParam>& info) {
  const IncrementalThetaParam& p = info.param;
  return std::string(p.dataset) +
         (p.epsilon >= 1.0 ? "_eps2" : "_epsdefault") + "_gap" +
         std::to_string(p.gap) +
         (p.quarter_ideal ? "_quarterideal" : "_fullideal") +
         (p.shared_index ? "_sharedindex" : "");
}

INSTANTIATE_TEST_SUITE_P(Matrix, IncrementalThetaTest,
                         ::testing::ValuesIn(IncrementalThetaMatrix()),
                         IncrementalThetaName);

TEST(RewardClassTest, ClassesPartitionTheCatalogAndCarryItsReward) {
  for (const datagen::Dataset& dataset : ClassTestDatasets()) {
    SCOPED_TRACE(dataset.name);
    const model::TaskInstance instance = dataset.Instance();
    const std::size_t n = dataset.catalog.size();
    RewardWeights weights;
    // Three weights for catalogs of two or six categories: both an
    // out-of-range bucket and unused weights occur.
    weights.category_weights = {0.5, 0.3, 0.2};
    const RewardFunction reward(instance, weights);
    ASSERT_LE(reward.num_reward_classes(), 2u * (3 + 1));
    util::DynamicBitset covered(n);
    for (std::size_t c = 0; c < reward.num_reward_classes(); ++c) {
      const util::DynamicBitset& items = reward.RewardClassItems(c);
      EXPECT_TRUE(items.Any());
      EXPECT_FALSE(items.Intersects(covered));
      covered |= items;
    }
    EXPECT_EQ(covered.Count(), n);

    EpisodeState state(instance);
    state.Add(dataset.default_start);
    for (std::size_t i = 0; i < n; ++i) {
      const auto item = static_cast<model::ItemId>(i);
      const std::size_t c = reward.RewardClassOf(item);
      EXPECT_TRUE(reward.RewardClassItems(c).Test(i));
      const auto first_id =
          static_cast<model::ItemId>(reward.RewardClassItems(c).FindNext(0));
      const model::Item& first = dataset.catalog.item(first_id);
      const model::Item& it = dataset.catalog.item(item);
      EXPECT_EQ(it.type, first.type);
      EXPECT_EQ(reward.TypeWeight(item), reward.TypeWeight(first.id));
      EXPECT_EQ(reward.Reward(state, item),
                reward.Theta(state, item) == 1 ? reward.ClassReward(state, c)
                                               : 0.0);
      EXPECT_EQ(reward.Reward(state, item),
                ReferenceReward(instance, weights, reward, state, item));
    }
  }
}

// The trip-domain distance matrix serves exactly the haversine of each
// pair of locations.
TEST(RewardDistanceTest, DistanceKmMatchesHaversineOnEveryPair) {
  for (const datagen::Dataset& dataset :
       {datagen::MakeNycTrip(), datagen::MakeParisTrip()}) {
    SCOPED_TRACE(dataset.name);
    const model::TaskInstance instance = dataset.Instance();
    const RewardWeights weights;
    const RewardFunction reward(instance, weights);
    const auto n = static_cast<model::ItemId>(dataset.catalog.size());
    for (model::ItemId a = 0; a < n; ++a) {
      for (model::ItemId b = 0; b < n; ++b) {
        EXPECT_EQ(reward.DistanceKm(a, b),
                  geo::HaversineKm(dataset.catalog.item(a).location,
                                   dataset.catalog.item(b).location))
            << a << " -> " << b;
      }
    }
  }
}

TEST(EpisodeStateTest, CategoryCountsTracked) {
  datagen::Dataset dataset = datagen::MakeUniv2Ds();
  const model::TaskInstance instance = dataset.Instance();
  EpisodeState state(instance);
  const model::Item& first = dataset.catalog.item(0);
  state.Add(first.id);
  EXPECT_EQ(state.CategoryCount(first.category), 1);
  EXPECT_EQ(state.CategoryCount(99), 0);
}

}  // namespace
}  // namespace rlplanner::mdp
