// Parity of RecommendPlan's class step with the per-candidate stream it
// replaced. The reference below is that stream verbatim: Theta, Reward and
// Q.Get for every admissible candidate, replacing the held item on a higher
// theta, an outright reward win (> +1e-9), or a reward tie (>= -1e-9) with
// strictly greater Q. The matrix crosses catalogs (the six paper datasets,
// the Table II toy, seeded synthetic course and trip catalogs, and one
// sparse catalog above 2,048 items) with the three Q representations, mask
// on/off, exclusions on/off and default/overridden ideal topics, on random
// tables that mix negatives, +-0.0 and exact ties.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/config.h"
#include "datagen/course_data.h"
#include "datagen/synthetic.h"
#include "datagen/trip_data.h"
#include "mdp/q_table.h"
#include "mdp/reward.h"
#include "mdp/sparse_q_table.h"
#include "model/catalog.h"
#include "rl/action_mask.h"
#include "rl/recommender.h"
#include "serve/policy_snapshot.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace rlplanner::rl {
namespace {

// The per-candidate stream RecommendPlan ran before the class step.
template <typename QModel>
model::Plan ReferenceRecommendPlan(const QModel& q,
                                   const model::TaskInstance& instance,
                                   const mdp::RewardFunction& reward,
                                   const RecommendConfig& config) {
  const int horizon =
      instance.catalog->domain() == model::Domain::kTrip
          ? static_cast<int>(instance.catalog->size())
          : instance.hard.TotalItems();
  const ActionMask mask(reward, horizon, config.mask_type_overflow);
  const util::DynamicBitset excluded =
      recommender_internal::ExcludedBits(instance, config.excluded);
  mdp::EpisodeState state(instance);
  state.Add(config.start_item);
  util::DynamicBitset allowed(instance.catalog->size());
  while (static_cast<int>(state.Length()) < horizon) {
    const model::ItemId current = state.CurrentItem();
    model::ItemId next = -1;
    int best_theta = -1;
    double best_q = 0.0;
    double best_reward = 0.0;
    mask.AllowedSet(state, &allowed);
    allowed.AndNotAssign(excluded);
    allowed.ForEachSetBit([&](std::size_t i) {
      const auto item = static_cast<model::ItemId>(i);
      const int theta = reward.Theta(state, item);
      const double q_value = q.Get(current, item);
      const double item_reward = reward.Reward(state, item);
      const bool better =
          next < 0 || theta > best_theta ||
          (theta == best_theta &&
           (item_reward > best_reward + 1e-9 ||
            (item_reward >= best_reward - 1e-9 && q_value > best_q)));
      if (better) {
        next = item;
        best_theta = theta;
        best_q = q_value;
        best_reward = item_reward;
      }
    });
    if (next < 0) break;
    state.Add(next);
  }
  return state.ToPlan();
}

enum class Table { kDense, kSparse, kMapped };

const char* TableName(Table table) {
  switch (table) {
    case Table::kDense:
      return "Dense";
    case Table::kSparse:
      return "Sparse";
    case Table::kMapped:
      return "Mapped";
  }
  return "?";
}

datagen::Dataset Synthetic(model::Domain domain, int items,
                           std::uint64_t seed) {
  datagen::SyntheticSpec spec;
  spec.domain = domain;
  spec.num_items = items;
  spec.vocab_size = items > 1000 ? 256 : 80;
  spec.seed = seed;
  return datagen::GenerateSynthetic(spec);
}

struct CatalogCase {
  std::string name;
  datagen::Dataset (*make)();
  mdp::RewardWeights weights;
};

std::vector<CatalogCase> Catalogs() {
  const mdp::RewardWeights univ1 = core::DefaultUniv1Config().reward;
  const mdp::RewardWeights univ2 = core::DefaultUniv2Config().reward;
  const mdp::RewardWeights trip = core::DefaultTripConfig().reward;
  mdp::RewardWeights toy = univ1;
  toy.epsilon = 1.0;
  return {
      {"Univ1DsCt", datagen::MakeUniv1DsCt, univ1},
      {"Univ1Cyber", datagen::MakeUniv1Cybersecurity, univ1},
      {"Univ1Cs", datagen::MakeUniv1Cs, univ1},
      {"Univ2Ds", datagen::MakeUniv2Ds, univ2},
      {"Nyc", datagen::MakeNycTrip, trip},
      {"Paris", datagen::MakeParisTrip, trip},
      {"TableIIToy", datagen::MakeTableIIToy, toy},
      {"Course60",
       [] { return Synthetic(model::Domain::kCourse, 60, 3); }, univ1},
      {"Course150",
       [] { return Synthetic(model::Domain::kCourse, 150, 5); }, univ2},
      {"Trip40", [] { return Synthetic(model::Domain::kTrip, 40, 9); }, trip},
      {"Course3000",
       [] { return Synthetic(model::Domain::kCourse, 3000, 11); }, univ1},
  };
}

// Above the sparse auto-threshold only the sparse and mapped tables run.
constexpr std::size_t kDenseMaxItems = 2048;

// One random policy in all three representations. Each row stores a few
// random actions; values mix negatives, positives, +-0.0 and a small palette
// that produces exact ties. `negative` biases rows towards non-positive
// values, so most argmaxes take the tables' zero-max path.
struct Policy {
  std::unique_ptr<mdp::QTable> dense;
  mdp::SparseQTable sparse{0};
  std::unique_ptr<serve::MappedPolicy> mapped;
};

Policy RandomPolicy(std::size_t n, std::uint64_t seed, bool negative,
                    const std::string& path) {
  static constexpr double kPalette[] = {-1.0, -0.5, -0.0, 0.0, 0.5, 1.0};
  Policy policy;
  policy.sparse = mdp::SparseQTable(n);
  if (n <= kDenseMaxItems) policy.dense = std::make_unique<mdp::QTable>(n);
  util::Rng rng(seed);
  const std::size_t per_row = std::min<std::size_t>(n, 24);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t j = 0; j < per_row; ++j) {
      const auto action = static_cast<model::ItemId>(rng.NextDouble() * n);
      double value;
      if (rng.NextDouble() < 0.4) {
        value = kPalette[static_cast<std::size_t>(rng.NextDouble() * 6)];
      } else {
        value = rng.NextDouble(-2.0, negative ? 0.1 : 2.0);
      }
      const auto state = static_cast<model::ItemId>(s);
      policy.sparse.Set(state, action, value);
      if (policy.dense) policy.dense->Set(state, action, value);
    }
  }
  serve::SparsePolicySnapshotV2 snapshot;
  snapshot.table = policy.sparse;
  EXPECT_TRUE(snapshot.SaveToFile(path).ok());
  auto mapped = serve::MappedPolicy::Map(path);
  EXPECT_TRUE(mapped.ok()) << mapped.status().ToString();
  policy.mapped =
      std::make_unique<serve::MappedPolicy>(std::move(mapped).value());
  return policy;
}

// Datasets and policies are shared across the matrix: building them once
// per catalog keeps the suite fast enough for the sanitizer lane.
struct Fixture {
  datagen::Dataset dataset;
  mdp::RewardWeights weights;
  Policy policies[2];  // [mixed, negative-dominated]
};

const Fixture& FixtureFor(std::size_t catalog) {
  static std::map<std::size_t, std::unique_ptr<Fixture>> cache;
  auto& slot = cache[catalog];
  if (!slot) {
    const CatalogCase c = Catalogs()[catalog];
    slot = std::make_unique<Fixture>();
    slot->dataset = c.make();
    slot->weights = c.weights;
    const std::size_t n = slot->dataset.catalog.size();
    for (int negative = 0; negative < 2; ++negative) {
      slot->policies[negative] = RandomPolicy(
          n, 1000 * catalog + negative, negative == 1,
          testing::TempDir() + "/parity_" + c.name + "_" +
              std::to_string(negative) + ".snap");
    }
  }
  return *slot;
}

using ParityParam = std::tuple<std::size_t, Table, bool, bool, bool>;

class RecommendParityTest : public ::testing::TestWithParam<ParityParam> {};

template <typename QModel>
void ExpectParity(const QModel& q, const model::TaskInstance& instance,
                  const mdp::RewardFunction& reward,
                  const RecommendConfig& config) {
  EXPECT_EQ(RecommendPlan(q, instance, reward, config).items(),
            ReferenceRecommendPlan(q, instance, reward, config).items())
      << "start " << config.start_item << ", " << config.excluded.size()
      << " excluded";
}

TEST_P(RecommendParityTest, ClassStepMatchesPerCandidateStream) {
  const auto [catalog, table, mask, exclude, override_ideal] = GetParam();
  const Fixture& fixture = FixtureFor(catalog);
  const model::Catalog& items = fixture.dataset.catalog;
  const std::size_t n = items.size();
  util::Rng rng(7919 * catalog + 31 * static_cast<int>(table) +
                (mask ? 1 : 0) + (exclude ? 2 : 0) + (override_ideal ? 4 : 0));

  model::TaskInstance instance = fixture.dataset.Instance();
  if (override_ideal) {
    model::TopicVector ideal(items.vocabulary_size());
    for (std::size_t t = 0; t < ideal.size(); ++t) {
      if (rng.NextDouble() < 0.4) ideal.Set(t);
    }
    instance.soft.ideal_topics = ideal;
  }
  const mdp::RewardFunction reward(instance, fixture.weights);

  std::vector<model::ItemId> starts = {fixture.dataset.default_start};
  for (int i = 0; i < 3; ++i) {
    starts.push_back(static_cast<model::ItemId>(rng.NextDouble() * n));
  }
  for (const Policy& policy : fixture.policies) {
    for (model::ItemId start : starts) {
      RecommendConfig config;
      config.start_item = start;
      config.mask_type_overflow = mask;
      if (exclude) {
        for (std::size_t i = 0; i < n; ++i) {
          if (rng.NextDouble() < 0.2) {
            config.excluded.push_back(static_cast<model::ItemId>(i));
          }
        }
      }
      switch (table) {
        case Table::kDense:
          ExpectParity(*policy.dense, instance, reward, config);
          break;
        case Table::kSparse:
          ExpectParity(policy.sparse, instance, reward, config);
          break;
        case Table::kMapped:
          ExpectParity(*policy.mapped, instance, reward, config);
          break;
      }
    }
  }
}

std::vector<ParityParam> ParityMatrix() {
  std::vector<ParityParam> params;
  const std::vector<CatalogCase> catalogs = Catalogs();
  for (std::size_t c = 0; c < catalogs.size(); ++c) {
    for (Table table : {Table::kDense, Table::kSparse, Table::kMapped}) {
      if (table == Table::kDense && catalogs[c].name == "Course3000") continue;
      for (bool mask : {true, false}) {
        for (bool exclude : {false, true}) {
          for (bool override_ideal : {false, true}) {
            params.emplace_back(c, table, mask, exclude, override_ideal);
          }
        }
      }
    }
  }
  return params;
}

std::string ParityName(const ::testing::TestParamInfo<ParityParam>& info) {
  const auto [catalog, table, mask, exclude, override_ideal] = info.param;
  return Catalogs()[catalog].name + "_" + TableName(table) +
         (mask ? "_Mask" : "_NoMask") + (exclude ? "_Excluded" : "_All") +
         (override_ideal ? "_OwnIdeal" : "_DefaultIdeal");
}

INSTANTIATE_TEST_SUITE_P(Matrix, RecommendParityTest,
                         ::testing::ValuesIn(ParityMatrix()), ParityName);

// Three secondary classes whose rewards sit 0.8e-9 apart: the best class
// ties the middle one, the middle one ties the lowest, but the best beats
// the lowest outright. The stream's winner then depends on id order, the
// top group {best, middle} is not clean, and RecommendPlan must replay the
// stream. Neither "best class only" nor "argmax over the top group" agrees
// with it here.
TEST(RecommendParityTest, ChainedNearTiesFallBackToTheStream) {
  model::Catalog catalog(model::Domain::kCourse,
                         {"t0", "t1", "t2", "t3", "t4", "t5"});
  // Item 0 starts the plan; items 1..3 are the best (category 0), middle
  // (category 1) and lowest (category 2) classes, each with a fresh topic.
  const int categories[] = {0, 0, 1, 2};
  for (int i = 0; i < 4; ++i) {
    model::Item item;
    item.code = "c" + std::to_string(i);
    item.type = model::ItemType::kSecondary;
    item.category = categories[i];
    item.credits = 3.0;
    item.topics = model::TopicVector(6);
    item.topics.Set(static_cast<std::size_t>(i));
    ASSERT_TRUE(catalog.AddItem(std::move(item)).ok());
  }
  model::TaskInstance instance;
  instance.catalog = &catalog;
  instance.hard.num_secondary = 2;
  instance.soft.ideal_topics = model::TopicVector(6);
  instance.soft.ideal_topics.SetAll();
  instance.soft.interleaving.Add(
      {model::ItemType::kSecondary, model::ItemType::kSecondary});

  mdp::RewardWeights weights;
  weights.delta = 0.5;
  weights.beta = 0.5;
  weights.epsilon = 1.0;
  weights.category_weights = {0.4, 0.4 - 1.6e-9, 0.4 - 3.2e-9};
  const mdp::RewardFunction reward(instance, weights);

  // Q rises with id: item 2 ties item 1 and wins on Q, then item 3 ties
  // item 2 and wins on Q, although item 1's class beats item 3's outright.
  mdp::QTable q(4);
  q.Set(0, 1, 1.0);
  q.Set(0, 2, 2.0);
  q.Set(0, 3, 3.0);
  RecommendConfig config;
  config.start_item = 0;
  config.mask_type_overflow = false;

  util::DynamicBitset allowed(4);
  allowed.SetAll();
  allowed.Set(0, false);

  const model::Plan plan = RecommendPlan(q, instance, reward, config);
  EXPECT_EQ(plan.items(), ReferenceRecommendPlan(q, instance, reward, config)
                              .items());
  EXPECT_EQ(plan.items(), (std::vector<model::ItemId>{0, 3}));
  // The shortcuts the fallback exists to avoid, so the plan's item 3 proves
  // the stream ran: the best class alone picks item 1, the argmax over the
  // top group item 2.
  util::DynamicBitset best_class =
      reward.RewardClassItems(reward.RewardClassOf(1));
  best_class &= allowed;
  EXPECT_EQ(q.ArgmaxAction(0, best_class), 1);
  util::DynamicBitset top_group = best_class;
  top_group |= reward.RewardClassItems(reward.RewardClassOf(2));
  EXPECT_EQ(q.ArgmaxAction(0, top_group), 2);
}

}  // namespace
}  // namespace rlplanner::rl
