// Tests for the sparse Q representation: unit behavior of SparseQTable, its
// bit-identity contract against the dense QTable (the property that lets
// the learner swap representations without changing any result), and the
// end-to-end dense-vs-sparse training equivalence on the paper datasets —
// serial and deterministic-parallel, pinned per (seed, K).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/planner.h"
#include "datagen/course_data.h"
#include "datagen/synthetic.h"
#include "mdp/q_table.h"
#include "mdp/sparse_q_table.h"
#include "random_tables.h"
#include "rl/parallel_sarsa.h"
#include "rl/sarsa.h"
#include "rl/sarsa_config.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace rlplanner::mdp {
namespace {

bool SameCells(const QTable& dense, const SparseQTable& sparse) {
  if (dense.num_items() != sparse.num_items()) return false;
  for (std::size_t s = 0; s < dense.num_items(); ++s) {
    for (std::size_t a = 0; a < dense.num_items(); ++a) {
      const auto state = static_cast<model::ItemId>(s);
      const auto action = static_cast<model::ItemId>(a);
      if (dense.Get(state, action) != sparse.Get(state, action)) return false;
    }
  }
  return true;
}

TEST(SparseQTableTest, StartsEmptyAndReadsZero) {
  SparseQTable q(16);
  EXPECT_EQ(q.num_items(), 16u);
  EXPECT_EQ(q.entry_count(), 0u);
  EXPECT_EQ(q.Get(3, 7), 0.0);
  EXPECT_EQ(q.MaxAbsValue(), 0.0);
  EXPECT_EQ(q.NonZeroFraction(), 0.0);
}

TEST(SparseQTableTest, SetGetRoundTripAndOverwrite) {
  SparseQTable q(8);
  q.Set(2, 5, 1.25);
  EXPECT_EQ(q.Get(2, 5), 1.25);
  EXPECT_EQ(q.entry_count(), 1u);
  q.Set(2, 5, -0.5);
  EXPECT_EQ(q.Get(2, 5), -0.5);
  EXPECT_EQ(q.entry_count(), 1u);  // overwrite, not a second entry
  EXPECT_EQ(q.Get(5, 2), 0.0);     // (action, state) is a different cell
}

TEST(SparseQTableTest, ManyInsertsSurviveRowGrowth) {
  // Push one row far past the initial capacity so Grow() rehashing runs.
  SparseQTable q(4096);
  QTable dense(4096);
  util::Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const auto action = static_cast<model::ItemId>(i * 2 + 1);
    const double value = rng.NextDouble(-1.0, 1.0);
    q.Set(0, action, value);
    dense.Set(0, action, value);
  }
  EXPECT_TRUE(SameCells(dense, q));
}

TEST(SparseQTableTest, SarsaUpdateBitIdenticalToDense) {
  auto [dense, sparse] = RandomPair(24, 7);
  util::Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    const auto s = static_cast<model::ItemId>(rng.NextDouble() * 24);
    const auto a = static_cast<model::ItemId>(rng.NextDouble() * 24);
    const auto ns = static_cast<model::ItemId>(rng.NextDouble() * 24);
    const auto na = static_cast<model::ItemId>(rng.NextDouble() * 24);
    const double reward = rng.NextDouble(-1.0, 1.0);
    dense.SarsaUpdate(s, a, reward, ns, na, 0.1, 0.9);
    sparse.SarsaUpdate(s, a, reward, ns, na, 0.1, 0.9);
  }
  EXPECT_TRUE(SameCells(dense, sparse));
}

TEST(SparseQTableTest, BitsetArgmaxMatchesDenseOnRandomTables) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto [dense, sparse] = RandomPair(64, seed);
    util::Rng rng(seed * 31);
    for (int trial = 0; trial < 200; ++trial) {
      util::DynamicBitset allowed(64);
      for (std::size_t a = 0; a < 64; ++a) {
        if (rng.NextDouble() < 0.4) allowed.Set(a);
      }
      const auto state =
          static_cast<model::ItemId>(rng.NextDouble() * 64);
      EXPECT_EQ(dense.ArgmaxAction(state, allowed),
                sparse.ArgmaxAction(state, allowed))
          << "seed " << seed << " trial " << trial << " state " << state;
    }
  }
}

TEST(SparseQTableTest, BitsetArgmaxAllNegativeRowFallsBackToLowestAllowed) {
  // No stored value beats the missing cells' 0.0, so the slow path must
  // reproduce the dense walk: first allowed adopted, strictly-greater wins.
  SparseQTable q(10);
  q.Set(0, 4, -1.0);
  q.Set(0, 7, -0.25);
  util::DynamicBitset allowed(10);
  allowed.Set(4);
  allowed.Set(7);
  // Only stored (negative) cells allowed: dense semantics adopt action 4
  // first, then 7 wins on strictly greater (-0.25 > -1.0).
  EXPECT_EQ(q.ArgmaxAction(0, allowed), 7);
  allowed.Set(2);  // an absent cell (0.0) now beats both stored values
  EXPECT_EQ(q.ArgmaxAction(0, allowed), 2);
  util::DynamicBitset none(10);
  EXPECT_EQ(q.ArgmaxAction(0, none), -1);
}

TEST(SparseQTableTest, BitsetArgmaxTieBreaksToLowestId) {
  SparseQTable q(12);
  q.Set(1, 9, 3.0);
  q.Set(1, 3, 3.0);
  q.Set(1, 6, 3.0);
  util::DynamicBitset allowed(12);
  allowed.SetAll();
  // All three tie at the row max; the winner is the lowest allowed id, as
  // in the dense table (hash rows are unordered, so this exercises the
  // explicit tie-break in the stored-entry scan).
  EXPECT_EQ(q.ArgmaxAction(1, allowed), 3);
  allowed.Set(3, false);
  EXPECT_EQ(q.ArgmaxAction(1, allowed), 6);
}

TEST(SparseQTableTest, BitsetArgmaxMatchesDenseOnNegativeDominatedRows) {
  // Rows of mostly negative values send nearly every argmax down the
  // zero-max path; even seeds store every cell, so the "every allowed id
  // stored" exit is crossed as well.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto [dense, sparse] =
        RandomPair(64, seed, seed % 2 == 0 ? 1.0 : 0.6, /*max_value=*/0.05);
    util::Rng rng(seed * 7);
    for (int trial = 0; trial < 200; ++trial) {
      util::DynamicBitset allowed(64);
      const double density = rng.NextDouble();
      for (std::size_t a = 0; a < 64; ++a) {
        if (rng.NextDouble() < density) allowed.Set(a);
      }
      const auto state = static_cast<model::ItemId>(rng.NextDouble() * 64);
      EXPECT_EQ(sparse.ArgmaxAction(state, allowed),
                dense.ArgmaxAction(state, allowed))
          << "seed " << seed << " trial " << trial << " state " << state;
    }
  }
}

util::DynamicBitset Allowed(std::size_t n, std::vector<std::size_t> ids) {
  util::DynamicBitset bits(n);
  for (std::size_t id : ids) bits.Set(id);
  return bits;
}

TEST(SparseQTableTest, BitsetArgmaxZeroMaxEdgeCases) {
  QTable dense(10);
  SparseQTable sparse(10);
  auto set = [&](model::ItemId s, model::ItemId a, double value) {
    dense.Set(s, a, value);
    sparse.Set(s, a, value);
  };
  auto expect = [&](model::ItemId state, std::vector<std::size_t> ids,
                    model::ItemId want) {
    const util::DynamicBitset allowed = Allowed(10, ids);
    EXPECT_EQ(dense.ArgmaxAction(state, allowed), want) << "state " << state;
    EXPECT_EQ(sparse.ArgmaxAction(state, allowed), want) << "state " << state;
  };
  // Row 0 stores every id, all negative: the stored scan alone decides.
  for (model::ItemId a = 0; a < 10; ++a) set(0, a, -0.25 * (a + 1));
  set(0, 6, -0.1);
  expect(0, {2, 6, 9}, 6);
  expect(0, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 6);
  expect(0, {}, -1);
  // Row 1: the first allowed id stores a negative, the next is missing.
  set(1, 3, -0.5);
  expect(1, {3, 4}, 4);
  expect(1, {3}, 3);
  expect(1, {}, -1);
  // Row 2: stored -0.0 and +0.0 tie with missing cells at the 0.0 max, so
  // the lowest allowed id reading either zero wins.
  set(2, 2, -1.0);
  set(2, 3, -0.0);
  set(2, 5, 0.0);
  expect(2, {2, 3, 5, 6}, 3);
  expect(2, {2, 5, 6}, 5);
  expect(2, {3, 5}, 3);
  expect(2, {2, 6}, 6);
}

TEST(SparseQTableTest, AccumulateDeltaMatchesDenseMerge) {
  auto [dense, sparse] = RandomPair(32, 13);
  auto [dense_base, sparse_base] = RandomPair(32, 17, 0.2);
  auto [dense_local, sparse_local] = RandomPair(32, 17, 0.2);
  // Perturb local away from base at a few cells (including one both-absent
  // and one base-only cell) so the key-union merge sees every shape.
  for (int i = 0; i < 40; ++i) {
    const auto s = static_cast<model::ItemId>((i * 5) % 32);
    const auto a = static_cast<model::ItemId>((i * 11) % 32);
    const double v = 0.01 * i - 0.2;
    dense_local.Set(s, a, v);
    sparse_local.Set(s, a, v);
  }
  dense.AccumulateDelta(dense_local, dense_base);
  sparse.AccumulateDelta(sparse_local, sparse_base);
  EXPECT_TRUE(SameCells(dense, sparse));
}

TEST(SparseQTableTest, ScaleMatchesDense) {
  auto [dense, sparse] = RandomPair(20, 23);
  dense.Scale(0.75);
  sparse.Scale(0.75);
  EXPECT_TRUE(SameCells(dense, sparse));
}

TEST(SparseQTableTest, AddNoiseBitIdenticalToDense) {
  // Dense AddNoise draws once per cell in row-major order; the sparse
  // implementation must consume the identical draw sequence.
  auto [dense, sparse] = RandomPair(12, 29);
  util::Rng dense_rng(555);
  util::Rng sparse_rng(555);
  dense.AddNoise(dense_rng, 0.05);
  sparse.AddNoise(sparse_rng, 0.05);
  EXPECT_TRUE(SameCells(dense, sparse));
  // Both RNGs advanced by exactly |I|^2 draws: the next draw agrees.
  EXPECT_EQ(dense_rng.NextDouble(), sparse_rng.NextDouble());
}

TEST(SparseQTableTest, MaxAbsAndNonZeroFractionMatchDense) {
  auto [dense, sparse] = RandomPair(40, 41);
  EXPECT_EQ(dense.MaxAbsValue(), sparse.MaxAbsValue());
  EXPECT_EQ(dense.NonZeroFraction(), sparse.NonZeroFraction());
}

TEST(SparseQTableTest, FromDenseToDenseRoundTrip) {
  auto [dense, sparse] = RandomPair(25, 61);
  EXPECT_TRUE(SparseQTable::FromDense(dense) == sparse);
  EXPECT_TRUE(sparse.ToDense() == dense);
}

TEST(SparseQTableTest, EqualityTreatsStoredZeroAsAbsent) {
  SparseQTable a(6);
  SparseQTable b(6);
  a.Set(1, 2, 0.0);  // stored explicit zero
  EXPECT_TRUE(a == b);
  a.Set(1, 2, 0.5);
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(a != b);
  EXPECT_FALSE(a == SparseQTable(7));
}

TEST(SparseQTableTest, MemoryBytesGrowsWithEntries) {
  SparseQTable q(1000);
  const std::size_t empty = q.MemoryBytes();
  for (int i = 0; i < 100; ++i) q.Set(i, (i * 7) % 1000, 1.0);
  EXPECT_GT(q.MemoryBytes(), empty);
}

// --------------------------------------------- training bit-identity --

// Trains both representations with identical (config, seed) through the
// serial learner and expects bitwise-equal tables.
void ExpectSerialTrainingIdentical(datagen::Dataset dataset,
                                   std::uint64_t seed) {
  const model::TaskInstance instance = dataset.Instance();
  const RewardWeights weights;
  const RewardFunction reward(instance, weights);
  rl::SarsaConfig config;
  config.num_episodes = 150;
  config.start_item = dataset.default_start;

  rl::SarsaLearner dense_learner(instance, reward, config, seed);
  rl::SparseSarsaLearner sparse_learner(instance, reward, config, seed);
  const QTable dense = dense_learner.Learn();
  const SparseQTable sparse = sparse_learner.Learn();
  EXPECT_TRUE(sparse.ToDense() == dense);
  EXPECT_EQ(dense_learner.episode_returns(),
            sparse_learner.episode_returns());
}

TEST(SparseTrainingEquivalenceTest, SerialBitIdenticalOnUniv1) {
  ExpectSerialTrainingIdentical(datagen::MakeUniv1DsCt(), 123);
}

TEST(SparseTrainingEquivalenceTest, SerialBitIdenticalOnUniv2) {
  ExpectSerialTrainingIdentical(datagen::MakeUniv2Ds(), 321);
}

// Deterministic-parallel equivalence pinned per (seed, K): the sharded
// merge iterates sparse rows over the sorted key union, so worker count
// must not perturb the dense-vs-sparse agreement.
void ExpectParallelTrainingIdentical(datagen::Dataset dataset,
                                     std::uint64_t seed, int workers) {
  const model::TaskInstance instance = dataset.Instance();
  const RewardWeights weights;
  const RewardFunction reward(instance, weights);
  rl::SarsaConfig config;
  config.num_episodes = 160;
  config.start_item = dataset.default_start;
  config.num_workers = workers;

  rl::ParallelSarsaLearner dense_learner(instance, reward, config, seed);
  rl::SparseParallelSarsaLearner sparse_learner(instance, reward, config,
                                                seed);
  const QTable dense = dense_learner.Learn();
  const SparseQTable sparse = sparse_learner.Learn();
  EXPECT_TRUE(sparse.ToDense() == dense)
      << "seed " << seed << " workers " << workers;
}

TEST(SparseTrainingEquivalenceTest, ParallelBitIdenticalOnUniv1) {
  ExpectParallelTrainingIdentical(datagen::MakeUniv1DsCt(), 123, 4);
  ExpectParallelTrainingIdentical(datagen::MakeUniv1DsCt(), 7, 3);
}

TEST(SparseTrainingEquivalenceTest, ParallelBitIdenticalOnUniv2) {
  ExpectParallelTrainingIdentical(datagen::MakeUniv2Ds(), 99, 4);
}

// ------------------------------------------------- RlPlanner dispatch --

TEST(QRepresentationTest, AutoPicksByCatalogSize) {
  using rl::QRepresentation;
  using rl::ResolveQRepresentation;
  EXPECT_EQ(ResolveQRepresentation(QRepresentation::kAuto, 100),
            QRepresentation::kDense);
  // The threshold itself stays dense (32 MiB/table); one item past flips.
  EXPECT_EQ(ResolveQRepresentation(QRepresentation::kAuto,
                                   rl::kSparseAutoThreshold),
            QRepresentation::kDense);
  EXPECT_EQ(ResolveQRepresentation(QRepresentation::kAuto,
                                   rl::kSparseAutoThreshold + 1),
            QRepresentation::kSparse);
  EXPECT_EQ(ResolveQRepresentation(QRepresentation::kDense, 100000),
            QRepresentation::kDense);
  EXPECT_EQ(ResolveQRepresentation(QRepresentation::kSparse, 10),
            QRepresentation::kSparse);
}

TEST(QRepresentationTest, PlannerTrainsIdenticallyOnBothRepresentations) {
  const datagen::Dataset dataset = datagen::MakeUniv1DsCt();
  const model::TaskInstance instance = dataset.Instance();
  core::PlannerConfig config = core::DefaultUniv1Config();
  config.sarsa.num_episodes = 120;
  config.sarsa.start_item = dataset.default_start;
  config.seed = 2024;

  config.sarsa.q_representation = rl::QRepresentation::kDense;
  core::RlPlanner dense_planner(instance, config);
  ASSERT_TRUE(dense_planner.Train().ok());
  ASSERT_FALSE(dense_planner.uses_sparse());

  config.sarsa.q_representation = rl::QRepresentation::kSparse;
  core::RlPlanner sparse_planner(instance, config);
  ASSERT_TRUE(sparse_planner.Train().ok());
  ASSERT_TRUE(sparse_planner.uses_sparse());

  EXPECT_TRUE(sparse_planner.sparse_q_table().ToDense() ==
              dense_planner.q_table());

  // Same recommendation off either representation.
  auto dense_plan = dense_planner.Recommend(dataset.default_start);
  auto sparse_plan = sparse_planner.Recommend(dataset.default_start);
  ASSERT_TRUE(dense_plan.ok());
  ASSERT_TRUE(sparse_plan.ok());
  EXPECT_EQ(dense_plan.value().items(), sparse_plan.value().items());
}

TEST(QRepresentationTest, BigCatalogSparseWithPolicyRoundsIsRejected) {
  // Above the auto threshold the restart path (AddNoise) would materialize
  // all |I|^2 entries, so Train() must fail fast instead of OOM-ing the
  // first time a round's safety rollout fails.
  datagen::SyntheticSpec spec;
  spec.num_items = static_cast<int>(rl::kSparseAutoThreshold) + 1;
  spec.seed = 5;
  const datagen::Dataset dataset = datagen::GenerateSynthetic(spec);
  const model::TaskInstance instance = dataset.Instance();
  core::PlannerConfig config = core::DefaultUniv1Config();
  config.sarsa.start_item = dataset.default_start;
  ASSERT_GT(config.sarsa.policy_rounds, 1);  // the default
  // kAuto resolves to sparse at this size; explicit kSparse fails the same.
  ASSERT_EQ(rl::ResolveQRepresentation(config.sarsa.q_representation,
                                       dataset.catalog.size()),
            rl::QRepresentation::kSparse);
  core::RlPlanner planner(instance, config);
  const auto status = planner.Train();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("policy_rounds"), std::string::npos);

  // policy_rounds == 1 trains the same catalog fine (short run).
  config.sarsa.policy_rounds = 1;
  config.sarsa.num_episodes = 2;
  core::RlPlanner ok_planner(instance, config);
  EXPECT_TRUE(ok_planner.Train().ok());
}

}  // namespace
}  // namespace rlplanner::mdp
