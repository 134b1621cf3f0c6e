// Tests for the sparse Q representation: unit behavior of SparseQTable, its
// bit-identity contract against the dense QTable (the property that lets
// the learner swap representations without changing any result), and the
// end-to-end dense-vs-sparse training equivalence on the paper datasets —
// serial and deterministic-parallel, pinned per (seed, K).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
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
  // Grow row 0 to 2,000 keys in ascending order (every insert appends) and
  // row 1 in descending order (every insert lands in front of the row).
  SparseQTable q(4096);
  QTable dense(4096);
  util::Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const double value = rng.NextDouble(-1.0, 1.0);
    const auto ascending = static_cast<model::ItemId>(i * 2 + 1);
    const auto descending = static_cast<model::ItemId>(4095 - i * 2);
    q.Set(0, ascending, value);
    dense.Set(0, ascending, value);
    q.Set(1, descending, -value);
    dense.Set(1, descending, -value);
  }
  EXPECT_TRUE(SameCells(dense, q));
  EXPECT_EQ(q.entry_count(), 4000u);
}

TEST(SparseQTableTest, InsertOrderNeverChangesTheRow) {
  // Rows filled ascending, descending and interleaved from both ends, each
  // past 64 and 128 keys, then overwritten, including with stored +0.0 and
  // -0.0: every cell, the entry count and the traversal must match the
  // dense twin, and the traversal must be ascending.
  constexpr std::size_t kN = 150;
  SparseQTable sparse(kN);
  QTable dense(kN);
  std::vector<bool> stored(kN * kN, false);
  std::size_t entries = 0;
  auto set = [&](model::ItemId s, model::ItemId a, double value) {
    const auto cell = static_cast<std::size_t>(s) * kN +
                      static_cast<std::size_t>(a);
    if (!stored[cell]) ++entries;
    stored[cell] = true;
    sparse.Set(s, a, value);
    dense.Set(s, a, value);
  };
  for (model::ItemId a = 0; a < 140; ++a) set(0, a, 0.5 * a - 30.0);
  for (model::ItemId a = 149; a >= 10; --a) set(1, a, 1.0 / (a + 1));
  for (model::ItemId i = 0; i < 70; ++i) {
    set(2, i, -0.25 * (i + 1));
    set(2, 149 - i, 0.75 * (i + 1));
  }
  for (model::ItemId a = 0; a < 150; a += 3) set(3, a, 1.0);
  for (model::ItemId a = 148; a >= 0; a -= 3) set(3, a, 2.0);
  for (model::ItemId a = 1; a < 150; a += 3) set(3, a, 3.0);
  // Overwrites: new values, and values that leave stored zeros.
  set(0, 0, 2.0);
  set(0, 60, 0.0);
  set(1, 149, -0.0);
  set(1, 64, 4.0);
  set(2, 69, -0.0);
  set(2, 80, 0.0);
  set(3, 128, -1.0);
  // Row 4 stores only zeros.
  set(4, 7, 0.0);
  set(4, 3, -0.0);

  EXPECT_TRUE(SameCells(dense, sparse));
  EXPECT_EQ(sparse.entry_count(), entries);
  EXPECT_TRUE(std::signbit(sparse.Get(1, 149)));
  EXPECT_TRUE(std::signbit(sparse.Get(2, 69)));
  EXPECT_FALSE(std::signbit(sparse.Get(2, 80)));
  using Cell = std::pair<model::ItemId, model::ItemId>;
  std::vector<Cell> visited;
  sparse.ForEachNonZeroEntrySorted(
      [&](model::ItemId s, model::ItemId a, double value) {
        visited.emplace_back(s, a);
        EXPECT_EQ(value, dense.Get(s, a));
      });
  std::vector<Cell> want;
  dense.ForEachNonZeroEntrySorted([&](model::ItemId s, model::ItemId a,
                                      double) { want.emplace_back(s, a); });
  EXPECT_TRUE(std::is_sorted(visited.begin(), visited.end()));
  EXPECT_EQ(visited, want);
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
  // in the dense table (inserted out of order, the row stores them
  // ascending, so the first entry at the max wins).
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

TEST(KeyedRowTest, EmptyRowReadsZeroAndPicksTheLowestAllowedId) {
  const KeyedRow empty;
  EXPECT_EQ(empty.Get(0), 0.0);
  EXPECT_EQ(empty.Get(9), 0.0);
  EXPECT_EQ(empty.ArgmaxAction(Allowed(10, {})), -1);
  EXPECT_EQ(empty.ArgmaxAction(Allowed(10, {4, 7})), 4);
  EXPECT_EQ(empty.ArgmaxAction(Allowed(10, {9})), 9);
  EXPECT_EQ(empty.ArgmaxAction(Allowed(10, {0, 9})), 0);
}

TEST(KeyedRowTest, KeysAtBothEndsOfTheCatalog) {
  // Keys 0 and n - 1 sit at both ends of the row and of every allowed set.
  constexpr std::size_t kN = 70;
  const std::vector<std::uint32_t> keys = {0, 5, 63, 64, 69};
  for (const std::vector<double>& values :
       {std::vector<double>{-1.0, 0.0, 2.5, -0.0, 3.0},
        std::vector<double>{4.0, -2.0, 1.0, 0.5, -3.0},
        std::vector<double>{-1.0, -2.0, -0.5, -0.25, -4.0}}) {
    const KeyedRow row{keys.data(), values.data(), keys.size()};
    QTable dense(kN);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      dense.Set(0, static_cast<model::ItemId>(keys[i]), values[i]);
    }
    for (std::size_t a = 0; a < kN; ++a) {
      const auto action = static_cast<model::ItemId>(a);
      EXPECT_EQ(row.Get(action), dense.Get(0, action)) << "action " << a;
    }
    EXPECT_EQ(row.Get(0), values[0]);
    EXPECT_EQ(row.Get(69), values[4]);
    for (const std::vector<std::size_t>& ids :
         std::vector<std::vector<std::size_t>>{{},
                                               {0},
                                               {69},
                                               {0, 69},
                                               {0, 1},
                                               {1, 69},
                                               {5, 64},
                                               {63, 64, 69},
                                               {0, 5, 63, 64, 69},
                                               {68, 69}}) {
      const util::DynamicBitset allowed = Allowed(kN, ids);
      EXPECT_EQ(row.ArgmaxAction(allowed), dense.ArgmaxAction(0, allowed));
    }
    util::DynamicBitset all(kN);
    all.SetAll();
    EXPECT_EQ(row.ArgmaxAction(all), dense.ArgmaxAction(0, all));
  }
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

TEST(SparseQTableTest, AccumulateDeltaMergesEveryKeyShapeInOneRow) {
  // One row whose keys are stored here only, in local only, in base only,
  // in local and base, and in all three, interleaved so the merge takes
  // every branch; the shared keys include one whose delta is exactly 0.
  constexpr std::size_t kN = 80;
  constexpr model::ItemId kRow = 3;
  QTable dense(kN), dense_local(kN), dense_base(kN);
  SparseQTable sparse(kN), sparse_local(kN), sparse_base(kN);
  auto set = [](QTable& d, SparseQTable& q, model::ItemId a, double value) {
    d.Set(kRow, a, value);
    q.Set(kRow, a, value);
  };
  for (model::ItemId a = 0; a < 80; ++a) {
    const double v = 0.125 * (a + 1);
    switch (a % 5) {
      case 0:  // this only
        set(dense, sparse, a, v);
        break;
      case 1:  // local only
        set(dense_local, sparse_local, a, -v);
        break;
      case 2:  // base only
        set(dense_base, sparse_base, a, v);
        break;
      case 3:  // local and base
        set(dense_local, sparse_local, a, 3.0 * v);
        set(dense_base, sparse_base, a, a == 8 ? 3.0 * v : v);
        break;
      default:  // all three
        set(dense, sparse, a, -v);
        set(dense_local, sparse_local, a, v);
        set(dense_base, sparse_base, a, 2.0 * v);
        break;
    }
  }
  dense.AccumulateDelta(dense_local, dense_base);
  sparse.AccumulateDelta(sparse_local, sparse_base);
  for (model::ItemId a = 0; a < 80; ++a) {
    const double want = dense.Get(kRow, a);
    const double got = sparse.Get(kRow, a);
    EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0) << "action " << a;
  }
  EXPECT_TRUE(SameCells(dense, sparse));
  // Every key of the row is stored now: 16 kept, 64 merged in.
  EXPECT_EQ(sparse.entry_count(), 80u);
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

  rl::SarsaLearner dense_learner(instance, reward, config, seed);
  rl::SparseSarsaLearner sparse_learner(instance, reward, config, seed);
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
