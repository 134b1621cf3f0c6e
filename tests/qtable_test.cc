// Tests for the Q-table: accessors, the SARSA update rule (Eq. 9),
// argmax queries, scaling/noise used by policy iteration, and CSV
// round-tripping.

#include <gtest/gtest.h>

#include "mdp/q_table.h"
#include "util/rng.h"

namespace rlplanner::mdp {
namespace {

TEST(QTableTest, StartsAllZero) {
  const QTable q(4);
  EXPECT_EQ(q.num_items(), 4u);
  for (int s = 0; s < 4; ++s) {
    for (int a = 0; a < 4; ++a) {
      EXPECT_DOUBLE_EQ(q.Get(s, a), 0.0);
    }
  }
  EXPECT_DOUBLE_EQ(q.NonZeroFraction(), 0.0);
  EXPECT_DOUBLE_EQ(q.MaxAbsValue(), 0.0);
}

TEST(QTableTest, SetGetRoundTrip) {
  QTable q(3);
  q.Set(1, 2, 0.5);
  EXPECT_DOUBLE_EQ(q.Get(1, 2), 0.5);
  EXPECT_DOUBLE_EQ(q.Get(2, 1), 0.0);  // not symmetric
  EXPECT_NEAR(q.NonZeroFraction(), 1.0 / 9.0, 1e-12);
}

TEST(QTableTest, SarsaUpdateMatchesEquation9) {
  // Q(s,e) += alpha * (r + gamma * Q(s',e') - Q(s,e)).
  QTable q(3);
  q.Set(0, 1, 1.0);
  q.Set(1, 2, 2.0);
  q.SarsaUpdate(/*state=*/0, /*action=*/1, /*reward=*/0.5, /*next_state=*/1,
                /*next_action=*/2, /*alpha=*/0.5, /*gamma=*/0.9);
  // 1.0 + 0.5 * (0.5 + 0.9 * 2.0 - 1.0) = 1.0 + 0.5 * 1.3 = 1.65.
  EXPECT_DOUBLE_EQ(q.Get(0, 1), 1.65);
}

TEST(QTableTest, TerminalUpdateUsesZeroContinuation) {
  QTable q(2);
  q.Set(0, 1, 1.0);
  q.SarsaUpdate(0, 1, 2.0, /*next_state=*/-1, /*next_action=*/-1, 0.5, 0.9);
  // 1.0 + 0.5 * (2.0 + 0 - 1.0) = 1.5.
  EXPECT_DOUBLE_EQ(q.Get(0, 1), 1.5);
}

TEST(QTableTest, ArgmaxRespectsFilterAndBreaksTiesLow) {
  QTable q(4);
  q.Set(0, 1, 3.0);
  q.Set(0, 2, 5.0);
  q.Set(0, 3, 5.0);
  EXPECT_EQ(q.ArgmaxAction(0, [](model::ItemId) { return true; }), 2);
  EXPECT_EQ(q.ArgmaxAction(0, [](model::ItemId a) { return a != 2; }), 3);
  EXPECT_EQ(q.ArgmaxAction(0, [](model::ItemId) { return false; }), -1);
}

TEST(QTableTest, BitsetArgmaxMatchesCallbackOverload) {
  // The word-scan overload must reproduce the callback overload exactly,
  // including the lowest-allowed-id tie-break and the "all-negative row
  // still returns the first allowed id" behavior — checked on randomized
  // tables and randomized admissible sets, sized to cross word boundaries.
  util::Rng rng(99);
  for (const std::size_t n : {1u, 7u, 64u, 65u, 130u}) {
    QTable q(n);
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t a = 0; a < n; ++a) {
        // Coarse quantization forces frequent exact ties.
        q.Set(static_cast<model::ItemId>(s), static_cast<model::ItemId>(a),
              (static_cast<double>(rng.NextBounded(7)) - 3.0) / 2.0);
      }
    }
    for (int trial = 0; trial < 20; ++trial) {
      util::DynamicBitset allowed(n);
      for (std::size_t a = 0; a < n; ++a) {
        if (rng.NextBernoulli(trial % 2 == 0 ? 0.3 : 0.9)) allowed.Set(a);
      }
      const auto state =
          static_cast<model::ItemId>(rng.NextIndex(n));
      const model::ItemId via_callback = q.ArgmaxAction(
          state, [&](model::ItemId a) {
            return allowed.Test(static_cast<std::size_t>(a));
          });
      EXPECT_EQ(q.ArgmaxAction(state, allowed), via_callback)
          << "n=" << n << " state=" << state;
    }
  }
}

TEST(QTableTest, AccumulateDeltaFoldsWorkerDeltas) {
  QTable base(2);
  base.Set(0, 1, 1.0);
  QTable merged = base;
  QTable worker_a = base;
  worker_a.Set(0, 1, 1.5);   // delta +0.5
  worker_a.Set(1, 0, 2.0);   // delta +2.0
  QTable worker_b = base;
  worker_b.Set(0, 1, 0.25);  // delta -0.75
  merged.AccumulateDelta(worker_a, base);
  merged.AccumulateDelta(worker_b, base);
  EXPECT_DOUBLE_EQ(merged.Get(0, 1), 1.0 + 0.5 - 0.75);
  EXPECT_DOUBLE_EQ(merged.Get(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(merged.Get(1, 1), 0.0);
}

TEST(QTableTest, ScaleMultipliesEverything) {
  QTable q(2);
  q.Set(0, 1, 4.0);
  q.Set(1, 0, -2.0);
  q.Scale(0.5);
  EXPECT_DOUBLE_EQ(q.Get(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(q.Get(1, 0), -1.0);
}

TEST(QTableTest, AddNoiseBoundedAndNonNegative) {
  QTable q(5);
  util::Rng rng(3);
  q.AddNoise(rng, 0.1);
  for (int s = 0; s < 5; ++s) {
    for (int a = 0; a < 5; ++a) {
      EXPECT_GE(q.Get(s, a), 0.0);
      EXPECT_LT(q.Get(s, a), 0.1);
    }
  }
}

// Pins the documented tie-break contract: ArgmaxAction is deterministic and
// always prefers the lowest allowed id, including on all-zero and
// all-negative rows (unlike SarsaLearner::SelectAction, which randomizes
// exploitation ties during training).
TEST(QTableTest, ArgmaxTieBreakIsLowestAllowedId) {
  QTable q(4);
  // All-zero row: the full tie resolves to the lowest allowed id.
  EXPECT_EQ(q.ArgmaxAction(0, [](model::ItemId) { return true; }), 0);
  EXPECT_EQ(q.ArgmaxAction(0, [](model::ItemId a) { return a >= 2; }), 2);
  // All-negative row: the first allowed action still beats "no action".
  for (int a = 0; a < 4; ++a) q.Set(1, a, -5.0);
  EXPECT_EQ(q.ArgmaxAction(1, [](model::ItemId) { return true; }), 0);
  // A tie between two strict maxima resolves to the earlier id.
  q.Set(2, 1, 3.0);
  q.Set(2, 3, 3.0);
  EXPECT_EQ(q.ArgmaxAction(2, [](model::ItemId) { return true; }), 1);
}

TEST(QTableTest, MaxAbsTracksLargestMagnitude) {
  QTable q(2);
  q.Set(0, 0, -7.0);
  q.Set(1, 1, 3.0);
  EXPECT_DOUBLE_EQ(q.MaxAbsValue(), 7.0);
}

}  // namespace
}  // namespace rlplanner::mdp
