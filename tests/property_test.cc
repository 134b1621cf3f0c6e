// Randomized property tests: core data structures are checked against
// brute-force reference implementations over seeded random inputs.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "mdp/similarity.h"
#include "model/prereq.h"
#include "util/bitset.h"
#include "util/csv.h"
#include "util/rng.h"

namespace rlplanner {
namespace {

// ------------------------------------------------ bitset vs vector<bool> --

class BitsetPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BitsetPropertyTest, MatchesReferenceImplementation) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t size = 1 + rng.NextIndex(200);
  util::DynamicBitset a(size);
  util::DynamicBitset b(size);
  std::vector<bool> ref_a(size, false);
  std::vector<bool> ref_b(size, false);
  for (std::size_t i = 0; i < size; ++i) {
    if (rng.NextBernoulli(0.4)) {
      a.Set(i);
      ref_a[i] = true;
    }
    if (rng.NextBernoulli(0.4)) {
      b.Set(i);
      ref_b[i] = true;
    }
  }

  // Count / Test.
  std::size_t ref_count = 0;
  for (std::size_t i = 0; i < size; ++i) {
    EXPECT_EQ(a.Test(i), ref_a[i]);
    if (ref_a[i]) ++ref_count;
  }
  EXPECT_EQ(a.Count(), ref_count);

  // IntersectCount / Intersects / AndNotAssign.
  std::size_t ref_inter = 0;
  std::size_t ref_andnot = 0;
  for (std::size_t i = 0; i < size; ++i) {
    if (ref_a[i] && ref_b[i]) ++ref_inter;
    if (ref_a[i] && !ref_b[i]) ++ref_andnot;
  }
  EXPECT_EQ(a.IntersectCount(b), ref_inter);
  EXPECT_EQ(a.Intersects(b), ref_inter > 0);
  util::DynamicBitset a_minus_b = a;
  a_minus_b.AndNotAssign(b);
  EXPECT_EQ(a_minus_b.Count(), ref_andnot);

  // OR / AND.
  util::DynamicBitset or_ab = a;
  or_ab |= b;
  util::DynamicBitset and_ab = a;
  and_ab &= b;
  for (std::size_t i = 0; i < size; ++i) {
    EXPECT_EQ(or_ab.Test(i), ref_a[i] || ref_b[i]);
    EXPECT_EQ(and_ab.Test(i), ref_a[i] && ref_b[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitsetPropertyTest, ::testing::Range(1, 26));

// -------------------------------------------------------- CSV round trips --

class CsvPropertyTest : public ::testing::TestWithParam<int> {};

std::string RandomField(util::Rng& rng) {
  static const char* kAlphabet =
      "abcXYZ019 ,\"\n\r;|\t'~`!@#$%^&*()_+-=[]{}";
  const std::size_t length = rng.NextIndex(12);
  std::string out;
  for (std::size_t i = 0; i < length; ++i) {
    out.push_back(kAlphabet[rng.NextIndex(std::strlen(kAlphabet))]);
  }
  return out;
}

TEST_P(CsvPropertyTest, ArbitraryContentRoundTrips) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  util::CsvDocument doc;
  const std::size_t columns = 1 + rng.NextIndex(6);
  for (std::size_t c = 0; c < columns; ++c) {
    doc.header.push_back("col" + std::to_string(c));
  }
  const std::size_t rows = rng.NextIndex(15);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    for (std::size_t c = 0; c < columns; ++c) {
      row.push_back(RandomField(rng));
    }
    doc.rows.push_back(std::move(row));
  }

  auto reparsed = util::ParseCsv(util::WriteCsv(doc));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed.value().header, doc.header);
  EXPECT_EQ(reparsed.value().rows, doc.rows);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvPropertyTest, ::testing::Range(1, 31));

TEST(CsvPropertyTest, GarbageInputNeverCrashes) {
  util::Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage;
    const std::size_t length = rng.NextIndex(80);
    for (std::size_t i = 0; i < length; ++i) {
      garbage.push_back(static_cast<char>(rng.NextInt(1, 126)));
    }
    // Must either parse or return an error — never crash or hang.
    (void)util::ParseCsv(garbage);
  }
}

// ------------------------------------------ prereq CNF vs brute semantics --

class PrereqPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PrereqPropertyTest, SatisfiedAtMatchesBruteForce) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 3);
  const int universe = 8;
  // Random CNF with 1-3 groups of 1-3 members each.
  model::PrereqExpr expr;
  std::vector<std::vector<model::ItemId>> groups;
  const int num_groups = rng.NextInt(1, 3);
  for (int g = 0; g < num_groups; ++g) {
    std::vector<model::ItemId> group;
    const int members = rng.NextInt(1, 3);
    for (int m = 0; m < members; ++m) {
      group.push_back(static_cast<model::ItemId>(rng.NextIndex(universe)));
    }
    groups.push_back(group);
    expr.AddGroup(group);
  }

  for (int trial = 0; trial < 30; ++trial) {
    // Random placement of items at positions 0..9 or absent.
    std::vector<int> positions(universe, -1);
    for (int i = 0; i < universe; ++i) {
      if (rng.NextBernoulli(0.6)) positions[i] = rng.NextInt(0, 9);
    }
    const int candidate_pos = rng.NextInt(0, 12);
    const int gap = rng.NextInt(1, 4);

    bool expected = true;
    for (const auto& group : groups) {
      bool group_ok = false;
      for (model::ItemId member : group) {
        if (positions[member] >= 0 &&
            candidate_pos - positions[member] >= gap) {
          group_ok = true;
        }
      }
      expected = expected && group_ok;
    }
    EXPECT_EQ(expr.SatisfiedAt(positions, candidate_pos, gap), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrereqPropertyTest, ::testing::Range(1, 21));

// ------------------------------------------------- similarity vs brute Eq.6

class SimilarityBruteTest : public ::testing::TestWithParam<int> {};

TEST_P(SimilarityBruteTest, MatchesDirectFormula) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 17 + 1);
  auto random_seq = [&rng](std::size_t length) {
    model::TypeSequence seq;
    for (std::size_t i = 0; i < length; ++i) {
      seq.push_back(rng.NextBernoulli(0.5) ? model::ItemType::kPrimary
                                           : model::ItemType::kSecondary);
    }
    return seq;
  };
  const std::size_t k = 1 + rng.NextIndex(12);
  const model::TypeSequence seq = random_seq(k);
  const model::TypeSequence perm = random_seq(1 + rng.NextIndex(12));

  // Direct Eq. 6: zeta * matches / k.
  int matches = 0;
  int zeta = 0;
  int run = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const bool hit = j < perm.size() && seq[j] == perm[j];
    matches += hit ? 1 : 0;
    run = hit ? run + 1 : 0;
    zeta = std::max(zeta, run);
  }
  const double expected =
      static_cast<double>(zeta) * matches / static_cast<double>(k);
  EXPECT_DOUBLE_EQ(mdp::SequenceSimilarity(seq, perm), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimilarityBruteTest, ::testing::Range(1, 41));

}  // namespace
}  // namespace rlplanner
