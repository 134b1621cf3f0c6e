// Tests for the util/simd.h kernel layer: the dispatch machinery (CPU
// detection, RLPLANNER_SIMD env override, per-level tables) and randomized
// scalar-vs-vector bit-exact equivalence for every kernel: the word kernels
// as a parameterized matrix (bit pattern x size x seed), the keyed-row
// argmax against the loops it replaced, and sparse training end to end.

#include "util/simd.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "datagen/synthetic.h"
#include "rl/recommender.h"
#include "rl/sarsa.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace rlplanner::util::simd {
namespace {

// Restores the env-resolved dispatch after tests that force a level, so the
// dispatch state never leaks into other tests in this binary.
class SimdTestBase : public ::testing::Test {
 protected:
  void TearDown() override { ResetDispatchForTesting(); }
};

// ------------------------------------------------------------- dispatch --

using DispatchTest = SimdTestBase;

TEST_F(DispatchTest, LevelNames) {
  EXPECT_STREQ(LevelName(Level::kScalar), "scalar");
  EXPECT_STREQ(LevelName(Level::kAvx2), "avx2");
}

TEST_F(DispatchTest, ParseLevel) {
  Level level = Level::kAvx2;
  bool auto_detect = true;
  EXPECT_TRUE(ParseLevel("off", &level, &auto_detect));
  EXPECT_EQ(level, Level::kScalar);
  EXPECT_FALSE(auto_detect);
  EXPECT_TRUE(ParseLevel("scalar", &level, &auto_detect));
  EXPECT_EQ(level, Level::kScalar);
  EXPECT_TRUE(ParseLevel("avx2", &level, &auto_detect));
  EXPECT_EQ(level, Level::kAvx2);
  EXPECT_TRUE(ParseLevel("auto", &level, &auto_detect));
  EXPECT_TRUE(auto_detect);
  EXPECT_EQ(level, DetectBestLevel());
  EXPECT_TRUE(ParseLevel("", &level, &auto_detect));
  EXPECT_TRUE(auto_detect);
  EXPECT_FALSE(ParseLevel("sse9", &level, &auto_detect));
  EXPECT_FALSE(ParseLevel("AVX2", &level, &auto_detect));
  // No NEON table: "neon" is an unknown value, which Active() resolves by
  // auto-detect like any other.
  EXPECT_FALSE(ParseLevel("neon", &level, &auto_detect));
}

TEST_F(DispatchTest, ScalarAlwaysAvailable) {
  EXPECT_TRUE(LevelCompiled(Level::kScalar));
  EXPECT_TRUE(LevelSupported(Level::kScalar));
  EXPECT_EQ(KernelsForLevel(Level::kScalar).level, Level::kScalar);
}

TEST_F(DispatchTest, UnsupportedLevelFallsBackToScalar) {
  const Kernels& table = KernelsForLevel(Level::kAvx2);
  if (LevelSupported(Level::kAvx2)) {
    EXPECT_EQ(table.level, Level::kAvx2);
  } else {
    EXPECT_EQ(table.level, Level::kScalar);
  }
}

TEST_F(DispatchTest, DetectBestLevelIsSupported) {
  EXPECT_TRUE(LevelSupported(DetectBestLevel()));
}

TEST_F(DispatchTest, ActiveHonorsEnvironment) {
  // ctest runs this binary both with RLPLANNER_SIMD unset (auto-detect) and
  // with RLPLANNER_SIMD=off / =avx2 (the simd_test_scalar / simd_test_avx2
  // entries), so each branch is exercised by the suite.
  ResetDispatchForTesting();
  const char* env = std::getenv("RLPLANNER_SIMD");
  Level expected = DetectBestLevel();
  bool auto_detect = true;
  if (env != nullptr && ParseLevel(env, &expected, &auto_detect) &&
      !LevelSupported(expected)) {
    expected = Level::kScalar;  // forced-but-unsupported falls back
  }
  EXPECT_EQ(ActiveLevel(), expected);
  EXPECT_STREQ(ActiveLevelName(), LevelName(expected));
}

TEST_F(DispatchTest, ForceLevelForTesting) {
  ForceLevelForTesting(Level::kScalar);
  EXPECT_EQ(ActiveLevel(), Level::kScalar);
  ForceLevelForTesting(DetectBestLevel());
  EXPECT_EQ(ActiveLevel(), DetectBestLevel());
}

TEST_F(DispatchTest, ConcurrentFirstUseResolvesOneTable) {
  ResetDispatchForTesting();
  constexpr int kThreads = 4;
  std::vector<const Kernels*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &seen] { seen[t] = &Active(); });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
}

// --------------------------------------------- word-kernel equivalence --

// Bit patterns the matrix crosses with sizes and seeds; the density
// extremes reach the early exits of the any/intersects kernels and the
// all-zero and all-ones words of the others.
enum class Pattern { kRandom, kSparse, kDense, kAllZero, kAllOnes, kBlocky };

const char* PatternName(Pattern p) {
  switch (p) {
    case Pattern::kRandom:
      return "random";
    case Pattern::kSparse:
      return "sparse";
    case Pattern::kDense:
      return "dense";
    case Pattern::kAllZero:
      return "all_zero";
    case Pattern::kAllOnes:
      return "all_ones";
    case Pattern::kBlocky:
      return "blocky";
  }
  return "?";
}

// Packed words for `bits` bits following `pattern`; tail bits past `bits`
// are zero, matching the DynamicBitset invariant the kernels assume.
std::vector<std::uint64_t> MakeWords(Pattern pattern, std::size_t bits,
                                     Rng& rng) {
  const std::size_t n = (bits + 63) / 64;
  std::vector<std::uint64_t> words(n, 0);
  for (std::size_t i = 0; i < bits; ++i) {
    bool set = false;
    switch (pattern) {
      case Pattern::kRandom:
        set = rng.NextBernoulli(0.5);
        break;
      case Pattern::kSparse:
        set = rng.NextBernoulli(0.02);
        break;
      case Pattern::kDense:
        set = rng.NextBernoulli(0.98);
        break;
      case Pattern::kAllZero:
        set = false;
        break;
      case Pattern::kAllOnes:
        set = true;
        break;
      case Pattern::kBlocky:
        set = (i / 37) % 2 == 0;
        break;
    }
    if (set) words[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  return words;
}

struct MatrixParam {
  Pattern pattern;
  std::size_t bits;
  std::uint64_t seed;
};

// Cross product of patterns x sizes x seeds (the installed googletest
// predates ConvertGenerator, so the matrix is enumerated by hand).
std::vector<MatrixParam> MakeMatrix(std::initializer_list<Pattern> patterns,
                                    std::initializer_list<std::size_t> sizes,
                                    std::initializer_list<std::uint64_t> seeds) {
  std::vector<MatrixParam> params;
  params.reserve(patterns.size() * sizes.size() * seeds.size());
  for (Pattern pattern : patterns) {
    for (std::size_t bits : sizes) {
      for (std::uint64_t seed : seeds) {
        params.push_back(MatrixParam{pattern, bits, seed});
      }
    }
  }
  return params;
}

std::string MatrixParamName(
    const ::testing::TestParamInfo<MatrixParam>& info) {
  return std::string(PatternName(info.param.pattern)) + "_" +
         std::to_string(info.param.bits) + "b_s" +
         std::to_string(info.param.seed);
}

class WordKernelMatrixTest : public SimdTestBase,
                             public ::testing::WithParamInterface<MatrixParam> {
};

TEST_P(WordKernelMatrixTest, AllWordKernelsMatchScalar) {
  const MatrixParam& param = GetParam();
  Rng rng(param.seed);
  const std::vector<std::uint64_t> a = MakeWords(param.pattern, param.bits, rng);
  const std::vector<std::uint64_t> b =
      MakeWords(Pattern::kRandom, param.bits, rng);
  const std::vector<std::uint64_t> c =
      MakeWords(Pattern::kRandom, param.bits, rng);
  const std::size_t n = a.size();
  const Kernels& scalar = KernelsForLevel(Level::kScalar);

  // The vector level when the host supports it, else scalar-vs-scalar as a
  // degenerate sanity row.
  const Kernels& vec = KernelsForLevel(DetectBestLevel());
  SCOPED_TRACE(LevelName(vec.level));

  EXPECT_EQ(vec.popcount_words(a.data(), n),
            scalar.popcount_words(a.data(), n));
  EXPECT_EQ(vec.intersect_count_words(a.data(), b.data(), n),
            scalar.intersect_count_words(a.data(), b.data(), n));
  EXPECT_EQ(
      vec.andnot_intersect_count_words(a.data(), b.data(), c.data(), n),
      scalar.andnot_intersect_count_words(a.data(), b.data(), c.data(), n));
  EXPECT_EQ(vec.intersects_words(a.data(), b.data(), n),
            scalar.intersects_words(a.data(), b.data(), n));
  EXPECT_EQ(vec.any_words(a.data(), n), scalar.any_words(a.data(), n));

  // Mutating kernels: run both paths on copies, compare the full arrays.
  using MutatingKernel = void (*)(std::uint64_t*, const std::uint64_t*,
                                  std::size_t);
  const struct {
    const char* name;
    MutatingKernel scalar_fn;
    MutatingKernel vector_fn;
  } mutating[] = {
      {"and_assign", scalar.and_assign_words, vec.and_assign_words},
      {"or_assign", scalar.or_assign_words, vec.or_assign_words},
      {"andnot_assign", scalar.andnot_assign_words, vec.andnot_assign_words},
      {"complement", scalar.complement_words, vec.complement_words},
  };
  for (const auto& kernel : mutating) {
    SCOPED_TRACE(kernel.name);
    std::vector<std::uint64_t> want = a;
    std::vector<std::uint64_t> got = a;
    kernel.scalar_fn(want.data(), b.data(), n);
    kernel.vector_fn(got.data(), b.data(), n);
    EXPECT_EQ(got, want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, WordKernelMatrixTest,
    // Sizes straddle the vector width (4 words = 256 bits), the
    // DynamicBitset inline-vs-kernel cutoff (512 bits), and ragged tails on
    // both sides.
    ::testing::ValuesIn(MakeMatrix(
        {Pattern::kRandom, Pattern::kSparse, Pattern::kDense,
         Pattern::kAllZero, Pattern::kAllOnes, Pattern::kBlocky},
        {0, 1, 63, 64, 65, 127, 128, 192, 255, 256, 257, 511, 512, 1000, 4096,
         4099},
        {7, 99, 20260807})),
    MatrixParamName);

// ------------------------------------------------- keyed-row argmax --

// What the pass-1 loops the keyed kernel replaced returned: the stored ∩
// allowed count and the winning action id (-1 when none).
struct KeyedReference {
  std::size_t count = 0;
  std::int64_t best = -1;
};

// MappedPolicy::ArgmaxAction's pass 1 over a sorted snapshot v2 row, as it
// read before the keyed kernel.
KeyedReference SortedRowReference(const std::vector<std::uint32_t>& keys,
                                  const std::vector<double>& values,
                                  const DynamicBitset& allowed) {
  std::int64_t best = -1;
  double best_value = 0.0;
  std::size_t stored_allowed = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (!allowed.Test(keys[i])) continue;
    ++stored_allowed;
    if (best < 0 || values[i] > best_value) {
      best = keys[i];
      best_value = values[i];
    }
  }
  return {stored_allowed, best};
}

constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFu;

// SparseQTable::ArgmaxAction's pass 1 over an unordered hash row with
// empty slots, as it read before the keyed kernel.
KeyedReference HashRowReference(const std::vector<std::uint32_t>& keys,
                                const std::vector<double>& values,
                                const DynamicBitset& allowed) {
  std::uint32_t best_stored = kEmptySlot;
  double best_value = 0.0;
  std::size_t stored_allowed = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint32_t key = keys[i];
    if (key == kEmptySlot || !allowed.Test(key)) continue;
    const double value = values[i];
    if (stored_allowed++ == 0 || value > best_value ||
        (value == best_value && key < best_stored)) {
      best_stored = key;
      best_value = value;
    }
  }
  return {stored_allowed,
          stored_allowed > 0 ? std::int64_t{best_stored} : std::int64_t{-1}};
}

::testing::AssertionResult KeyedMatches(const Kernels& table,
                                        const std::vector<std::uint32_t>& keys,
                                        const std::vector<double>& values,
                                        const DynamicBitset& allowed,
                                        const KeyedReference& want) {
  const KeyedArgmax got = table.argmax_keyed_f64(
      keys.data(), values.data(), keys.size(), allowed.word_data(),
      allowed.size());
  if (got.index >= static_cast<std::ptrdiff_t>(keys.size())) {
    return ::testing::AssertionFailure()
           << LevelName(table.level) << " index " << got.index
           << " past the row";
  }
  const std::int64_t got_key =
      got.index < 0 ? -1 : std::int64_t{keys[static_cast<std::size_t>(
                               got.index)]};
  if (got.count != want.count || got_key != want.best) {
    return ::testing::AssertionFailure()
           << LevelName(table.level) << " count " << got.count << " (want "
           << want.count << "), key " << got_key << " (want " << want.best
           << ")";
  }
  return ::testing::AssertionSuccess();
}

enum class KeyedValues { kTies, kInfinities, kNanFirst, kNanLater };

// Sets `values[i]` to NaN at the first allowed entry in row order (the one
// whose NaN decides) or only after it.
void PlantNans(KeyedValues mode, const std::vector<std::uint32_t>& keys,
               const DynamicBitset& allowed, Rng& rng,
               std::vector<double>* values) {
  if (mode != KeyedValues::kNanFirst && mode != KeyedValues::kNanLater) return;
  bool seen_first = false;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const bool is_allowed = keys[i] < allowed.size() && allowed.Test(keys[i]);
    if (is_allowed && !seen_first) {
      seen_first = true;
      if (mode == KeyedValues::kNanFirst) {
        (*values)[i] = std::numeric_limits<double>::quiet_NaN();
      }
      continue;
    }
    if (rng.NextBernoulli(0.2)) {
      (*values)[i] = std::numeric_limits<double>::quiet_NaN();
    }
  }
}

using KeyedArgmaxTest = SimdTestBase;

// Scalar and the dispatched table against the two loops the kernel
// replaced, on sorted rows and on unordered hash rows with empty slots.
TEST_F(KeyedArgmaxTest, MatchesBothReplacedLoops) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Few distinct values, so ties (+0.0 against -0.0 included) are common.
  constexpr double kTieValues[] = {-1.0, -0.5, -0.0, 0.0, 0.5, 1.0};
  std::vector<std::size_t> lengths;
  for (std::size_t length = 0; length <= 67; ++length) lengths.push_back(length);
  lengths.push_back(880);  // a scale10k_wire row
  const Kernels* tables[] = {&KernelsForLevel(Level::kScalar), &Active()};
  std::size_t cases = 0;
  for (std::size_t length : lengths) {
    const std::size_t num_items = length > 67 ? 10000 : 200;
    for (double density : {0.0, 1.0 / 64, 0.25, 0.5, 1.0}) {
      for (KeyedValues mode :
           {KeyedValues::kTies, KeyedValues::kInfinities,
            KeyedValues::kNanFirst, KeyedValues::kNanLater}) {
        for (std::uint64_t seed : {1u, 2u}) {
          Rng rng(seed * 1000003 + length * 31 + static_cast<int>(mode));
          // Keys straddling word edges and the last id, then random ones.
          std::set<std::uint32_t> key_set;
          for (std::size_t edge : {std::size_t{63}, std::size_t{64},
                                   std::size_t{127}, std::size_t{128},
                                   num_items - 1}) {
            if (key_set.size() < length) {
              key_set.insert(static_cast<std::uint32_t>(edge));
            }
          }
          while (key_set.size() < length) {
            key_set.insert(static_cast<std::uint32_t>(rng.NextIndex(num_items)));
          }
          const std::vector<std::uint32_t> sorted_keys(key_set.begin(),
                                                       key_set.end());
          std::vector<double> sorted_values(length);
          for (double& value : sorted_values) {
            value = kTieValues[rng.NextIndex(std::size(kTieValues))];
            if (mode == KeyedValues::kInfinities && rng.NextBernoulli(0.2)) {
              value = rng.NextBernoulli(0.5) ? kInf : -kInf;
            }
          }
          DynamicBitset allowed(num_items);
          for (std::size_t a = 0; a < num_items; ++a) {
            if (rng.NextBernoulli(density)) allowed.Set(a);
          }
          // The same entries scattered over a SparseQTable-sized hash row
          // (load <= 0.7, at least 8 slots).
          std::size_t capacity = 8;
          while (length * 10 > capacity * 7) capacity *= 2;
          std::vector<std::size_t> slots(capacity);
          for (std::size_t i = 0; i < capacity; ++i) slots[i] = i;
          for (std::size_t i = capacity; i > 1; --i) {
            std::swap(slots[i - 1], slots[rng.NextIndex(i)]);
          }
          std::vector<std::uint32_t> hash_keys(capacity, kEmptySlot);
          std::vector<double> hash_values(capacity, 0.0);
          for (std::size_t i = 0; i < length; ++i) {
            hash_keys[slots[i]] = sorted_keys[i];
            hash_values[slots[i]] = sorted_values[i];
          }
          PlantNans(mode, sorted_keys, allowed, rng, &sorted_values);
          PlantNans(mode, hash_keys, allowed, rng, &hash_values);

          const KeyedReference sorted_want =
              SortedRowReference(sorted_keys, sorted_values, allowed);
          const KeyedReference hash_want =
              HashRowReference(hash_keys, hash_values, allowed);
          for (const Kernels* table : tables) {
            ASSERT_TRUE(KeyedMatches(*table, sorted_keys, sorted_values,
                                     allowed, sorted_want))
                << "sorted row, length " << length << " density " << density
                << " mode " << static_cast<int>(mode) << " seed " << seed;
            ASSERT_TRUE(KeyedMatches(*table, hash_keys, hash_values, allowed,
                                     hash_want))
                << "hash row, length " << length << " density " << density
                << " mode " << static_cast<int>(mode) << " seed " << seed;
          }
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, lengths.size() * 5 * 4 * 2);
}

TEST_F(KeyedArgmaxTest, KeysPastTheAllowedSizeAreNeverAllowed) {
  // 130 allowed bits in 3 words whose tail bits 130..191 are set too: keys
  // there, and far past the words (up to the empty-slot marker), must
  // neither count nor win, in vector lanes and in the ragged tail alike.
  const std::vector<std::uint64_t> words(3, ~std::uint64_t{0});
  const std::vector<std::uint32_t> keys = {
      5,  130, 0x80000000u, 191, 129, kEmptySlot, 192, 0x7FFFFFFFu,  // vector
      64, 131, 1000,        kEmptySlot, 7, 150};                     // tail
  const std::vector<double> values = {1.0, 9.0, 9.0, 9.0, 2.0, 9.0, 9.0,
                                      9.0, 2.0, 9.0, 9.0, 9.0, 0.5, 9.0};
  for (const Kernels* table : {&KernelsForLevel(Level::kScalar), &Active()}) {
    SCOPED_TRACE(LevelName(table->level));
    const KeyedArgmax got = table->argmax_keyed_f64(
        keys.data(), values.data(), keys.size(), words.data(), 130);
    EXPECT_EQ(got.count, 4u);  // keys 5, 129, 64 and 7
    EXPECT_EQ(got.index, 8);   // 2.0 ties at keys 129 and 64: 64 wins
    // No bits at all: nothing is allowed and `allowed` is never read.
    const KeyedArgmax none = table->argmax_keyed_f64(
        keys.data(), values.data(), keys.size(), nullptr, 0);
    EXPECT_EQ(none.count, 0u);
    EXPECT_EQ(none.index, -1);
  }
}

// ------------------------------------------------- bitset plumbing --

using BitsetSimdTest = SimdTestBase;

// DynamicBitset routes through the dispatched kernels above its inline
// cutoff; a vector<bool> oracle pins the semantics on both sides of it.
TEST_F(BitsetSimdTest, BitsetOpsMatchOracleAcrossInlineCutoff) {
  for (std::size_t bits : {100u, 500u, 700u, 4099u}) {
    SCOPED_TRACE(bits);
    Rng rng(bits);
    DynamicBitset a(bits), b(bits), c(bits);
    std::vector<bool> oa(bits), ob(bits), oc(bits);
    for (std::size_t i = 0; i < bits; ++i) {
      if (rng.NextBernoulli(0.4)) {
        a.Set(i);
        oa[i] = true;
      }
      if (rng.NextBernoulli(0.4)) {
        b.Set(i);
        ob[i] = true;
      }
      if (rng.NextBernoulli(0.3)) {
        c.Set(i);
        oc[i] = true;
      }
    }
    std::size_t count = 0, inter = 0, fused = 0;
    bool intersects = false;
    for (std::size_t i = 0; i < bits; ++i) {
      count += oa[i] ? 1 : 0;
      inter += (oa[i] && ob[i]) ? 1 : 0;
      fused += (oa[i] && !ob[i] && oc[i]) ? 1 : 0;
      intersects = intersects || (oa[i] && ob[i]);
    }
    EXPECT_EQ(a.Count(), count);
    EXPECT_EQ(a.IntersectCount(b), inter);
    EXPECT_EQ(a.AndNotIntersectCount(b, c), fused);
    EXPECT_EQ(a.Intersects(b), intersects);

    DynamicBitset and_set = a;
    and_set &= b;
    DynamicBitset or_set = a;
    or_set |= b;
    DynamicBitset andnot_set = a;
    andnot_set.AndNotAssign(b);
    EXPECT_EQ(a.AndNotIntersectCount(b, c), andnot_set.IntersectCount(c));
    DynamicBitset complement;
    complement.AssignComplementOf(a);
    for (std::size_t i = 0; i < bits; ++i) {
      ASSERT_EQ(and_set.Test(i), oa[i] && ob[i]) << i;
      ASSERT_EQ(or_set.Test(i), oa[i] || ob[i]) << i;
      ASSERT_EQ(andnot_set.Test(i), oa[i] && !ob[i]) << i;
      ASSERT_EQ(complement.Test(i), !oa[i]) << i;
    }
    EXPECT_EQ(complement.Count(), bits - count);  // tail bits stay zero
  }
}

// --------------------------------------- cross-level training identity --

using TrainingDeterminismTest = SimdTestBase;

// The contract that lets dispatch vary freely across machines: training on
// the scalar table and on the best vector table must produce bit-identical
// policies for the same (seed, K), and those policies the same greedy
// plans. At 600 items every action bitset spans 10 words and every topic
// bitset 19, past DynamicBitset's 8-word inline cutoff, so the word kernels
// run; the sparse table's greedy steps run the keyed-row argmax.
TEST_F(TrainingDeterminismTest,
       ScalarAndVectorSparseTrainingAndPlansAreBitIdentical) {
  const Level best = DetectBestLevel();
  if (best == Level::kScalar) {
    GTEST_SKIP() << "no vector level supported on this machine";
  }
  datagen::SyntheticSpec spec;
  spec.num_items = 600;
  spec.vocab_size = 1200;
  const datagen::Dataset dataset = datagen::GenerateSynthetic(spec);
  const model::TaskInstance instance = dataset.Instance();
  const mdp::RewardWeights weights;
  const mdp::RewardFunction reward(instance, weights);

  rl::SarsaConfig serial_config;  // default policy_rounds
  serial_config.num_episodes = 60;
  serial_config.start_item = dataset.default_start;

  rl::SarsaConfig parallel_config = serial_config;
  parallel_config.num_workers = 3;

  ForceLevelForTesting(Level::kScalar);
  rl::SparseSarsaLearner scalar_serial(instance, reward, serial_config, 77);
  const mdp::SparseQTable scalar_serial_q = scalar_serial.Learn();
  rl::SparseSarsaLearner scalar_parallel(instance, reward, parallel_config,
                                         77);
  const mdp::SparseQTable scalar_parallel_q = scalar_parallel.Learn();

  ForceLevelForTesting(best);
  rl::SparseSarsaLearner vector_serial(instance, reward, serial_config, 77);
  const mdp::SparseQTable vector_serial_q = vector_serial.Learn();
  rl::SparseSarsaLearner vector_parallel(instance, reward, parallel_config,
                                         77);
  const mdp::SparseQTable vector_parallel_q = vector_parallel.Learn();

  EXPECT_GT(scalar_serial_q.entry_count(), 0u);
  EXPECT_TRUE(scalar_serial_q == vector_serial_q);
  EXPECT_TRUE(scalar_parallel_q == vector_parallel_q);
  EXPECT_EQ(scalar_serial.episode_returns(), vector_serial.episode_returns());

  // Training ranks its steps by reward and reads the Q argmax only in the
  // safety rollouts, so a keyed-kernel difference that flips no safety
  // verdict would not show above. A greedy plan runs the kernel at every
  // step's in-class tie-break.
  rl::RecommendConfig recommend;
  for (std::size_t start = 0; start < dataset.catalog.size(); ++start) {
    recommend.start_item = static_cast<model::ItemId>(start);
    ForceLevelForTesting(Level::kScalar);
    const model::Plan want =
        rl::RecommendPlan(scalar_serial_q, instance, reward, recommend);
    ForceLevelForTesting(best);
    ASSERT_EQ(
        rl::RecommendPlan(vector_serial_q, instance, reward, recommend).items(),
        want.items())
        << "start " << start;
  }
}

}  // namespace
}  // namespace rlplanner::util::simd
