// Tests for the util/simd.h kernel layer: the dispatch machinery (CPU
// detection, RLPLANNER_SIMD env override, per-level tables) and randomized
// scalar-vs-vector bit-exact equivalence for every kernel, organized as a
// parameterized matrix (bit pattern x size x seed) in the same idiom as the
// mask/argmax old-vs-new equivalence tests of the parallel-training PR.

#include "util/simd.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "datagen/course_data.h"
#include "mdp/q_table.h"
#include "rl/parallel_sarsa.h"
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
  EXPECT_STREQ(LevelName(Level::kNeon), "neon");
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
  EXPECT_TRUE(ParseLevel("neon", &level, &auto_detect));
  EXPECT_EQ(level, Level::kNeon);
  EXPECT_TRUE(ParseLevel("auto", &level, &auto_detect));
  EXPECT_TRUE(auto_detect);
  EXPECT_EQ(level, DetectBestLevel());
  EXPECT_TRUE(ParseLevel("", &level, &auto_detect));
  EXPECT_TRUE(auto_detect);
  EXPECT_FALSE(ParseLevel("sse9", &level, &auto_detect));
  EXPECT_FALSE(ParseLevel("AVX2", &level, &auto_detect));
}

TEST_F(DispatchTest, ScalarAlwaysAvailable) {
  EXPECT_TRUE(LevelCompiled(Level::kScalar));
  EXPECT_TRUE(LevelSupported(Level::kScalar));
  EXPECT_EQ(KernelsForLevel(Level::kScalar).level, Level::kScalar);
}

TEST_F(DispatchTest, UnsupportedLevelFallsBackToScalar) {
  for (Level level : {Level::kNeon, Level::kAvx2}) {
    const Kernels& table = KernelsForLevel(level);
    if (LevelSupported(level)) {
      EXPECT_EQ(table.level, level);
    } else {
      EXPECT_EQ(table.level, Level::kScalar);
    }
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
// extremes matter because the AVX2 argmax skips zero words/nibbles and the
// scalar one extracts set bits, so sparse and dense inputs take different
// internal paths.
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

// Every vector level compiled into this binary and supported here, plus
// scalar-vs-scalar as a degenerate sanity row on machines with neither.
std::vector<Level> LevelsUnderTest() {
  std::vector<Level> levels;
  for (Level level : {Level::kNeon, Level::kAvx2}) {
    if (LevelSupported(level)) levels.push_back(level);
  }
  if (levels.empty()) levels.push_back(Level::kScalar);
  return levels;
}

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

  for (Level level : LevelsUnderTest()) {
    SCOPED_TRACE(LevelName(level));
    const Kernels& vec = KernelsForLevel(level);

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
        {"xor_assign", scalar.xor_assign_words, vec.xor_assign_words},
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

// ---------------------------------------------- f64-kernel equivalence --

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

class F64KernelMatrixTest : public SimdTestBase,
                            public ::testing::WithParamInterface<MatrixParam> {
};

TEST_P(F64KernelMatrixTest, AllF64KernelsMatchScalarBitExact) {
  const MatrixParam& param = GetParam();
  const std::size_t n = param.bits;  // reused as the element count
  Rng rng(param.seed);
  std::vector<double> x(n), y(n), base(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Mix of magnitudes, exact zeros (for count_nonzero), negative zeros,
    // and duplicated values (for argmax ties).
    const double quantized =
        std::floor(rng.NextDouble() * 16.0) / 16.0 - 0.5;
    x[i] = rng.NextBernoulli(0.1) ? 0.0 : quantized * 1e3;
    if (rng.NextBernoulli(0.05)) x[i] = -0.0;
    y[i] = (rng.NextDouble() - 0.5) * 1e-3;
    base[i] = (rng.NextDouble() - 0.5) * 1e-3;
  }
  const std::vector<std::uint64_t> mask =
      MakeWords(param.pattern, n, rng);
  const Kernels& scalar = KernelsForLevel(Level::kScalar);

  for (Level level : LevelsUnderTest()) {
    SCOPED_TRACE(LevelName(level));
    const Kernels& vec = KernelsForLevel(level);

    EXPECT_EQ(Bits(vec.dot_f64(x.data(), y.data(), n)),
              Bits(scalar.dot_f64(x.data(), y.data(), n)));
    EXPECT_EQ(Bits(vec.max_abs_f64(x.data(), n)),
              Bits(scalar.max_abs_f64(x.data(), n)));
    EXPECT_EQ(vec.count_nonzero_f64(x.data(), n),
              scalar.count_nonzero_f64(x.data(), n));
    EXPECT_EQ(vec.argmax_masked_f64(x.data(), n, mask.data(), mask.size()),
              scalar.argmax_masked_f64(x.data(), n, mask.data(), mask.size()));

    {
      std::vector<double> want = y;
      std::vector<double> got = y;
      scalar.axpy_f64(0.371, x.data(), want.data(), n);
      vec.axpy_f64(0.371, x.data(), got.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(Bits(got[i]), Bits(want[i])) << "axpy index " << i;
      }
    }
    {
      std::vector<double> want = x;
      std::vector<double> got = x;
      scalar.scale_f64(want.data(), 0.9361, n);
      vec.scale_f64(got.data(), 0.9361, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(Bits(got[i]), Bits(want[i])) << "scale index " << i;
      }
    }
    {
      std::vector<double> want = y;
      std::vector<double> got = y;
      scalar.accumulate_delta_f64(want.data(), x.data(), base.data(), n);
      vec.accumulate_delta_f64(got.data(), x.data(), base.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(Bits(got[i]), Bits(want[i])) << "accumulate index " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, F64KernelMatrixTest,
    // The mask pattern drives argmax coverage: sparse/dense/empty admissible
    // sets over the same value arrays. Element counts straddle the 4-lane
    // width and ragged tails.
    ::testing::ValuesIn(MakeMatrix(
        {Pattern::kRandom, Pattern::kSparse, Pattern::kDense,
         Pattern::kAllZero, Pattern::kAllOnes},
        {0, 1, 3, 4, 5, 7, 8, 31, 100, 114, 500, 1023, 1024, 4097},
        {11, 42, 20260807})),
    MatrixParamName);

// ------------------------------------------------- argmax edge cases --

using ArgmaxTest = SimdTestBase;

TEST_F(ArgmaxTest, EmptyMaskReturnsMinusOne) {
  const std::vector<double> values(130, 1.0);
  const std::vector<std::uint64_t> mask(3, 0);
  for (Level level : LevelsUnderTest()) {
    EXPECT_EQ(KernelsForLevel(level).argmax_masked_f64(values.data(), 130,
                                                       mask.data(), 3),
              -1)
        << LevelName(level);
  }
}

TEST_F(ArgmaxTest, TiesResolveToLowestAllowedIndex) {
  // All values equal: the first allowed index must win, exactly like the
  // callback overload's strictly-greater replacement rule.
  std::vector<double> values(200, 3.25);
  std::vector<std::uint64_t> mask(4, 0);
  mask[1] |= std::uint64_t{1} << 5;   // bit 69
  mask[2] |= std::uint64_t{1} << 60;  // bit 188
  for (Level level : LevelsUnderTest()) {
    EXPECT_EQ(KernelsForLevel(level).argmax_masked_f64(values.data(), 200,
                                                       mask.data(), 4),
              69)
        << LevelName(level);
  }
}

TEST_F(ArgmaxTest, AllNegativeValuesStillReturnFirstAllowed) {
  std::vector<double> values(100, -7.5);
  values[40] = -7.5;
  std::vector<std::uint64_t> mask(2, 0);
  mask[0] |= std::uint64_t{1} << 40;
  mask[1] |= std::uint64_t{1} << 1;  // bit 65
  for (Level level : LevelsUnderTest()) {
    EXPECT_EQ(KernelsForLevel(level).argmax_masked_f64(values.data(), 100,
                                                       mask.data(), 2),
              40)
        << LevelName(level);
  }
}

TEST_F(ArgmaxTest, MaxInRaggedTail) {
  // 114 values (Univ-1 scale): the maximum sits past the last full 4-lane
  // group, exercising the vector kernel's scalar tail.
  std::vector<double> values(114, 0.0);
  values[113] = 9.0;
  std::vector<std::uint64_t> mask(2, ~std::uint64_t{0});
  mask[1] &= (std::uint64_t{1} << (114 - 64)) - 1;  // trim tail bits
  for (Level level : LevelsUnderTest()) {
    EXPECT_EQ(KernelsForLevel(level).argmax_masked_f64(values.data(), 114,
                                                       mask.data(), 2),
              113)
        << LevelName(level);
  }
}

// ------------------------------------------- bitset + QTable plumbing --

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
    EXPECT_EQ(a.AndNotIntersectCount(b, c),
              a.AndNot(b).IntersectCount(c));

    DynamicBitset and_set = a;
    and_set &= b;
    DynamicBitset or_set = a;
    or_set |= b;
    DynamicBitset xor_set = a;
    xor_set ^= b;
    DynamicBitset andnot_set = a;
    andnot_set.AndNotAssign(b);
    DynamicBitset complement;
    complement.AssignComplementOf(a);
    for (std::size_t i = 0; i < bits; ++i) {
      ASSERT_EQ(and_set.Test(i), oa[i] && ob[i]) << i;
      ASSERT_EQ(or_set.Test(i), oa[i] || ob[i]) << i;
      ASSERT_EQ(xor_set.Test(i), oa[i] != ob[i]) << i;
      ASSERT_EQ(andnot_set.Test(i), oa[i] && !ob[i]) << i;
      ASSERT_EQ(complement.Test(i), !oa[i]) << i;
    }
    EXPECT_EQ(complement.Count(), bits - count);  // tail bits stay zero
  }
}

TEST_F(BitsetSimdTest, QTableBitsetArgmaxMatchesCallbackOverload) {
  constexpr std::size_t kItems = 300;
  mdp::QTable q(kItems);
  Rng rng(2024);
  for (std::size_t s = 0; s < kItems; ++s) {
    for (std::size_t a = 0; a < kItems; ++a) {
      // Quantized values force frequent exact ties.
      q.Set(static_cast<int>(s), static_cast<int>(a),
            std::floor(rng.NextDouble() * 8.0) / 8.0);
    }
  }
  for (Level level : LevelsUnderTest()) {
    SCOPED_TRACE(LevelName(level));
    ForceLevelForTesting(level);
    for (double density : {0.0, 0.03, 0.5, 1.0}) {
      Rng mask_rng(static_cast<std::uint64_t>(density * 1000) + 1);
      DynamicBitset allowed(kItems);
      for (std::size_t i = 0; i < kItems; ++i) {
        if (mask_rng.NextBernoulli(density)) allowed.Set(i);
      }
      for (int state = 0; state < 50; ++state) {
        const auto want = q.ArgmaxAction(
            state, [&](model::ItemId id) {
              return allowed.Test(static_cast<std::size_t>(id));
            });
        const auto got = q.ArgmaxAction(state, allowed);
        ASSERT_EQ(got, want) << "state " << state << " density " << density;
      }
    }
  }
}

// --------------------------------------- cross-level training identity --

using TrainingDeterminismTest = SimdTestBase;

// The contract that lets dispatch vary freely across machines: training on
// the scalar table and on the best vector table must produce bit-identical
// policies for the same (seed, K).
TEST_F(TrainingDeterminismTest, ScalarAndVectorTrainingAreBitIdentical) {
  const Level best = DetectBestLevel();
  if (best == Level::kScalar) {
    GTEST_SKIP() << "no vector level supported on this machine";
  }
  datagen::Dataset dataset = datagen::MakeUniv1DsCt();
  const model::TaskInstance instance = dataset.Instance();
  const mdp::RewardWeights weights;
  const mdp::RewardFunction reward(instance, weights);

  rl::SarsaConfig serial_config;
  serial_config.num_episodes = 120;
  serial_config.start_item = dataset.default_start;

  rl::SarsaConfig parallel_config = serial_config;
  parallel_config.num_workers = 3;

  ForceLevelForTesting(Level::kScalar);
  rl::SarsaLearner scalar_serial(instance, reward, serial_config, 77);
  const mdp::QTable scalar_serial_q = scalar_serial.Learn();
  rl::ParallelSarsaLearner scalar_parallel(instance, reward, parallel_config,
                                           77);
  const mdp::QTable scalar_parallel_q = scalar_parallel.Learn();

  ForceLevelForTesting(best);
  rl::SarsaLearner vector_serial(instance, reward, serial_config, 77);
  const mdp::QTable vector_serial_q = vector_serial.Learn();
  rl::ParallelSarsaLearner vector_parallel(instance, reward, parallel_config,
                                           77);
  const mdp::QTable vector_parallel_q = vector_parallel.Learn();

  EXPECT_TRUE(scalar_serial_q == vector_serial_q);
  EXPECT_TRUE(scalar_parallel_q == vector_parallel_q);
  EXPECT_EQ(scalar_serial.episode_returns(), vector_serial.episode_returns());
}

}  // namespace
}  // namespace rlplanner::util::simd
