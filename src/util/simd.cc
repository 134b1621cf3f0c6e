#include "util/simd.h"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>

namespace rlplanner::util::simd {

// ---------------------------------------------------------------------------
// Scalar kernels. These define the semantics every other level must match
// bit-for-bit; this translation unit is compiled with -ffp-contract=off so
// the compiler cannot fuse the mul+add pairs the vector paths keep separate.
// ---------------------------------------------------------------------------

namespace {

std::size_t ScalarPopcountWords(const std::uint64_t* words, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += std::popcount(words[i]);
  return total;
}

std::size_t ScalarIntersectCountWords(const std::uint64_t* a,
                                      const std::uint64_t* b, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += std::popcount(a[i] & b[i]);
  return total;
}

std::size_t ScalarAndNotIntersectCountWords(const std::uint64_t* a,
                                            const std::uint64_t* b,
                                            const std::uint64_t* c,
                                            std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += std::popcount(a[i] & ~b[i] & c[i]);
  }
  return total;
}

bool ScalarIntersectsWords(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

bool ScalarAnyWords(const std::uint64_t* words, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (words[i] != 0) return true;
  }
  return false;
}

void ScalarAndAssignWords(std::uint64_t* dst, const std::uint64_t* src,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] &= src[i];
}

void ScalarOrAssignWords(std::uint64_t* dst, const std::uint64_t* src,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] |= src[i];
}

void ScalarXorAssignWords(std::uint64_t* dst, const std::uint64_t* src,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
}

void ScalarAndNotAssignWords(std::uint64_t* dst, const std::uint64_t* src,
                             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] &= ~src[i];
}

void ScalarComplementWords(std::uint64_t* dst, const std::uint64_t* src,
                           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = ~src[i];
}

// Blocked 4-accumulator dot: the fixed summation order all levels share
// (lane j accumulates indices ≡ j mod 4; lanes combine as (0+2)+(1+3), then
// the tail adds left to right). AVX2 reproduces this order exactly with one
// 4-lane vector accumulator.
double ScalarDotF64(const double* a, const double* b, std::size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  double total = (acc0 + acc2) + (acc1 + acc3);
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

void ScalarAxpyF64(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = y[i] + a * x[i];
}

void ScalarScaleF64(double* v, double factor, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) v[i] *= factor;
}

void ScalarAccumulateDeltaF64(double* q, const double* local,
                              const double* base, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) q[i] += local[i] - base[i];
}

double ScalarMaxAbsF64(const double* v, std::size_t n) {
  double best = 0.0;
  for (std::size_t i = 0; i < n; ++i) best = std::max(best, std::abs(v[i]));
  return best;
}

std::size_t ScalarCountNonZeroF64(const double* v, std::size_t n) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (v[i] != 0.0) ++count;
  }
  return count;
}

std::ptrdiff_t ScalarArgmaxMaskedF64(const double* values, std::size_t n,
                                     const std::uint64_t* mask,
                                     std::size_t num_words) {
  std::ptrdiff_t best = -1;
  double best_value = 0.0;
  for (std::size_t w = 0; w < num_words; ++w) {
    std::uint64_t word = mask[w];
    while (word != 0) {
      const std::size_t i =
          w * 64 + static_cast<std::size_t>(std::countr_zero(word));
      word &= word - 1;
      if (i >= n) return best;  // defensive: tail bits should be zero
      const double value = values[i];
      if (best < 0 || value > best_value) {
        best = static_cast<std::ptrdiff_t>(i);
        best_value = value;
      }
    }
  }
  return best;
}

constexpr Kernels kScalarKernels = {
    Level::kScalar,
    &ScalarPopcountWords,
    &ScalarIntersectCountWords,
    &ScalarAndNotIntersectCountWords,
    &ScalarIntersectsWords,
    &ScalarAnyWords,
    &ScalarAndAssignWords,
    &ScalarOrAssignWords,
    &ScalarXorAssignWords,
    &ScalarAndNotAssignWords,
    &ScalarComplementWords,
    &ScalarDotF64,
    &ScalarAxpyF64,
    &ScalarScaleF64,
    &ScalarAccumulateDeltaF64,
    &ScalarMaxAbsF64,
    &ScalarCountNonZeroF64,
    &ScalarArgmaxMaskedF64,
};

}  // namespace

// Implemented in simd_avx2.cc / simd_neon.cc; null when not compiled in.
const Kernels* GetAvx2Kernels();
const Kernels* GetNeonKernels();

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kNeon:
      return "neon";
    case Level::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool LevelCompiled(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kNeon:
      return GetNeonKernels() != nullptr;
    case Level::kAvx2:
      return GetAvx2Kernels() != nullptr;
  }
  return false;
}

namespace {

bool CpuSupports(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kNeon:
      // The NEON kernels are only compiled on aarch64, where ASIMD is part
      // of the baseline ISA: compiled-in implies supported.
      return true;
    case Level::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

}  // namespace

bool LevelSupported(Level level) {
  return LevelCompiled(level) && CpuSupports(level);
}

Level DetectBestLevel() {
  if (LevelSupported(Level::kAvx2)) return Level::kAvx2;
  if (LevelSupported(Level::kNeon)) return Level::kNeon;
  return Level::kScalar;
}

bool ParseLevel(std::string_view text, Level* level, bool* auto_detect) {
  *auto_detect = false;
  if (text == "off" || text == "scalar") {
    *level = Level::kScalar;
    return true;
  }
  if (text == "neon") {
    *level = Level::kNeon;
    return true;
  }
  if (text == "avx2") {
    *level = Level::kAvx2;
    return true;
  }
  if (text.empty() || text == "auto") {
    *auto_detect = true;
    *level = DetectBestLevel();
    return true;
  }
  return false;
}

const Kernels& KernelsForLevel(Level level) {
  if (LevelSupported(level)) {
    switch (level) {
      case Level::kScalar:
        break;
      case Level::kNeon:
        return *GetNeonKernels();
      case Level::kAvx2:
        return *GetAvx2Kernels();
    }
  }
  return kScalarKernels;
}

namespace {

const Kernels& ResolveFromEnvironment() {
  const char* env = std::getenv("RLPLANNER_SIMD");
  Level level = DetectBestLevel();
  bool auto_detect = true;
  if (env != nullptr && !ParseLevel(env, &level, &auto_detect)) {
    // Unknown value: keep auto-detect (never fail startup on a typo).
    level = DetectBestLevel();
  }
  return KernelsForLevel(level);
}

std::atomic<const Kernels*>& ActiveSlot() {
  static std::atomic<const Kernels*> slot{nullptr};
  return slot;
}

}  // namespace

const Kernels& Active() {
  const Kernels* table = ActiveSlot().load(std::memory_order_acquire);
  if (table == nullptr) {
    // First use (or post-reset): resolve from the environment. Concurrent
    // first calls race benignly — every resolution yields the same table.
    table = &ResolveFromEnvironment();
    ActiveSlot().store(table, std::memory_order_release);
  }
  return *table;
}

Level ActiveLevel() { return Active().level; }

const char* ActiveLevelName() { return LevelName(ActiveLevel()); }

void ForceLevelForTesting(Level level) {
  ActiveSlot().store(&KernelsForLevel(level), std::memory_order_release);
}

void ResetDispatchForTesting() {
  ActiveSlot().store(nullptr, std::memory_order_release);
}

}  // namespace rlplanner::util::simd
