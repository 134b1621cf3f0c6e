#include "util/simd.h"

#include <atomic>
#include <bit>
#include <cstdlib>

namespace rlplanner::util::simd {

// ---------------------------------------------------------------------------
// Scalar kernels. These define the semantics every other level must match
// bit-for-bit.
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

void ScalarAndNotAssignWords(std::uint64_t* dst, const std::uint64_t* src,
                             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] &= ~src[i];
}

void ScalarComplementWords(std::uint64_t* dst, const std::uint64_t* src,
                           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = ~src[i];
}

KeyedArgmax ScalarArgmaxKeyedF64(const std::uint32_t* keys,
                                 const double* values, std::size_t n,
                                 const std::uint64_t* allowed,
                                 std::size_t allowed_size) {
  // The first allowed entry is adopted unconditionally and replaced only by
  // a greater value or an equal one under a lower key, so a NaN there holds
  // and a later NaN never compares in.
  KeyedArgmax result;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t key = keys[i];
    if (key >= allowed_size || ((allowed[key / 64] >> (key % 64)) & 1) == 0) {
      continue;
    }
    const auto best = static_cast<std::size_t>(result.index);
    if (result.count++ == 0 || values[i] > values[best] ||
        (values[i] == values[best] && key < keys[best])) {
      result.index = static_cast<std::ptrdiff_t>(i);
    }
  }
  return result;
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
    &ScalarAndNotAssignWords,
    &ScalarComplementWords,
    &ScalarArgmaxKeyedF64,
};

}  // namespace

// Implemented in simd_avx2.cc; null when not compiled in.
const Kernels* GetAvx2Kernels();

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool LevelCompiled(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
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
  return LevelSupported(Level::kAvx2) ? Level::kAvx2 : Level::kScalar;
}

bool ParseLevel(std::string_view text, Level* level, bool* auto_detect) {
  *auto_detect = false;
  if (text == "off" || text == "scalar") {
    *level = Level::kScalar;
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
  if (level == Level::kAvx2 && LevelSupported(level)) {
    return *GetAvx2Kernels();
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
