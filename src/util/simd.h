#ifndef RLPLANNER_UTIL_SIMD_H_
#define RLPLANNER_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace rlplanner::util::simd {

/// Instruction-set level of a kernel table. Every kernel is bit-exact across
/// levels (see below), so falling back to scalar is always safe.
enum class Level {
  kScalar = 0,  // portable C++, always available
  kAvx2 = 1,    // x86-64 AVX2; other targets run the scalar table
};

/// Lower-case level name ("scalar", "avx2") for bench JSON and logs.
const char* LevelName(Level level);

/// True when this binary contains an implementation for `level` (compile-time
/// gate: the AVX2 translation unit is only built on x86 with -mavx2 support).
bool LevelCompiled(Level level);

/// True when `level` is compiled in *and* the running CPU supports it.
bool LevelSupported(Level level);

/// Best supported level on this machine (kScalar when nothing else is).
Level DetectBestLevel();

/// Parses an RLPLANNER_SIMD value: "off"/"scalar" -> kScalar, "avx2" ->
/// kAvx2, "auto"/"" -> sets *auto_detect. Returns false on anything else
/// (the caller treats unknown values as "auto").
bool ParseLevel(std::string_view text, Level* level, bool* auto_detect);

/// Result of `Kernels::argmax_keyed_f64`.
struct KeyedArgmax {
  std::size_t count = 0;      // row entries whose key is allowed
  std::ptrdiff_t index = -1;  // row position of the winner; -1 when count == 0
};

/// One-time-dispatched kernel table. Every kernel is defined to produce a
/// result *bitwise identical* to the scalar implementation for the same
/// inputs: the word kernels are integer operations, and `argmax_keyed_f64`
/// only compares values, never computes them. This is what lets the
/// deterministic trainer run on any level without perturbing the (seed, K)
/// -> policy guarantee. `argmax_keyed_f64` reads mapped snapshot values,
/// whose payload checksum `MappedPolicy::Map` does not verify, so it fixes
/// its own NaN rule and every level keeps it.
struct Kernels {
  Level level;

  // --- u64 word kernels (DynamicBitset substrate) -------------------------
  // Whole-set word operations only: rl::StepRanker maintains the per-step
  // theta set from posting lists, so no kernel filters catalog rows.
  // Total set bits in words[0..n).
  std::size_t (*popcount_words)(const std::uint64_t* words, std::size_t n);
  // popcount(a & b): the topic-coverage "dot product" over Boolean vectors.
  std::size_t (*intersect_count_words)(const std::uint64_t* a,
                                       const std::uint64_t* b, std::size_t n);
  // popcount(a & ~b & c): fused "newly covered ideal topics" kernel.
  std::size_t (*andnot_intersect_count_words)(const std::uint64_t* a,
                                              const std::uint64_t* b,
                                              const std::uint64_t* c,
                                              std::size_t n);
  // True when (a & b) has any set bit / when a has any set bit.
  bool (*intersects_words)(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n);
  bool (*any_words)(const std::uint64_t* words, std::size_t n);
  // dst op= src, elementwise over n words.
  void (*and_assign_words)(std::uint64_t* dst, const std::uint64_t* src,
                           std::size_t n);
  void (*or_assign_words)(std::uint64_t* dst, const std::uint64_t* src,
                          std::size_t n);
  // dst &= ~src (set difference) and dst = ~src (complement seed).
  void (*andnot_assign_words)(std::uint64_t* dst, const std::uint64_t* src,
                              std::size_t n);
  void (*complement_words)(std::uint64_t* dst, const std::uint64_t* src,
                           std::size_t n);
  // --- keyed-row kernel (snapshot v2 rows, SparseQTable hash rows) --------
  // Masked argmax over a keyed row: entry i holds values[i] for action
  // keys[i], and keys are distinct within the row (ascending or unordered).
  // An entry is allowed when keys[i] < allowed_size and bit keys[i] of
  // `allowed` (ceil(allowed_size / 64) words) is set; any other key, such as
  // a hash row's 0xFFFFFFFF empty slot, is skipped without indexing
  // `allowed`. Returns the allowed count and the winner among them: the
  // first allowed entry in row order if its value is NaN, otherwise the
  // lowest key attaining the maximum, where later NaNs never win, +0.0 and
  // -0.0 tie, and +-inf are ordinary values.
  KeyedArgmax (*argmax_keyed_f64)(const std::uint32_t* keys,
                                  const double* values, std::size_t n,
                                  const std::uint64_t* allowed,
                                  std::size_t allowed_size);
};

/// Kernel table for `level`, falling back to scalar when the level is not
/// supported on this machine. Always safe to call.
const Kernels& KernelsForLevel(Level level);

/// The process-wide active table: resolved once, on first use, from the
/// RLPLANNER_SIMD environment variable (off|scalar|avx2|auto; unset or
/// unknown values mean auto-detect). Forcing an unsupported level falls back
/// to scalar.
const Kernels& Active();

/// Level of `Active()` (after env resolution and support fallback).
Level ActiveLevel();
/// Convenience: LevelName(ActiveLevel()) — recorded in the BENCH_*.json
/// artifacts so the perf gate compares like-for-like.
const char* ActiveLevelName();

/// Re-points `Active()` at `level` (with the same unsupported->scalar
/// fallback). Test-only: not synchronized against concurrent Active() users
/// beyond the atomic pointer swap, so call it from a quiescent test body.
void ForceLevelForTesting(Level level);

/// Re-resolves `Active()` from the environment (test-only).
void ResetDispatchForTesting();

}  // namespace rlplanner::util::simd

#endif  // RLPLANNER_UTIL_SIMD_H_
