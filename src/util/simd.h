#ifndef RLPLANNER_UTIL_SIMD_H_
#define RLPLANNER_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace rlplanner::util::simd {

/// Instruction-set level of a kernel table. The numeric order is the
/// preference order of `DetectBestLevel()`; every level is a strict superset
/// of the scalar semantics (all kernels are bit-exact across levels, see
/// below), so falling back is always safe.
enum class Level {
  kScalar = 0,  // portable C++, always available
  kNeon = 1,    // aarch64 ASIMD (the u64 word kernels; f64 stays scalar)
  kAvx2 = 2,    // x86-64 AVX2
};

/// Lower-case level name ("scalar", "neon", "avx2") for bench JSON and logs.
const char* LevelName(Level level);

/// True when this binary contains an implementation for `level` (compile-time
/// gate: the AVX2 translation unit is only built on x86 with -mavx2 support,
/// the NEON one only on aarch64).
bool LevelCompiled(Level level);

/// True when `level` is compiled in *and* the running CPU supports it.
bool LevelSupported(Level level);

/// Best supported level on this machine (kScalar when nothing else is).
Level DetectBestLevel();

/// Parses an RLPLANNER_SIMD value: "off"/"scalar" -> kScalar, "neon" ->
/// kNeon, "avx2" -> kAvx2, "auto"/"" -> sets *auto_detect. Returns false on
/// anything else (caller treats unknown values as "auto" with a warning).
bool ParseLevel(std::string_view text, Level* level, bool* auto_detect);

/// One-time-dispatched kernel table. Every kernel is defined to produce a
/// result *bitwise identical* to the scalar implementation for the same
/// inputs (integer kernels trivially; the f64 kernels are elementwise or
/// order-independent reductions, and the translation units are compiled with
/// -ffp-contract=off so no path fuses a mul+add the other does not). This is
/// what lets the deterministic trainer run on any level without perturbing
/// the (seed, K) -> policy guarantee. NaN payloads are the one exception:
/// callers must not feed NaNs to the f64 kernels (Q values never are).
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
  void (*xor_assign_words)(std::uint64_t* dst, const std::uint64_t* src,
                           std::size_t n);
  // dst &= ~src (set difference) and dst = ~src (complement seed).
  void (*andnot_assign_words)(std::uint64_t* dst, const std::uint64_t* src,
                              std::size_t n);
  void (*complement_words)(std::uint64_t* dst, const std::uint64_t* src,
                           std::size_t n);
  // --- f64 kernels (QTable / reward substrate) ----------------------------
  // Blocked dot product with a *fixed* 4-accumulator summation order shared
  // by the scalar and vector paths, so the result is bit-identical across
  // levels (it differs from a naive left-to-right sum by design).
  double (*dot_f64)(const double* a, const double* b, std::size_t n);
  // y[i] += a * x[i] (separate mul + add, never fused).
  void (*axpy_f64)(double a, const double* x, double* y, std::size_t n);
  // v[i] *= factor.
  void (*scale_f64)(double* v, double factor, std::size_t n);
  // q[i] += local[i] - base[i]: the deterministic shard-merge kernel.
  void (*accumulate_delta_f64)(double* q, const double* local,
                               const double* base, std::size_t n);
  // max_i |v[i]| (0.0 when n == 0). Max is order-independent, so bit-exact.
  double (*max_abs_f64)(const double* v, std::size_t n);
  // Number of entries with v[i] != 0.0 (NaN counts, matching scalar !=).
  std::size_t (*count_nonzero_f64)(const double* v, std::size_t n);
  // Lowest index i < n with mask bit i set attaining max{values[j] : bit j
  // set}; -1 when the mask is empty. `mask` has ceil(n/64) words and its
  // tail bits past n must be zero (DynamicBitset guarantees this). Exactly
  // the tie-break of QTable::ArgmaxAction: the first allowed index wins.
  std::ptrdiff_t (*argmax_masked_f64)(const double* values, std::size_t n,
                                      const std::uint64_t* mask,
                                      std::size_t num_words);
};

/// Kernel table for `level`, falling back to scalar when the level is not
/// supported on this machine. Always safe to call.
const Kernels& KernelsForLevel(Level level);

/// The process-wide active table: resolved once, on first use, from the
/// RLPLANNER_SIMD environment variable (off|scalar|neon|avx2|auto; unset or
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
