// AVX2 kernel table. Compiled with -mavx2 -ffp-contract=off on x86-64 (see
// src/CMakeLists.txt); on other targets, or with a compiler that lacks
// -mavx2, this translation unit degenerates to a null accessor and dispatch
// stays on the scalar (or NEON) table.
//
// Every kernel here is bit-exact against its scalar counterpart in simd.cc:
// the integer kernels trivially, the f64 elementwise kernels because they
// perform the identical per-element operations (separate mul + add, never
// FMA), the max/argmax reductions because max is order-independent and
// each lane carries the first index of its maximum into the merge, and the
// keyed argmax because its vector part only screens out entries that
// cannot win and the scalar rule decides among the rest.

#include "util/simd.h"

#if defined(RLPLANNER_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace rlplanner::util::simd {

namespace {

// ---------------------------------------------------------------------------
// u64 word kernels
// ---------------------------------------------------------------------------

// Per-64-bit-lane popcount of a 256-bit vector via the nibble-LUT +
// byte-sum-of-absolute-differences idiom (AVX2 has no vpopcnt).
inline __m256i Popcount256(__m256i v) {
  const __m256i lookup = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                         _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

inline std::size_t HorizontalSum64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<std::size_t>(_mm_extract_epi64(sum, 0)) +
         static_cast<std::size_t>(_mm_extract_epi64(sum, 1));
}

std::size_t Avx2PopcountWords(const std::uint64_t* words, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
    acc = _mm256_add_epi64(acc, Popcount256(v));
  }
  std::size_t total = HorizontalSum64(acc);
  for (; i < n; ++i) total += std::popcount(words[i]);
  return total;
}

std::size_t Avx2IntersectCountWords(const std::uint64_t* a,
                                    const std::uint64_t* b, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi64(acc, Popcount256(_mm256_and_si256(va, vb)));
  }
  std::size_t total = HorizontalSum64(acc);
  for (; i < n; ++i) total += std::popcount(a[i] & b[i]);
  return total;
}

std::size_t Avx2AndNotIntersectCountWords(const std::uint64_t* a,
                                          const std::uint64_t* b,
                                          const std::uint64_t* c,
                                          std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i vc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + i));
    // andnot(b, a) computes ~b & a.
    const __m256i masked =
        _mm256_and_si256(_mm256_andnot_si256(vb, va), vc);
    acc = _mm256_add_epi64(acc, Popcount256(masked));
  }
  std::size_t total = HorizontalSum64(acc);
  for (; i < n; ++i) total += std::popcount(a[i] & ~b[i] & c[i]);
  return total;
}

bool Avx2IntersectsWords(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    if (_mm256_testz_si256(va, vb) == 0) return true;
  }
  for (; i < n; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

bool Avx2AnyWords(const std::uint64_t* words, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
    if (_mm256_testz_si256(v, v) == 0) return true;
  }
  for (; i < n; ++i) {
    if (words[i] != 0) return true;
  }
  return false;
}

template <typename WordOp, typename VectorOp>
inline void ElementwiseWords(std::uint64_t* dst, const std::uint64_t* src,
                             std::size_t n, VectorOp vector_op,
                             WordOp word_op) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i vd =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i vs =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        vector_op(vd, vs));
  }
  for (; i < n; ++i) dst[i] = word_op(dst[i], src[i]);
}

void Avx2AndAssignWords(std::uint64_t* dst, const std::uint64_t* src,
                        std::size_t n) {
  ElementwiseWords(
      dst, src, n,
      [](__m256i d, __m256i s) { return _mm256_and_si256(d, s); },
      [](std::uint64_t d, std::uint64_t s) { return d & s; });
}

void Avx2OrAssignWords(std::uint64_t* dst, const std::uint64_t* src,
                       std::size_t n) {
  ElementwiseWords(
      dst, src, n,
      [](__m256i d, __m256i s) { return _mm256_or_si256(d, s); },
      [](std::uint64_t d, std::uint64_t s) { return d | s; });
}

void Avx2AndNotAssignWords(std::uint64_t* dst, const std::uint64_t* src,
                           std::size_t n) {
  ElementwiseWords(
      dst, src, n,
      // andnot(s, d) computes ~s & d == d & ~s.
      [](__m256i d, __m256i s) { return _mm256_andnot_si256(s, d); },
      [](std::uint64_t d, std::uint64_t s) { return d & ~s; });
}

void Avx2ComplementWords(std::uint64_t* dst, const std::uint64_t* src,
                         std::size_t n) {
  const __m256i ones = _mm256_set1_epi64x(-1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i vs =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(vs, ones));
  }
  for (; i < n; ++i) dst[i] = ~src[i];
}

// ---------------------------------------------------------------------------
// f64 kernels
// ---------------------------------------------------------------------------

void Avx2ScaleF64(double* v, double factor, std::size_t n) {
  const __m256d vf = _mm256_set1_pd(factor);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(v + i, _mm256_mul_pd(_mm256_loadu_pd(v + i), vf));
  }
  for (; i < n; ++i) v[i] *= factor;
}

void Avx2AccumulateDeltaF64(double* q, const double* local,
                            const double* base, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vl = _mm256_loadu_pd(local + i);
    const __m256d vb = _mm256_loadu_pd(base + i);
    const __m256d vq = _mm256_loadu_pd(q + i);
    _mm256_storeu_pd(q + i, _mm256_add_pd(vq, _mm256_sub_pd(vl, vb)));
  }
  for (; i < n; ++i) q[i] += local[i] - base[i];
}

double Avx2MaxAbsF64(const double* v, std::size_t n) {
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  __m256d vbest = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vbest = _mm256_max_pd(vbest,
                          _mm256_and_pd(_mm256_loadu_pd(v + i), abs_mask));
  }
  const __m128d lo = _mm256_castpd256_pd128(vbest);
  const __m128d hi = _mm256_extractf128_pd(vbest, 1);
  const __m128d pair = _mm_max_pd(lo, hi);
  double best = _mm_cvtsd_f64(_mm_max_sd(pair, _mm_unpackhi_pd(pair, pair)));
  for (; i < n; ++i) best = std::max(best, std::abs(v[i]));
  return best;
}

std::size_t Avx2CountNonZeroF64(const double* v, std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // Unordered non-equal: NaN != 0.0 is true, matching the scalar `!=`.
    const __m256d neq =
        _mm256_cmp_pd(_mm256_loadu_pd(v + i), zero, _CMP_NEQ_UQ);
    count += static_cast<std::size_t>(
        std::popcount(static_cast<unsigned>(_mm256_movemask_pd(neq))));
  }
  for (; i < n; ++i) {
    if (v[i] != 0.0) ++count;
  }
  return count;
}

std::ptrdiff_t Avx2ArgmaxMaskedF64(const double* values, std::size_t n,
                                   const std::uint64_t* mask,
                                   std::size_t num_words) {
  // Single pass tracking (max, first index) per lane. Disallowed lanes are
  // blended to -inf so they never win; lane masks come from a branch-free
  // variable shift — word << (63 - bit) puts each lane's admissibility bit
  // into the lane's sign bit, which is exactly what blendv_pd selects on.
  // All-ones words (the common dense admissible set) skip the blend.
  //
  // Each lane updates on strictly-greater only, so it records the FIRST
  // index attaining its lane max — and the global first occurrence of the
  // overall max lives in whichever lane covers it, making the final
  // lowest-index-among-max-lanes reduction exactly the scalar tie-break.
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  const __m256d neg_inf = _mm256_set1_pd(kNegInf);
  const __m256i group_step = _mm256_set1_epi64x(8);
  // Two independent (max, index) chains over alternating 4-lane groups:
  // the cmp -> blendv update is a loop-carried dependency (~6 cycles), so a
  // single chain leaves the FPU half idle. The chains merge in the final
  // reduction.
  __m256d vmax0 = neg_inf, vmax1 = neg_inf;
  __m256i vidx0 = _mm256_set1_epi64x(-1), vidx1 = _mm256_set1_epi64x(-1);
  double tail_max = kNegInf;
  std::ptrdiff_t tail_idx = -1;
  bool any = false;
  for (std::size_t w = 0; w < num_words; ++w) {
    const std::uint64_t word = mask[w];
    if (word == 0) continue;
    any = true;
    const std::size_t base = w * 64;
    if (base + 64 <= n) {
      __m256i idx0 = _mm256_add_epi64(
          _mm256_set1_epi64x(static_cast<long long>(base)),
          _mm256_set_epi64x(3, 2, 1, 0));
      __m256i idx1 = _mm256_add_epi64(
          _mm256_set1_epi64x(static_cast<long long>(base)),
          _mm256_set_epi64x(7, 6, 5, 4));
      if (word == ~std::uint64_t{0}) {
        for (std::size_t g = 0; g < 16; g += 2) {
          const __m256d v0 = _mm256_loadu_pd(values + base + g * 4);
          const __m256d v1 = _mm256_loadu_pd(values + base + g * 4 + 4);
          const __m256d gt0 = _mm256_cmp_pd(v0, vmax0, _CMP_GT_OQ);
          const __m256d gt1 = _mm256_cmp_pd(v1, vmax1, _CMP_GT_OQ);
          vmax0 = _mm256_blendv_pd(vmax0, v0, gt0);
          vmax1 = _mm256_blendv_pd(vmax1, v1, gt1);
          vidx0 = _mm256_blendv_epi8(vidx0, idx0, _mm256_castpd_si256(gt0));
          vidx1 = _mm256_blendv_epi8(vidx1, idx1, _mm256_castpd_si256(gt1));
          idx0 = _mm256_add_epi64(idx0, group_step);
          idx1 = _mm256_add_epi64(idx1, group_step);
        }
      } else {
        const __m256i word_vec =
            _mm256_set1_epi64x(static_cast<long long>(word));
        // Lane k of group g holds bit g*4+k; shifting the word left by
        // 63-(g*4+k) exposes that bit as the lane's sign bit. Counts start
        // at {63..60} / {59..56} and drop by 8 per unrolled iteration.
        __m256i counts0 = _mm256_set_epi64x(60, 61, 62, 63);
        __m256i counts1 = _mm256_set_epi64x(56, 57, 58, 59);
        const __m256i count_step = _mm256_set1_epi64x(8);
        for (std::size_t g = 0; g < 16; g += 2) {
          const __m256d m0 =
              _mm256_castsi256_pd(_mm256_sllv_epi64(word_vec, counts0));
          const __m256d m1 =
              _mm256_castsi256_pd(_mm256_sllv_epi64(word_vec, counts1));
          const __m256d v0 = _mm256_blendv_pd(
              neg_inf, _mm256_loadu_pd(values + base + g * 4), m0);
          const __m256d v1 = _mm256_blendv_pd(
              neg_inf, _mm256_loadu_pd(values + base + g * 4 + 4), m1);
          const __m256d gt0 = _mm256_cmp_pd(v0, vmax0, _CMP_GT_OQ);
          const __m256d gt1 = _mm256_cmp_pd(v1, vmax1, _CMP_GT_OQ);
          vmax0 = _mm256_blendv_pd(vmax0, v0, gt0);
          vmax1 = _mm256_blendv_pd(vmax1, v1, gt1);
          vidx0 = _mm256_blendv_epi8(vidx0, idx0, _mm256_castpd_si256(gt0));
          vidx1 = _mm256_blendv_epi8(vidx1, idx1, _mm256_castpd_si256(gt1));
          idx0 = _mm256_add_epi64(idx0, group_step);
          idx1 = _mm256_add_epi64(idx1, group_step);
          counts0 = _mm256_sub_epi64(counts0, count_step);
          counts1 = _mm256_sub_epi64(counts1, count_step);
        }
      }
    } else {
      // Ragged final word: scalar over its set bits (strictly-greater, so
      // tail_idx is also a first occurrence).
      std::uint64_t bits = word;
      while (bits != 0) {
        const std::size_t i =
            base + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        if (i >= n) break;
        if (values[i] > tail_max) {
          tail_max = values[i];
          tail_idx = static_cast<std::ptrdiff_t>(i);
        }
      }
    }
  }
  if (!any) return -1;
  // Merge the chains: each of the 8 lanes holds the first index attaining
  // its subsequence's max, so the lowest index among the max-valued lanes
  // is the global first occurrence — the scalar tie-break.
  alignas(32) double lane_max[8];
  alignas(32) std::int64_t lane_idx[8];
  _mm256_store_pd(lane_max, vmax0);
  _mm256_store_pd(lane_max + 4, vmax1);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane_idx), vidx0);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane_idx + 4), vidx1);
  double best = kNegInf;
  std::ptrdiff_t best_idx = -1;
  for (int lane = 0; lane < 8; ++lane) {
    if (lane_idx[lane] < 0) continue;  // lane never saw an allowed value
    const auto idx = static_cast<std::ptrdiff_t>(lane_idx[lane]);
    if (lane_max[lane] > best || (lane_max[lane] == best && idx < best_idx)) {
      best = lane_max[lane];
      best_idx = idx;
    }
  }
  // Tail indices are all larger than vector ones, so strictly-greater only.
  if (tail_idx >= 0 && tail_max > best) {
    best = tail_max;
    best_idx = tail_idx;
  }
  if (best_idx >= 0) return best_idx;
  // Every allowed value is -inf: no strictly-greater update ever fired.
  // Match the scalar rule (first allowed index is adopted unconditionally).
  for (std::size_t w = 0; w < num_words; ++w) {
    if (mask[w] != 0) {
      const std::size_t i =
          w * 64 + static_cast<std::size_t>(std::countr_zero(mask[w]));
      return i < n ? static_cast<std::ptrdiff_t>(i) : -1;
    }
  }
  return -1;
}

// ---------------------------------------------------------------------------
// keyed-row kernel
// ---------------------------------------------------------------------------

// Allowed mask of entries [i, i + 8): bit j is set when keys[i + j] is at
// most `last` (the highest in-range key) and its bit is set. The gather
// reads the bitset as 32-bit words (little-endian, so word key / 32 holds
// the key's bit); an out-of-range key gathers word 0 instead of its own,
// so no gather index leaves `allowed`.
inline unsigned KeyedAllowedMask(const std::uint32_t* keys, std::size_t i,
                                 const std::uint64_t* allowed, __m256i last) {
  const __m256i k =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
  const __m256i in_range = _mm256_cmpeq_epi32(_mm256_min_epu32(k, last), k);
  const __m256i word_index =
      _mm256_and_si256(_mm256_srli_epi32(k, 5), in_range);
  const __m256i words = _mm256_i32gather_epi32(
      reinterpret_cast<const int*>(allowed), word_index, 4);
  // words << (31 - key % 32) puts each key's bit in its lane's sign bit.
  const __m256i low5 = _mm256_set1_epi32(31);
  const __m256i shift = _mm256_sub_epi32(low5, _mm256_and_si256(k, low5));
  const __m256i bits =
      _mm256_and_si256(_mm256_sllv_epi32(words, shift), in_range);
  return static_cast<unsigned>(
      _mm256_movemask_ps(_mm256_castsi256_ps(bits)));
}

// Lanes of entries [i, i + 4) whose value is >= `floor`; a NaN never is.
inline unsigned KeyedAtLeastMask(const double* values, std::size_t i,
                                 __m256d floor) {
  return static_cast<unsigned>(_mm256_movemask_pd(
      _mm256_cmp_pd(_mm256_loadu_pd(values + i), floor, _CMP_GE_OQ)));
}

KeyedArgmax Avx2ArgmaxKeyedF64(const std::uint32_t* keys,
                               const double* values, std::size_t n,
                               const std::uint64_t* allowed,
                               std::size_t allowed_size) {
  KeyedArgmax result;
  // With no bits there is no word 0 to fall back on, and no key is allowed.
  if (allowed_size == 0) return result;
  const auto last = static_cast<std::uint32_t>(
      std::min<std::size_t>(allowed_size - 1, 0xFFFFFFFFu));
  const __m256i vlast = _mm256_set1_epi32(static_cast<int>(last));
  std::ptrdiff_t first = -1;  // first allowed entry in row order
  double best = -std::numeric_limits<double>::infinity();
  // The scalar rule, for an allowed entry j.
  auto offer = [&](std::size_t j) {
    if (result.index < 0 || values[j] > best ||
        (values[j] == best &&
         keys[j] < keys[static_cast<std::size_t>(result.index)])) {
      result.index = static_cast<std::ptrdiff_t>(j);
      best = values[j];
    }
  };
  // Counts the allowed lanes of `mask` (bit j: entry base + j) and offers
  // those whose value passed the screen.
  auto visit = [&](unsigned mask, unsigned at_least, std::size_t base) {
    if (first < 0 && mask != 0) {
      first = static_cast<std::ptrdiff_t>(base + std::countr_zero(mask));
    }
    result.count += static_cast<std::size_t>(std::popcount(mask));
    for (unsigned offers = mask & at_least; offers != 0;
         offers &= offers - 1) {
      offer(base + std::countr_zero(offers));
    }
  };
  // Only a value >= the running best can displace it, so two compares per
  // 8 entries screen them and the scalar rule runs on the few that pass.
  // The screen drops NaNs; a NaN first entry is restored below.
  __m256d screen = _mm256_set1_pd(best);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const unsigned mask = KeyedAllowedMask(keys, i, allowed, vlast);
    const unsigned at_least = KeyedAtLeastMask(values, i, screen) |
                              (KeyedAtLeastMask(values, i + 4, screen) << 4);
    visit(mask, at_least, i);
    if ((mask & at_least) != 0) screen = _mm256_set1_pd(best);
  }
  for (; i < n; ++i) {
    const std::uint32_t key = keys[i];
    if (key < allowed_size && ((allowed[key / 64] >> (key % 64)) & 1) != 0) {
      visit(1, 1, i);
    }
  }
  // A NaN first entry holds against every later value (see the scalar
  // kernel).
  if (result.count > 0 && std::isnan(values[first])) result.index = first;
  return result;
}

constexpr Kernels kAvx2Kernels = {
    Level::kAvx2,
    &Avx2PopcountWords,
    &Avx2IntersectCountWords,
    &Avx2AndNotIntersectCountWords,
    &Avx2IntersectsWords,
    &Avx2AnyWords,
    &Avx2AndAssignWords,
    &Avx2OrAssignWords,
    &Avx2AndNotAssignWords,
    &Avx2ComplementWords,
    &Avx2ScaleF64,
    &Avx2AccumulateDeltaF64,
    &Avx2MaxAbsF64,
    &Avx2CountNonZeroF64,
    &Avx2ArgmaxMaskedF64,
    &Avx2ArgmaxKeyedF64,
};

}  // namespace

const Kernels* GetAvx2Kernels() { return &kAvx2Kernels; }

}  // namespace rlplanner::util::simd

#else  // !RLPLANNER_HAVE_AVX2

namespace rlplanner::util::simd {

const Kernels* GetAvx2Kernels() { return nullptr; }

}  // namespace rlplanner::util::simd

#endif  // RLPLANNER_HAVE_AVX2
