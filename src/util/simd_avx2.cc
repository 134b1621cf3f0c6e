// AVX2 kernel table. Compiled with -mavx2 on x86-64 (see src/CMakeLists.txt);
// on other targets, or with a compiler that lacks -mavx2, this translation
// unit degenerates to a null accessor and dispatch stays on the scalar table.
//
// Every kernel here is bit-exact against its scalar counterpart in simd.cc:
// the integer kernels trivially, and the keyed argmax because its vector
// part only screens out entries that cannot win and the scalar rule decides
// among the rest.

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
