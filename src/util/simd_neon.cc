// NEON (aarch64 ASIMD) kernel table: the u64 word kernels, which port
// trivially (vcntq_u8 + horizontal add), layered over the scalar table for
// the f64 kernels, whose NEON forms would need care the word kernels do not
// (2-lane doubles, no masked blend idiom). ASIMD is baseline on aarch64, so
// compiled-in implies supported. On other targets this translation unit
// degenerates to a null accessor.
//
// Bit-exactness contract: identical to scalar by construction — integer
// kernels only, the f64 entries (the keyed-row argmax too) *are* the scalar
// functions.

#include "util/simd.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <bit>

namespace rlplanner::util::simd {

namespace {

inline std::size_t Popcount128(uint8x16_t v) {
  return static_cast<std::size_t>(vaddvq_u8(vcntq_u8(v)));
}

std::size_t NeonPopcountWords(const std::uint64_t* words, std::size_t n) {
  std::size_t total = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    total += Popcount128(
        vreinterpretq_u8_u64(vld1q_u64(words + i)));
  }
  for (; i < n; ++i) total += std::popcount(words[i]);
  return total;
}

std::size_t NeonIntersectCountWords(const std::uint64_t* a,
                                    const std::uint64_t* b, std::size_t n) {
  std::size_t total = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t va = vld1q_u64(a + i);
    const uint64x2_t vb = vld1q_u64(b + i);
    total += Popcount128(vreinterpretq_u8_u64(vandq_u64(va, vb)));
  }
  for (; i < n; ++i) total += std::popcount(a[i] & b[i]);
  return total;
}

std::size_t NeonAndNotIntersectCountWords(const std::uint64_t* a,
                                          const std::uint64_t* b,
                                          const std::uint64_t* c,
                                          std::size_t n) {
  std::size_t total = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t va = vld1q_u64(a + i);
    const uint64x2_t vb = vld1q_u64(b + i);
    const uint64x2_t vc = vld1q_u64(c + i);
    // vbicq(a, b) computes a & ~b.
    total += Popcount128(
        vreinterpretq_u8_u64(vandq_u64(vbicq_u64(va, vb), vc)));
  }
  for (; i < n; ++i) total += std::popcount(a[i] & ~b[i] & c[i]);
  return total;
}

bool NeonIntersectsWords(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t v = vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i));
    if (vmaxvq_u32(vreinterpretq_u32_u64(v)) != 0) return true;
  }
  for (; i < n; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

bool NeonAnyWords(const std::uint64_t* words, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t v = vld1q_u64(words + i);
    if (vmaxvq_u32(vreinterpretq_u32_u64(v)) != 0) return true;
  }
  for (; i < n; ++i) {
    if (words[i] != 0) return true;
  }
  return false;
}

void NeonAndAssignWords(std::uint64_t* dst, const std::uint64_t* src,
                        std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, vandq_u64(vld1q_u64(dst + i), vld1q_u64(src + i)));
  }
  for (; i < n; ++i) dst[i] &= src[i];
}

void NeonOrAssignWords(std::uint64_t* dst, const std::uint64_t* src,
                       std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, vorrq_u64(vld1q_u64(dst + i), vld1q_u64(src + i)));
  }
  for (; i < n; ++i) dst[i] |= src[i];
}

void NeonAndNotAssignWords(std::uint64_t* dst, const std::uint64_t* src,
                           std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, vbicq_u64(vld1q_u64(dst + i), vld1q_u64(src + i)));
  }
  for (; i < n; ++i) dst[i] &= ~src[i];
}

void NeonComplementWords(std::uint64_t* dst, const std::uint64_t* src,
                         std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i,
              vreinterpretq_u64_u32(
                  vmvnq_u32(vreinterpretq_u32_u64(vld1q_u64(src + i)))));
  }
  for (; i < n; ++i) dst[i] = ~src[i];
}

}  // namespace

const Kernels* GetNeonKernels() {
  static const Kernels table = [] {
    Kernels k = KernelsForLevel(Level::kScalar);
    k.level = Level::kNeon;
    k.popcount_words = &NeonPopcountWords;
    k.intersect_count_words = &NeonIntersectCountWords;
    k.andnot_intersect_count_words = &NeonAndNotIntersectCountWords;
    k.intersects_words = &NeonIntersectsWords;
    k.any_words = &NeonAnyWords;
    k.and_assign_words = &NeonAndAssignWords;
    k.or_assign_words = &NeonOrAssignWords;
    k.andnot_assign_words = &NeonAndNotAssignWords;
    k.complement_words = &NeonComplementWords;
    return k;
  }();
  return &table;
}

}  // namespace rlplanner::util::simd

#else  // !__aarch64__

namespace rlplanner::util::simd {

const Kernels* GetNeonKernels() { return nullptr; }

}  // namespace rlplanner::util::simd

#endif  // __aarch64__
