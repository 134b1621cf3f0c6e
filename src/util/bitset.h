#ifndef RLPLANNER_UTIL_BITSET_H_
#define RLPLANNER_UTIL_BITSET_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/simd.h"

namespace rlplanner::util {

/// A fixed-size bitset whose size is chosen at runtime.
///
/// Topic/theme vectors (`T^m` in the paper) are Boolean vectors whose length
/// is the topic-vocabulary size of a dataset, which is only known at load
/// time; this class backs them with packed 64-bit words.
class DynamicBitset {
 public:
  /// Creates an all-zero bitset with `size` bits.
  explicit DynamicBitset(std::size_t size = 0);

  /// Builds a bitset from 0/1 integers (convenient for paper examples).
  static DynamicBitset FromBits(const std::vector<int>& bits);

  std::size_t size() const { return size_; }

  /// Grows or shrinks to `size` bits; new bits are zero.
  void Resize(std::size_t size);

  void Set(std::size_t index, bool value = true);
  bool Test(std::size_t index) const;

  /// Sets every bit (tail bits past `size()` stay zero).
  void SetAll();

  /// Number of set bits.
  std::size_t Count() const;
  /// True when at least one bit is set.
  bool Any() const;
  /// True when no bit is set.
  bool None() const { return !Any(); }
  /// Sets all bits to zero.
  void Clear();

  DynamicBitset& operator|=(const DynamicBitset& other);
  DynamicBitset& operator&=(const DynamicBitset& other);

  /// In-place set difference: `this &= ~other`. Word-level, no allocation.
  DynamicBitset& AndNotAssign(const DynamicBitset& other);

  /// Makes this the complement of `other` (`this = ~other`), resizing to
  /// `other.size()`. Word-level, allocation-free when capacities match —
  /// the seed operation of candidate scans ("every item not yet chosen").
  void AssignComplementOf(const DynamicBitset& other);

  /// Index of the first set bit at or after `from`, or `size()` when there
  /// is none — for ascending walks that stop at the first hit.
  std::size_t FindNext(std::size_t from) const;

  /// Index of the `n`-th set bit (0-based, ascending), or `size()` when
  /// fewer than n + 1 bits are set — a uniform draw over the set without
  /// unpacking it into an id vector.
  std::size_t FindNth(std::size_t n) const;

  /// Number of bits set in both `this` and `other` (popcount of the AND) —
  /// the topic-coverage "dot product" over Boolean vectors.
  std::size_t IntersectCount(const DynamicBitset& other) const;
  /// True when `this` and `other` share at least one set bit.
  bool Intersects(const DynamicBitset& other) const;

  /// Fused popcount of `this & ~b & c` ("newly covered ideal topics"):
  /// one pass, no temporary bitset. All three must share one size.
  std::size_t AndNotIntersectCount(const DynamicBitset& b,
                                   const DynamicBitset& c) const;

  /// The packed 64-bit words backing the bitset (tail bits past `size()`
  /// are always zero). For handing rows to the util/simd.h kernels — e.g.
  /// QTable's masked argmax — without per-bit extraction.
  const std::uint64_t* word_data() const { return words_.data(); }
  std::size_t word_count() const { return words_.size(); }

  /// Renders as a string of '0'/'1' characters, index 0 first.
  std::string ToString() const;

  /// Invokes `fn(base_index, word)` for every *non-zero* 64-bit word, where
  /// `base_index` is the bit index of the word's bit 0. Zero words are
  /// skipped, so sparse sets cost O(words) tests plus O(set words) calls.
  /// The word-level kernel the hot candidate scans are built on.
  template <typename Fn>
  void ForEachSetWord(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if (words_[w] != 0) fn(w * kWordBits, words_[w]);
    }
  }

  /// Invokes `fn(bit_index)` for every set bit in ascending index order,
  /// extracting bits a word at a time (countr_zero + clear-lowest) instead
  /// of testing every index. Replaces per-id `allowed(id)` callback loops.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int bit = std::countr_zero(word);
        fn(w * kWordBits + static_cast<std::size_t>(bit));
        word &= word - 1;  // clear the lowest set bit
      }
    }
  }

 private:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  // Zeroes bits past `size_` in the final word so Count() stays correct.
  void TrimTail();

  std::size_t size_;
  std::vector<Word> words_;
};

bool operator==(const DynamicBitset& a, const DynamicBitset& b);

}  // namespace rlplanner::util

#endif  // RLPLANNER_UTIL_BITSET_H_
