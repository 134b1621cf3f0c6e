#include "util/bitset.h"

#include <bit>

#include "util/simd.h"

namespace rlplanner::util {

namespace {

// Word count below which the inline scalar loop beats an indirect call into
// the dispatched kernel table: the paper-scale catalogs and vocabularies
// (31–500 bits, 1–8 words) stay on the historical inline path, while the
// 10k+-item catalogs and large vocabularies the SIMD pass targets clear the
// threshold. The kernels are bit-exact against the scalar loops, so the
// cutoff is a pure performance knob (pinned by the simd_test matrix, which
// crosses it in both directions).
constexpr std::size_t kSimdMinWords = 8;

}  // namespace

DynamicBitset::DynamicBitset(std::size_t size) : size_(size) {
  words_.resize((size + kWordBits - 1) / kWordBits, 0);
}

DynamicBitset DynamicBitset::FromBits(const std::vector<int>& bits) {
  DynamicBitset out(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] != 0) out.Set(i);
  }
  return out;
}

void DynamicBitset::Resize(std::size_t size) {
  size_ = size;
  words_.resize((size + kWordBits - 1) / kWordBits, 0);
  TrimTail();
}

void DynamicBitset::Set(std::size_t index, bool value) {
  assert(index < size_);
  const std::size_t word = index / kWordBits;
  const Word mask = Word{1} << (index % kWordBits);
  if (value) {
    words_[word] |= mask;
  } else {
    words_[word] &= ~mask;
  }
}

bool DynamicBitset::Test(std::size_t index) const {
  assert(index < size_);
  return (words_[index / kWordBits] >> (index % kWordBits)) & 1;
}

std::size_t DynamicBitset::Count() const {
  if (words_.size() >= kSimdMinWords) {
    return simd::Active().popcount_words(words_.data(), words_.size());
  }
  std::size_t total = 0;
  for (Word w : words_) total += std::popcount(w);
  return total;
}

bool DynamicBitset::Any() const {
  if (words_.size() >= kSimdMinWords) {
    return simd::Active().any_words(words_.data(), words_.size());
  }
  for (Word w : words_) {
    if (w != 0) return true;
  }
  return false;
}

void DynamicBitset::Clear() {
  for (Word& w : words_) w = 0;
}

void DynamicBitset::SetAll() {
  for (Word& w : words_) w = ~Word{0};
  TrimTail();
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& other) {
  assert(size_ == other.size_);
  if (words_.size() >= kSimdMinWords) {
    simd::Active().or_assign_words(words_.data(), other.words_.data(),
                                   words_.size());
    return *this;
  }
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::operator&=(const DynamicBitset& other) {
  assert(size_ == other.size_);
  if (words_.size() >= kSimdMinWords) {
    simd::Active().and_assign_words(words_.data(), other.words_.data(),
                                    words_.size());
    return *this;
  }
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::operator^=(const DynamicBitset& other) {
  assert(size_ == other.size_);
  if (words_.size() >= kSimdMinWords) {
    simd::Active().xor_assign_words(words_.data(), other.words_.data(),
                                    words_.size());
    return *this;
  }
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
  return *this;
}

DynamicBitset DynamicBitset::AndNot(const DynamicBitset& other) const {
  assert(size_ == other.size_);
  DynamicBitset out(size_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    out.words_[i] = words_[i] & ~other.words_[i];
  }
  return out;
}

DynamicBitset& DynamicBitset::AndNotAssign(const DynamicBitset& other) {
  assert(size_ == other.size_);
  if (words_.size() >= kSimdMinWords) {
    simd::Active().andnot_assign_words(words_.data(), other.words_.data(),
                                       words_.size());
    return *this;
  }
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] &= ~other.words_[i];
  }
  return *this;
}

void DynamicBitset::AssignComplementOf(const DynamicBitset& other) {
  size_ = other.size_;
  words_.resize(other.words_.size());
  if (words_.size() >= kSimdMinWords) {
    simd::Active().complement_words(words_.data(), other.words_.data(),
                                    words_.size());
  } else {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      words_[i] = ~other.words_[i];
    }
  }
  TrimTail();
}

std::size_t DynamicBitset::FindNext(std::size_t from) const {
  if (from >= size_) return size_;
  std::size_t w = from / kWordBits;
  Word word = words_[w] & (~Word{0} << (from % kWordBits));
  while (word == 0) {
    if (++w == words_.size()) return size_;
    word = words_[w];
  }
  return w * kWordBits + static_cast<std::size_t>(std::countr_zero(word));
}

std::size_t DynamicBitset::FindNth(std::size_t n) const {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    Word word = words_[w];
    const auto count = static_cast<std::size_t>(std::popcount(word));
    if (n >= count) {
      n -= count;
      continue;
    }
    for (; n > 0; --n) word &= word - 1;  // clear the n lowest set bits
    return w * kWordBits + static_cast<std::size_t>(std::countr_zero(word));
  }
  return size_;
}

std::size_t DynamicBitset::IntersectCount(const DynamicBitset& other) const {
  assert(size_ == other.size_);
  if (words_.size() >= kSimdMinWords) {
    return simd::Active().intersect_count_words(
        words_.data(), other.words_.data(), words_.size());
  }
  std::size_t total = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    total += std::popcount(words_[i] & other.words_[i]);
  }
  return total;
}

bool DynamicBitset::Intersects(const DynamicBitset& other) const {
  assert(size_ == other.size_);
  if (words_.size() >= kSimdMinWords) {
    return simd::Active().intersects_words(words_.data(), other.words_.data(),
                                           words_.size());
  }
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & other.words_[i]) != 0) return true;
  }
  return false;
}

std::size_t DynamicBitset::AndNotIntersectCount(const DynamicBitset& b,
                                                const DynamicBitset& c) const {
  assert(size_ == b.size_ && size_ == c.size_);
  if (words_.size() >= kSimdMinWords) {
    return simd::Active().andnot_intersect_count_words(
        words_.data(), b.words_.data(), c.words_.data(), words_.size());
  }
  std::size_t total = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    total += std::popcount(words_[i] & ~b.words_[i] & c.words_[i]);
  }
  return total;
}

std::string DynamicBitset::ToString() const {
  std::string out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) out.push_back(Test(i) ? '1' : '0');
  return out;
}

bool operator==(const DynamicBitset& a, const DynamicBitset& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.Test(i) != b.Test(i)) return false;
  }
  return true;
}

void DynamicBitset::TrimTail() {
  const std::size_t used = size_ % kWordBits;
  if (!words_.empty() && used != 0) {
    words_.back() &= (Word{1} << used) - 1;
  }
}

}  // namespace rlplanner::util
