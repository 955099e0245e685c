// Fixed-size bitmap with popcount tracking, used for per-erasure-block valid-page maps in the
// conventional FTL and for extent allocators in the host stacks.

#ifndef BLOCKHEAD_SRC_UTIL_BITMAP_H_
#define BLOCKHEAD_SRC_UTIL_BITMAP_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace blockhead {

class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(std::size_t size)
      : size_(size), words_((size + 63) / 64, 0), set_count_(0) {}

  std::size_t size() const { return size_; }
  std::size_t set_count() const { return set_count_; }

  bool Test(std::size_t i) const {
    assert(i < size_);
    return (words_[i / 64] >> (i % 64)) & 1ULL;
  }

  // Sets bit i; returns true if the bit changed.
  bool Set(std::size_t i) {
    assert(i < size_);
    const std::uint64_t mask = 1ULL << (i % 64);
    if (words_[i / 64] & mask) {
      return false;
    }
    words_[i / 64] |= mask;
    ++set_count_;
    return true;
  }

  // Clears bit i; returns true if the bit changed.
  bool Clear(std::size_t i) {
    assert(i < size_);
    const std::uint64_t mask = 1ULL << (i % 64);
    if (!(words_[i / 64] & mask)) {
      return false;
    }
    words_[i / 64] &= ~mask;
    --set_count_;
    return true;
  }

  void ClearAll() {
    std::fill(words_.begin(), words_.end(), 0);
    set_count_ = 0;
  }

  // Index of the first set bit at or after `from`, or size() if none.
  std::size_t FindFirstSet(std::size_t from = 0) const {
    if (from >= size_) {
      return size_;
    }
    std::size_t w = from / 64;
    std::uint64_t word = words_[w] & (~0ULL << (from % 64));
    while (true) {
      if (word != 0) {
        const std::size_t i = w * 64 + static_cast<std::size_t>(std::countr_zero(word));
        return i < size_ ? i : size_;
      }
      if (++w >= words_.size()) {
        return size_;
      }
      word = words_[w];
    }
  }

  // Index of the first clear bit at or after `from`, or size() if none.
  std::size_t FindFirstClear(std::size_t from = 0) const {
    if (from >= size_) {
      return size_;
    }
    std::size_t w = from / 64;
    std::uint64_t word = ~words_[w] & (~0ULL << (from % 64));
    while (true) {
      if (word != 0) {
        const std::size_t i = w * 64 + static_cast<std::size_t>(std::countr_zero(word));
        return i < size_ ? i : size_;
      }
      if (++w >= words_.size()) {
        return size_;
      }
      word = ~words_[w];
    }
  }

  // Approximate heap footprint, for DRAM accounting.
  std::size_t MemoryBytes() const { return words_.size() * sizeof(std::uint64_t); }

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
  std::size_t set_count_ = 0;
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_UTIL_BITMAP_H_
