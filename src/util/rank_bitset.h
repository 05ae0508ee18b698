// Fixed-universe bitset with rank and select.
//
// One u64 word per 64 bits plus a Fenwick tree over the words' popcounts,
// so Set/Reset, Rank and Select each cost O(log(universe / 64)) word
// operations. Clear() and CopyFrom() touch only the words that were set
// since the last Clear, so a bitset over a whole road network that holds a
// cloak region's few hundred bits resets in time proportional to them.
//
// The region engine keeps its length-ordered views (the RGE transition
// table's rows and columns) as these bitsets over the network's length
// rank: the i-th row is Select(i), and a segment's row is Rank(its rank).
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rcloak {

class RankBitset {
 public:
  RankBitset() = default;
  explicit RankBitset(std::size_t universe)
      : universe_(universe),
        words_((universe + 63) / 64, 0),
        tree_(words_.size() + 1, 0),
        dirty_flag_(words_.size(), 0),
        top_step_(words_.empty() ? 0 : std::bit_floor(words_.size())) {}

  std::size_t count() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  bool Test(std::uint32_t i) const noexcept {
    assert(i < universe_);
    return ((words_[i >> 6] >> (i & 63)) & 1u) != 0;
  }
  // Both are no-ops when the bit already has the requested value.
  void Set(std::uint32_t i) {
    assert(i < universe_);
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    std::uint64_t& word = words_[i >> 6];
    if ((word & bit) != 0) return;
    if (word == 0 && dirty_flag_[i >> 6] == 0) {
      dirty_flag_[i >> 6] = 1;
      dirty_.push_back(i >> 6);
    }
    word |= bit;
    AddToTree(i >> 6, 1);
    ++count_;
  }
  void Reset(std::uint32_t i) {
    assert(i < universe_);
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    std::uint64_t& word = words_[i >> 6];
    if ((word & bit) == 0) return;
    word &= ~bit;
    AddToTree(i >> 6, static_cast<std::uint32_t>(-1));
    --count_;
  }

  // Number of set bits below position `i` (i <= universe).
  std::size_t Rank(std::uint32_t i) const noexcept {
    assert(i <= universe_);
    const std::size_t word = i >> 6;
    std::size_t rank = 0;
    for (std::size_t j = word; j > 0; j &= j - 1) rank += tree_[j];
    if ((i & 63) != 0) {
      rank += static_cast<std::size_t>(std::popcount(
          words_[word] & ((std::uint64_t{1} << (i & 63)) - 1)));
    }
    return rank;
  }

  // Position of the k-th set bit, 0-based: Rank(Select(k)) == k.
  std::uint32_t Select(std::size_t k) const noexcept {
    assert(k < count_);
    // Fenwick descent to the last word whose prefix holds at most k bits.
    std::size_t word = 0;
    for (std::size_t step = top_step_; step != 0; step >>= 1) {
      const std::size_t next = word + step;
      if (next < tree_.size() && tree_[next] <= k) {
        word = next;
        k -= tree_[next];
      }
    }
    std::uint64_t bits = words_[word];
    for (; k > 0; --k) bits &= bits - 1;
    return static_cast<std::uint32_t>(word * 64 +
                                      std::countr_zero(bits));
  }

  // Calls fn(i) for every set bit, ascending.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        fn(static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)));
      }
    }
  }

  // Zeroes every bit.
  void Clear() {
    if (dirty_.size() * 4 >= words_.size()) {
      // Most words were touched: one straight fill beats per-word updates.
      std::fill(words_.begin(), words_.end(), 0);
      std::fill(tree_.begin(), tree_.end(), 0);
      std::fill(dirty_flag_.begin(), dirty_flag_.end(), 0);
    } else {
      for (const std::uint32_t w : dirty_) {
        if (words_[w] != 0) {
          AddToTree(w, static_cast<std::uint32_t>(-std::popcount(words_[w])));
          words_[w] = 0;
        }
        dirty_flag_[w] = 0;
      }
    }
    dirty_.clear();
    count_ = 0;
  }

  // Makes this bitset equal to `other`.
  void CopyFrom(const RankBitset& other) {
    if (words_.size() != other.words_.size() ||
        other.dirty_.size() * 4 >= other.words_.size()) {
      *this = other;
      return;
    }
    Clear();
    for (const std::uint32_t w : other.dirty_) {
      if (other.words_[w] == 0) continue;
      words_[w] = other.words_[w];
      dirty_flag_[w] = 1;
      dirty_.push_back(w);
      AddToTree(w, static_cast<std::uint32_t>(std::popcount(words_[w])));
    }
    count_ = other.count_;
  }

 private:
  // Adds `delta` (mod 2^32) to word `w`'s popcount in the Fenwick tree.
  void AddToTree(std::size_t w, std::uint32_t delta) noexcept {
    for (std::size_t j = w + 1; j < tree_.size(); j += j & (~j + 1)) {
      tree_[j] += delta;
    }
  }

  std::size_t universe_ = 0;
  std::size_t count_ = 0;
  std::vector<std::uint64_t> words_;
  // Fenwick tree, 1-based: tree_[j] sums the popcounts of words
  // [j - lowbit(j), j).
  std::vector<std::uint32_t> tree_;
  // Words that may be nonzero since the last Clear (each listed once).
  std::vector<std::uint8_t> dirty_flag_;
  std::vector<std::uint32_t> dirty_;
  std::size_t top_step_ = 0;  // highest power of two <= words_.size()
};

}  // namespace rcloak
