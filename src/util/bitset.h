// Packed fixed-universe bitset for domain masks and colour classes.
//
// The colour-coding / DP hot path manipulates subsets of the (dense)
// universe {0, .., n-1}: per-variable domain restrictions, partite-subset
// membership masks, and random colourings. std::vector<bool> makes every
// one of those a per-bit loop; Bitset packs 64 elements per word so that
// intersect / complement / emptiness-scan run word-parallel, and exposes
// the word granularity directly so Rng can fill a fair colouring with one
// 64-bit draw per word (the exact bit order the per-bit sampler produced,
// keeping fixed-seed estimates stable).
//
// An EMPTY bitset (size() == 0) is the conventional "unrestricted"
// sentinel throughout the domain plumbing, mirroring the empty
// vector<bool> it replaces; Test() out of range is false, matching the
// "values beyond the mask are disallowed" reading used by VarDomains.
#ifndef CQCOUNT_UTIL_BITSET_H_
#define CQCOUNT_UTIL_BITSET_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cqcount {

/// Packed membership mask over the universe {0, .., size()-1}.
class Bitset {
 public:
  static constexpr size_t kWordBits = 64;

  Bitset() = default;
  explicit Bitset(size_t n, bool value = false) { Assign(n, value); }

  /// Number of universe elements (bits), not set bits.
  size_t size() const { return num_bits_; }
  /// True for the zero-universe ("unrestricted") sentinel.
  bool empty() const { return num_bits_ == 0; }
  size_t num_words() const { return words_.size(); }

  /// Membership of `i`; out-of-range indices are not members.
  bool Test(size_t i) const {
    if (i >= num_bits_) return false;
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
  }

  void Set(size_t i, bool value = true) {
    assert(i < num_bits_);
    const uint64_t bit = uint64_t{1} << (i % kWordBits);
    if (value) {
      words_[i / kWordBits] |= bit;
    } else {
      words_[i / kWordBits] &= ~bit;
    }
  }

  /// Re-dimensions to `n` bits, all set to `value`.
  void Assign(size_t n, bool value);

  /// Grows or shrinks to `n` bits; new bits get `value`.
  void Resize(size_t n, bool value = false);

  /// Sets every bit in [lo, hi) (word-filled interior).
  void SetRange(size_t lo, size_t hi);

  /// True iff at least one bit is set (word-parallel scan).
  bool Any() const {
    for (uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }
  bool None() const { return !Any(); }

  /// Number of set bits.
  size_t Count() const;

  /// True when every bit of the universe is set.
  bool All() const { return Count() == num_bits_; }

  /// Complements within the universe (tail bits stay clear).
  void FlipAll();

  /// this &= other. Bits beyond other's universe are treated as absent
  /// (cleared), so the result is the intersection of the two membership
  /// sets restricted to this universe.
  void IntersectWith(const Bitset& other);

  /// Index of the first set bit at position >= `from`, or size() if none.
  size_t FindNext(size_t from) const;

  uint64_t word(size_t w) const {
    assert(w < words_.size());
    return words_[w];
  }
  /// Raw word storage for word-at-a-time writers, which must leave the
  /// bits beyond the universe clear (mask the last word with TailMask()).
  uint64_t* mutable_words() { return words_.data(); }
  /// The valid-bit mask of the last word.
  uint64_t TailMask() const {
    const size_t tail = num_bits_ % kWordBits;
    return tail == 0 ? ~uint64_t{0} : (uint64_t{1} << tail) - 1;
  }

  /// Overwrites word `w`; bits beyond the universe are masked off.
  void SetWord(size_t w, uint64_t bits) {
    assert(w < words_.size());
    words_[w] = bits;
    if (w + 1 == words_.size()) ClearTail();
  }

  friend bool operator==(const Bitset& a, const Bitset& b) {
    return a.num_bits_ == b.num_bits_ && a.words_ == b.words_;
  }
  friend bool operator!=(const Bitset& a, const Bitset& b) {
    return !(a == b);
  }

 private:
  // Zeroes the bits of the last word beyond num_bits_ (the class
  // invariant every word-parallel reader relies on).
  void ClearTail() {
    if (!words_.empty()) words_.back() &= TailMask();
  }

  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace cqcount

#endif  // CQCOUNT_UTIL_BITSET_H_
