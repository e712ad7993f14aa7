#include "util/bitset.h"

#include <algorithm>

namespace cqcount {
namespace {

int Popcount(uint64_t w) { return __builtin_popcountll(w); }
int CountTrailingZeros(uint64_t w) { return __builtin_ctzll(w); }

}  // namespace

void Bitset::Assign(size_t n, bool value) {
  num_bits_ = n;
  words_.assign((n + kWordBits - 1) / kWordBits,
                value ? ~uint64_t{0} : uint64_t{0});
  ClearTail();
}

void Bitset::Resize(size_t n, bool value) {
  const size_t old_bits = num_bits_;
  if (n == old_bits) return;
  if (n < old_bits) {
    num_bits_ = n;
    words_.resize((n + kWordBits - 1) / kWordBits);
    ClearTail();
    return;
  }
  words_.resize((n + kWordBits - 1) / kWordBits, 0);
  num_bits_ = n;
  if (value) {
    // The grown region is [old_bits, n); fill it bit-exactly.
    SetRange(old_bits, n);
  }
}

void Bitset::SetRange(size_t lo, size_t hi) {
  assert(hi <= num_bits_ && lo <= hi);
  if (lo >= hi) return;
  const size_t first_word = lo / kWordBits;
  const size_t last_word = (hi - 1) / kWordBits;
  const uint64_t lo_mask = ~uint64_t{0} << (lo % kWordBits);
  const uint64_t hi_mask =
      ~uint64_t{0} >> (kWordBits - 1 - (hi - 1) % kWordBits);
  if (first_word == last_word) {
    words_[first_word] |= lo_mask & hi_mask;
    return;
  }
  words_[first_word] |= lo_mask;
  for (size_t w = first_word + 1; w < last_word; ++w) words_[w] = ~uint64_t{0};
  words_[last_word] |= hi_mask;
}

size_t Bitset::Count() const {
  size_t count = 0;
  for (uint64_t w : words_) count += static_cast<size_t>(Popcount(w));
  return count;
}

void Bitset::FlipAll() {
  for (uint64_t& w : words_) w = ~w;
  ClearTail();
}

void Bitset::IntersectWith(const Bitset& other) {
  const size_t shared = std::min(words_.size(), other.words_.size());
  for (size_t w = 0; w < shared; ++w) words_[w] &= other.words_[w];
  for (size_t w = shared; w < words_.size(); ++w) words_[w] = 0;
  // Bits of the shared boundary word beyond other's universe read as 0 in
  // other.words_ already (its tail is clear), so no extra masking needed.
}

size_t Bitset::FindNext(size_t from) const {
  if (from >= num_bits_) return num_bits_;
  size_t w = from / kWordBits;
  uint64_t word = words_[w] & (~uint64_t{0} << (from % kWordBits));
  for (;;) {
    if (word != 0) {
      return w * kWordBits + static_cast<size_t>(CountTrailingZeros(word));
    }
    if (++w == words_.size()) return num_bits_;
    word = words_[w];
  }
}

}  // namespace cqcount
