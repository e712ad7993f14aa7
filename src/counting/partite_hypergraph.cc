#include "counting/partite_hypergraph.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "hom/backtracking.h"
#include "util/random.h"

namespace cqcount {
namespace {

// Fork of the brute-force oracle: scans the parent's (immutable) answer
// relation. Keeps its own call counter.
class BruteForceFork : public EdgeFreeOracle {
 public:
  explicit BruteForceFork(const Relation* answers) : answers_(answers) {}

  bool IsEdgeFree(const PartiteSubset& parts) override {
    ++num_calls_;
    for (TupleView answer : *answers_) {
      bool inside = true;
      for (size_t i = 0; i < answer.size(); ++i) {
        if (!parts.parts[i].Test(answer[i])) {
          inside = false;
          break;
        }
      }
      if (inside) return false;
    }
    return true;
  }

  std::unique_ptr<EdgeFreeOracle> Fork() override {
    return std::make_unique<BruteForceFork>(answers_);
  }

 private:
  const Relation* answers_;
};

}  // namespace

uint64_t HashPartiteSubset(const PartiteSubset& parts) {
  // A sum of SplitMix64 terms, one per non-zero word, each keyed by its
  // (part, word) position. Skipping zero words makes this a pure content
  // hash (independent of how far a mask's zero tail extends), and the
  // terms are independent, so the fold runs at the mixer's throughput
  // rather than through a serial chain. All-zero blocks of four words,
  // most of a small box's mask, cost one test.
  uint64_t sum = 0;
  for (size_t i = 0; i < parts.parts.size(); ++i) {
    const Bitset& mask = parts.parts[i];
    const size_t words = mask.num_words();
    auto fold = [&](size_t w) {
      const uint64_t word = mask.word(w);
      if (word != 0) sum += DeriveSeed(word, (uint64_t{i} << 32) + w);
    };
    size_t w = 0;
    for (; w + 4 <= words; w += 4) {
      if ((mask.word(w) | mask.word(w + 1) | mask.word(w + 2) |
           mask.word(w + 3)) == 0) {
        continue;
      }
      for (size_t k = w; k < w + 4; ++k) fold(k);
    }
    for (; w < words; ++w) fold(w);
  }
  return DeriveSeed(0x8D26'44F9'79AD'5AC1ULL ^ sum, parts.parts.size());
}

BruteForceEdgeFreeOracle::BruteForceEdgeFreeOracle(const Query& q,
                                                   const Database& db) {
  const int num_free = q.num_free();
  answers_ = Relation(num_free);
  EnumerateSolutions(q, db, [&](const Tuple& solution) {
    Value* dst = answers_.AppendRow();
    for (int i = 0; i < num_free; ++i) dst[i] = solution[i];
    return true;
  });
  // Canonicalisation deduplicates solutions that agree on the free part.
  answers_.Canonicalize();
}

bool BruteForceEdgeFreeOracle::IsEdgeFree(const PartiteSubset& parts) {
  ++num_calls_;
  for (TupleView answer : answers_) {
    bool inside = true;
    for (size_t i = 0; i < answer.size(); ++i) {
      if (!parts.parts[i].Test(answer[i])) {
        inside = false;
        break;
      }
    }
    if (inside) return false;
  }
  return true;
}

std::unique_ptr<EdgeFreeOracle> BruteForceEdgeFreeOracle::Fork() {
  return std::make_unique<BruteForceFork>(&answers_);
}

bool GeneralEdgeFreeAdapter::IsEdgeFree(const GeneralPartiteSubset& parts) {
  assert(static_cast<int>(parts.parts.size()) == num_free_);
  std::vector<int> permutation(num_free_);
  std::iota(permutation.begin(), permutation.end(), 0);
  do {
    // V'_i = W_i cap U_{pi(i)}(D); then V_j = V'_{pi^{-1}(j)}.
    PartiteSubset aligned;
    aligned.parts.assign(num_free_, Bitset(universe_, false));
    bool any_empty = false;
    for (int i = 0; i < num_free_ && !any_empty; ++i) {
      const int position = permutation[i];
      bool nonempty = false;
      for (uint64_t encoded : parts.parts[i]) {
        const int pos = static_cast<int>(encoded / universe_);
        const Value value = static_cast<Value>(encoded % universe_);
        if (pos == position) {
          aligned.parts[position].Set(value);
          nonempty = true;
        }
      }
      any_empty = !nonempty;
    }
    if (any_empty) continue;
    if (!aligned_->IsEdgeFree(aligned)) return false;
  } while (std::next_permutation(permutation.begin(), permutation.end()));
  return true;
}

}  // namespace cqcount
