// Deterministic, seedable pseudo-random number generation.
//
// All randomised algorithms in cqcount take an explicit Rng so experiments
// and tests are reproducible. The generator is xoshiro256**, seeded through
// SplitMix64 (the recommended seeding procedure).
#ifndef CQCOUNT_UTIL_RANDOM_H_
#define CQCOUNT_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "util/bitset.h"

namespace cqcount {

/// Derives an independent seed from `base_seed` and a counter (SplitMix64
/// step). Deterministic and index-sensitive, so derived streams never
/// collide regardless of execution order. Used for batch items, intra-query
/// tasks, and every other unit of parallel randomised work. Inline: the
/// colour-coding trial loop evaluates it once per colouring word.
inline uint64_t DeriveSeed(uint64_t base_seed, uint64_t index) {
  uint64_t z = base_seed + (index + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Folds a whole counter path into one seed:
/// DeriveSeed(s, {a, b, c}) == DeriveSeed(DeriveSeed(DeriveSeed(s,a),b),c).
/// The estimation stack keys every sampling task by its position in the
/// derivation tree — (component, run, box/stratum, round, sample) — so the
/// stream a task consumes is a pure function of the task's identity, never
/// of scheduling order or thread count.
uint64_t DeriveSeed(uint64_t base_seed, std::initializer_list<uint64_t> path);

/// xoshiro256** pseudo-random generator with convenience samplers.
class Rng {
 public:
  /// Seeds the state deterministically from `seed` via SplitMix64.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Returns the next raw 64-bit output.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Returns a uniform integer in [0, bound). Requires bound > 0.
  uint64_t UniformInt(uint64_t bound);

  /// Returns a uniform double in [0, 1).
  double UniformDouble();

  /// Returns true with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Returns a uniformly random subset of {0,..,n-1} as a packed mask,
  /// keeping each element independently with probability p. Fair masks
  /// (p == 0.5) consume one Next() per 64 bits, bit i of the mask being
  /// bit i%64 of draw i/64.
  Bitset RandomMask(size_t n, double p);

  /// Shuffles `items` uniformly (Fisher-Yates).
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    if (items.empty()) return;
    for (size_t i = items.size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(i + 1));
      using std::swap;
      swap(items[i], items[j]);
    }
  }

  /// The seed a Split() child is constructed from (consumes one Next()
  /// draw). Exposed so callers that precompute child seeds up front (the
  /// DLM estimator's run-seed walk) share one definition with Split().
  uint64_t SplitSeed();

  /// Spawns an independent child generator (for parallel or nested use).
  Rng Split();

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace cqcount

#endif  // CQCOUNT_UTIL_RANDOM_H_
