#include "util/random.h"

#include <cmath>

namespace cqcount {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

uint64_t DeriveSeed(uint64_t base_seed, std::initializer_list<uint64_t> path) {
  uint64_t seed = base_seed;
  for (uint64_t step : path) seed = DeriveSeed(seed, step);
  return seed;
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) word = SplitMix64(sm);
  // Guard against the (astronomically unlikely) all-zero state.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

uint64_t Rng::UniformInt(uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0ULL - bound) % bound;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

double Rng::UniformDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

Bitset Rng::RandomMask(size_t n, double p) {
  Bitset mask(n, p >= 1.0);
  if (p <= 0.0 || p >= 1.0) return mask;
  if (p == 0.5) {
    // Fair masks draw 64 bits per RNG step, the LSB of each draw landing
    // on the lowest element.
    for (size_t w = 0; w < mask.num_words(); ++w) mask.SetWord(w, Next());
    return mask;
  }
  for (size_t i = 0; i < n; ++i) {
    if (Bernoulli(p)) mask.Set(i);
  }
  return mask;
}

uint64_t Rng::SplitSeed() { return Next() ^ 0xd1b54a32d192ed03ULL; }

Rng Rng::Split() { return Rng(SplitSeed()); }

}  // namespace cqcount
