#include "util/random.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace cqcount {
namespace {

TEST(RngTest, DeterministicForFixedSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 28);
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.UniformInt(bound), bound);
    }
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.UniformDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyFair) {
  Rng rng(19);
  int heads = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.Bernoulli(0.5)) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / trials, 0.5, 0.02);
}

TEST(RngTest, RandomMaskDensity) {
  Rng rng(23);
  Bitset mask = rng.RandomMask(10000, 0.25);
  EXPECT_EQ(mask.size(), 10000u);
  EXPECT_NEAR(static_cast<double>(mask.Count()) / 10000.0, 0.25, 0.03);
}

TEST(RngTest, RandomMaskBitStreamMatchesPerBitDraws) {
  // The packed fair mask consumes the generator's bit stream in order:
  // bit i equals bit i%64 of the (i/64)-th Next() draw, so fixed-seed
  // tests that draw random masks reproduce.
  Rng word_rng(99);
  Bitset mask = word_rng.RandomMask(130, 0.5);
  Rng bit_rng(99);
  uint64_t bits = 0;
  int available = 0;
  for (size_t i = 0; i < 130; ++i) {
    if (available == 0) {
      bits = bit_rng.Next();
      available = 64;
    }
    EXPECT_EQ(mask.Test(i), (bits & 1) != 0) << "bit " << i;
    bits >>= 1;
    --available;
  }
  // Both consumed ceil(130/64) = 3 draws: the next outputs agree.
  EXPECT_EQ(word_rng.Next(), bit_rng.Next());
}

TEST(RngTest, RandomMaskExtremes) {
  Rng rng(31);
  Bitset full = rng.RandomMask(65, 1.0);
  EXPECT_EQ(full.size(), 65u);
  EXPECT_EQ(full.Count(), 65u);
  Bitset none = rng.RandomMask(10, 0.0);
  EXPECT_EQ(none.size(), 10u);
  EXPECT_TRUE(none.None());
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(31);
  Rng child = a.Split();
  // The child stream should not equal the parent's continuation.
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.Next() != child.Next()) ++differing;
  }
  EXPECT_GT(differing, 12);
}

}  // namespace
}  // namespace cqcount
