#include "util/bitset.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/random.h"

namespace cqcount {
namespace {

TEST(BitsetTest, EmptyIsUnrestrictedSentinel) {
  Bitset b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(b.Any());
  EXPECT_FALSE(b.Test(0));
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_EQ(b.FindNext(0), 0u);
}

TEST(BitsetTest, SetTestResetRoundTrip) {
  Bitset b(100, false);
  EXPECT_EQ(b.size(), 100u);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(99);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(63));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(99));
  EXPECT_FALSE(b.Test(1));
  EXPECT_FALSE(b.Test(100));  // Out of range: never a member.
  EXPECT_EQ(b.Count(), 4u);
  b.Set(63, false);
  EXPECT_FALSE(b.Test(63));
  EXPECT_EQ(b.Count(), 3u);
}

// Non-multiple-of-64 universes: the tail-word invariant is what every
// word-parallel operation relies on.
class BitsetTailTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BitsetTailTest, TailBitsStayClear) {
  const size_t n = GetParam();
  Bitset all(n, true);
  EXPECT_EQ(all.Count(), n);
  EXPECT_TRUE(all.All());
  EXPECT_EQ(all.Any(), n > 0);

  Bitset flipped(n, false);
  flipped.FlipAll();
  EXPECT_EQ(flipped, all);
  flipped.FlipAll();
  EXPECT_EQ(flipped.Count(), 0u);
  EXPECT_FALSE(flipped.Any());

  // FindNext never reports a phantom tail bit.
  EXPECT_EQ(flipped.FindNext(0), n);
  if (n > 0) {
    flipped.Set(n - 1);
    EXPECT_EQ(flipped.FindNext(0), n - 1);
    EXPECT_EQ(flipped.FindNext(n - 1), n - 1);
    EXPECT_EQ(flipped.FindNext(n), n);
  }
}

INSTANTIATE_TEST_SUITE_P(Universes, BitsetTailTest,
                         ::testing::Values(0, 1, 3, 63, 64, 65, 100, 127,
                                           128, 130, 1000));

TEST(BitsetTest, IntersectWith) {
  Bitset a(130, true);
  Bitset b(130, false);
  b.Set(5);
  b.Set(64);
  b.Set(129);
  a.IntersectWith(b);
  EXPECT_EQ(a, b);
  // Intersecting with a SHORTER mask clears everything past its universe.
  Bitset c(70, true);
  a = Bitset(130, true);
  a.IntersectWith(c);
  EXPECT_EQ(a.Count(), 70u);
  EXPECT_TRUE(a.Test(69));
  EXPECT_FALSE(a.Test(70));
  EXPECT_FALSE(a.Test(129));
}

TEST(BitsetTest, ComplementViaFlipMatchesPerBit) {
  Rng rng(404);
  for (int round = 0; round < 10; ++round) {
    const size_t n = 1 + rng.UniformInt(200);
    Bitset mask = rng.RandomMask(n, 0.5);
    Bitset flipped = mask;
    flipped.FlipAll();
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(flipped.Test(i), !mask.Test(i));
    }
    EXPECT_EQ(mask.Count() + flipped.Count(), n);
  }
}

TEST(BitsetTest, SetRangeMatchesPerBit) {
  Rng rng(505);
  for (int round = 0; round < 20; ++round) {
    const size_t n = 1 + rng.UniformInt(300);
    const size_t lo = rng.UniformInt(n + 1);
    const size_t hi = lo + rng.UniformInt(n + 1 - lo);
    Bitset fast(n, false);
    fast.SetRange(lo, hi);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(fast.Test(i), i >= lo && i < hi) << "n=" << n << " i=" << i;
    }
    EXPECT_EQ(fast.Count(), hi - lo);
  }
}

TEST(BitsetTest, ResizeGrowsAndShrinks) {
  Bitset b(10, true);
  b.Resize(70, false);
  EXPECT_EQ(b.size(), 70u);
  EXPECT_EQ(b.Count(), 10u);
  b.Resize(130, true);
  EXPECT_EQ(b.Count(), 10u + 60u);
  EXPECT_TRUE(b.Test(70));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(10));
  b.Resize(5);
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(b.Count(), 5u);
  // Shrink then re-grow: formerly-set bits past the boundary are gone.
  b.Resize(130, false);
  EXPECT_EQ(b.Count(), 5u);
}

TEST(BitsetTest, FindNextIteratesExactlySetBits) {
  Bitset b(200, false);
  const std::vector<size_t> set = {0, 1, 63, 64, 65, 127, 128, 199};
  for (size_t i : set) b.Set(i);
  std::vector<size_t> seen;
  for (size_t i = b.FindNext(0); i < b.size(); i = b.FindNext(i + 1)) {
    seen.push_back(i);
  }
  EXPECT_EQ(seen, set);
}

TEST(BitsetTest, EqualityIncludesUniverseSize) {
  Bitset a(64, false);
  Bitset b(65, false);
  EXPECT_NE(a, b);
  b.Resize(64);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace cqcount
