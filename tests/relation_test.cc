#include "relational/relation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/random.h"

namespace cqcount {
namespace {

// ---------------------------------------------------------------------------
// Boxed reference model: the pre-flat-storage semantics (sorted,
// duplicate-free std::vector<Tuple>), used to cross-validate the flat
// implementation on randomized inputs.
// ---------------------------------------------------------------------------
struct BoxedRelation {
  int arity = 0;
  std::vector<Tuple> tuples;

  void Canonicalize() {
    std::sort(tuples.begin(), tuples.end());
    tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
  }
  bool Contains(const Tuple& t) const {
    return std::binary_search(tuples.begin(), tuples.end(), t);
  }
  std::pair<size_t, size_t> PrefixRange(const Tuple& prefix, size_t from,
                                        size_t to) const {
    auto cmp_lo = [&](const Tuple& t, const Tuple& p) {
      return std::lexicographical_compare(
          t.begin(), t.begin() + std::min(t.size(), p.size()), p.begin(),
          p.end());
    };
    auto lo = std::lower_bound(tuples.begin() + from, tuples.begin() + to,
                               prefix, cmp_lo);
    auto cmp_hi = [&](const Tuple& p, const Tuple& t) {
      return std::lexicographical_compare(
          p.begin(), p.end(), t.begin(),
          t.begin() + std::min(t.size(), p.size()));
    };
    auto hi = std::upper_bound(lo, tuples.begin() + to, prefix, cmp_hi);
    return {static_cast<size_t>(lo - tuples.begin()),
            static_cast<size_t>(hi - tuples.begin())};
  }
  BoxedRelation Project(const std::vector<int>& positions) const {
    BoxedRelation out;
    out.arity = static_cast<int>(positions.size());
    for (const Tuple& t : tuples) {
      Tuple p;
      for (int pos : positions) p.push_back(t[pos]);
      out.tuples.push_back(std::move(p));
    }
    out.Canonicalize();
    return out;
  }
};

bool SameContents(const Relation& flat, const BoxedRelation& boxed) {
  if (flat.size() != boxed.tuples.size()) return false;
  for (size_t i = 0; i < flat.size(); ++i) {
    if (!(flat[i] == boxed.tuples[i])) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Basic semantics.
// ---------------------------------------------------------------------------
TEST(RelationTest, AddAndContains) {
  Relation r(2);
  r.Add({1, 2});
  r.Add({0, 5});
  r.Canonicalize();
  EXPECT_TRUE(r.Contains({1, 2}));
  EXPECT_TRUE(r.Contains({0, 5}));
  EXPECT_FALSE(r.Contains({2, 1}));
  EXPECT_EQ(r.size(), 2u);
}

TEST(RelationTest, DuplicatesRemoved) {
  Relation r(1);
  r.Add({3});
  r.Add({3});
  r.Add({1});
  r.Canonicalize();
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], (Tuple{1}));
  EXPECT_EQ(r[1], (Tuple{3}));
}

TEST(RelationTest, TuplesSortedLexicographically) {
  Relation r(2);
  r.Add({2, 0});
  r.Add({0, 9});
  r.Add({2, 1});
  r.Add({0, 1});
  r.Canonicalize();
  EXPECT_EQ(r[0], (Tuple{0, 1}));
  EXPECT_EQ(r[1], (Tuple{0, 9}));
  EXPECT_EQ(r[2], (Tuple{2, 0}));
  EXPECT_EQ(r[3], (Tuple{2, 1}));
}

TEST(RelationTest, CanonicalizeIsIdempotentAndTracked) {
  Relation r(1);
  EXPECT_TRUE(r.canonical());  // Empty relations are trivially canonical.
  r.Add({4});
  EXPECT_FALSE(r.canonical());
  r.Canonicalize();
  EXPECT_TRUE(r.canonical());
  r.Canonicalize();  // No-op.
  EXPECT_TRUE(r.canonical());
  EXPECT_EQ(r.size(), 1u);
}

TEST(RelationTest, FlatBufferIsArityStrided) {
  Relation r(3);
  r.Add({5, 6, 7});
  r.Add({1, 2, 3});
  r.Canonicalize();
  const std::vector<Value> expected = {1, 2, 3, 5, 6, 7};
  EXPECT_EQ(r.flat(), expected);
  EXPECT_EQ(r.At(1, 2), 7u);
}

TEST(RelationTest, PrefixRange) {
  Relation r(2);
  for (Value a : {0u, 1u, 1u, 2u}) {
    static Value b = 0;
    r.Add({a, b++});
  }
  r.Add({1, 7});
  r.Canonicalize();
  auto [lo, hi] = r.PrefixRange({1}, 0, r.size());
  // Tuples with first component 1.
  for (size_t i = lo; i < hi; ++i) {
    EXPECT_EQ(r[i][0], 1u);
  }
  EXPECT_EQ(hi - lo, 3u);
  auto [lo2, hi2] = r.PrefixRange({9}, 0, r.size());
  EXPECT_EQ(lo2, hi2);
}

TEST(RelationTest, NarrowRangeDescendsTrieLevels) {
  Relation r(2);
  r.Add({1, 3});
  r.Add({1, 5});
  r.Add({1, 5});
  r.Add({2, 0});
  r.Canonicalize();
  // Level 0: rows with column 0 == 1.
  auto [lo, hi] = r.NarrowRange(0, r.size(), 0, 1);
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 2u);
  // Level 1 within that range: rows with column 1 == 5.
  auto [lo2, hi2] = r.NarrowRange(lo, hi, 1, 5);
  EXPECT_EQ(hi2 - lo2, 1u);
  EXPECT_EQ(r[lo2], (Tuple{1, 5}));
}

TEST(RelationTest, IndexOfFindsCanonicalPosition) {
  Relation r(2);
  r.Add({3, 3});
  r.Add({0, 1});
  r.Canonicalize();
  EXPECT_EQ(r.IndexOf(AsView(Tuple{0, 1})), 0);
  EXPECT_EQ(r.IndexOf(AsView(Tuple{3, 3})), 1);
  EXPECT_EQ(r.IndexOf(AsView(Tuple{1, 1})), -1);
}

TEST(RelationTest, ProjectDeduplicates) {
  Relation r(2);
  r.Add({1, 5});
  r.Add({1, 6});
  r.Add({2, 5});
  r.Canonicalize();
  Relation p = r.Project({0});
  EXPECT_EQ(p.arity(), 1);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_TRUE(p.Contains({1}));
  EXPECT_TRUE(p.Contains({2}));
}

TEST(RelationTest, ProjectReordersColumns) {
  Relation r(3);
  r.Add({1, 2, 3});
  r.Canonicalize();
  Relation p = r.Project({2, 0});
  EXPECT_TRUE(p.Contains({3, 1}));
}

TEST(RelationTest, ProjectKeepsRowsAgreeingOnEqualPairs) {
  Relation r(3, {0, 1, 1, 2, 2, 2, 3, 3, 4, 5, 6, 5});
  EXPECT_EQ(r.Project({0}, {{1, 2}}), Relation(1, {0, 2}));
  EXPECT_EQ(r.Project({1, 0}, {{0, 2}}), Relation(2, {2, 2, 6, 5}));
}

// Non-decreasing staged rows with duplicates take the linear dedupe; the
// result must equal the sort-based canonical form at every arity.
TEST(RelationTest, SortedRowsWithDuplicatesDedupeLinearly) {
  for (int arity = 1; arity <= 3; ++arity) {
    Rng rng(static_cast<uint64_t>(arity));
    std::vector<Tuple> rows;
    for (int i = 0; i < 300; ++i) {
      Tuple t(static_cast<size_t>(arity));
      for (Value& v : t) v = static_cast<Value>(rng.UniformInt(4));
      rows.push_back(t);
    }
    std::sort(rows.begin(), rows.end());
    Relation sorted(arity);
    Relation shuffled(arity);
    for (const Tuple& t : rows) sorted.Add(t);
    rng.Shuffle(rows);
    for (const Tuple& t : rows) shuffled.Add(t);
    sorted.Canonicalize();
    shuffled.Canonicalize();
    EXPECT_EQ(sorted, shuffled);
    EXPECT_LT(sorted.size(), rows.size());
    for (size_t i = 1; i < sorted.size(); ++i) {
      EXPECT_TRUE(sorted[i - 1] < sorted[i]);
    }
  }
}

TEST(RelationTest, ReorderIsFullPermutation) {
  Relation r(2);
  r.Add({1, 9});
  r.Canonicalize();
  Relation swapped = r.Reorder({1, 0});
  EXPECT_TRUE(swapped.Contains({9, 1}));
}

TEST(RelationTest, Equality) {
  Relation a(1);
  a.Add({1});
  a.Add({2});
  a.Canonicalize();
  Relation b(1);
  b.Add({2});
  b.Add({1});
  b.Add({1});
  b.Canonicalize();
  EXPECT_EQ(a, b);
}

TEST(RelationTest, AdoptFlatRowsConstructor) {
  Relation r(2, {4, 4, 0, 1, 4, 4});
  EXPECT_TRUE(r.canonical());
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], (Tuple{0, 1}));
  EXPECT_EQ(r[1], (Tuple{4, 4}));
}

TEST(RelationTest, AppendRowWritesInPlace) {
  Relation r(2);
  Value* row = r.AppendRow();
  row[0] = 7;
  row[1] = 8;
  r.Canonicalize();
  EXPECT_TRUE(r.Contains({7, 8}));
}

// ---------------------------------------------------------------------------
// TupleView semantics.
// ---------------------------------------------------------------------------
TEST(TupleViewTest, ComparisonAndMaterialize) {
  const Tuple a = {1, 2, 3};
  const Tuple b = {1, 2, 4};
  EXPECT_TRUE(AsView(a) < AsView(b));
  EXPECT_FALSE(AsView(b) < AsView(a));
  EXPECT_TRUE(AsView(a) == a);
  EXPECT_TRUE(AsView(a) != AsView(b));
  EXPECT_EQ(MaterializeTuple(AsView(a)), a);
}

TEST(TupleViewTest, PrefixOrderingMatchesLexicographic) {
  const Tuple shorter = {1, 2};
  const Tuple longer = {1, 2, 0};
  EXPECT_TRUE(AsView(shorter) < AsView(longer));
  EXPECT_FALSE(AsView(longer) < AsView(shorter));
}

// ---------------------------------------------------------------------------
// Edge cases: empty relations, arity 1, arity 0.
// ---------------------------------------------------------------------------
TEST(RelationEdgeCaseTest, EmptyRelation) {
  Relation r(3);
  EXPECT_TRUE(r.empty());
  EXPECT_TRUE(r.canonical());
  EXPECT_EQ(r.size(), 0u);
  r.Canonicalize();
  EXPECT_FALSE(r.Contains({0, 0, 0}));
  auto [lo, hi] = r.PrefixRange({1}, 0, r.size());
  EXPECT_EQ(lo, hi);
  EXPECT_TRUE(r.Project({0}).empty());
  int visited = 0;
  for (TupleView t : r) {
    (void)t;
    ++visited;
  }
  EXPECT_EQ(visited, 0);
}

TEST(RelationEdgeCaseTest, ArityOneBehavesLikeASet) {
  Relation r(1);
  for (Value v : {5u, 1u, 5u, 9u, 1u}) r.Add({v});
  r.Canonicalize();
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0], (Tuple{1}));
  EXPECT_EQ(r[2], (Tuple{9}));
  EXPECT_TRUE(r.Contains({5}));
  EXPECT_FALSE(r.Contains({2}));
  auto [lo, hi] = r.NarrowRange(0, r.size(), 0, 5);
  EXPECT_EQ(hi - lo, 1u);
}

TEST(RelationEdgeCaseTest, ArityZeroHoldsAtMostTheEmptyTuple) {
  // Bag solutions of an empty bag: either {()} or {}.
  Relation r(0);
  EXPECT_TRUE(r.empty());
  r.AppendRow();
  r.AppendRow();  // Duplicate empty tuple.
  r.Canonicalize();
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].size(), 0u);
  EXPECT_GE(r.IndexOf(r[0]), 0);
  int visited = 0;
  for (TupleView t : r) {
    EXPECT_TRUE(t.empty());
    ++visited;
  }
  EXPECT_EQ(visited, 1);
}

// ---------------------------------------------------------------------------
// FlatTuples (the unordered flat sibling used by DP tables and sketches).
// ---------------------------------------------------------------------------
TEST(FlatTuplesTest, PushAndView) {
  FlatTuples rows(2);
  rows.PushBack(AsView(Tuple{3, 4}));
  Value* raw = rows.AppendRow();
  raw[0] = 1;
  raw[1] = 2;
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (Tuple{3, 4}));
  EXPECT_EQ(rows.back(), (Tuple{1, 2}));
}

TEST(FlatTuplesTest, WidthZeroCountsRows) {
  FlatTuples rows(0);
  rows.AppendRow();
  rows.AppendRow();
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_TRUE(rows[1].empty());
}

TEST(FlatTuplesTest, LowerBoundOnSortedRows) {
  FlatTuples rows(2);
  rows.PushBack(AsView(Tuple{0, 1}));
  rows.PushBack(AsView(Tuple{1, 0}));
  rows.PushBack(AsView(Tuple{1, 2}));
  const Tuple probe = {1, 0};
  EXPECT_EQ(rows.LowerBound(probe.data()), 1u);
  const Tuple missing = {1, 1};
  EXPECT_EQ(rows.LowerBound(missing.data()), 2u);
  const Tuple beyond = {9, 9};
  EXPECT_EQ(rows.LowerBound(beyond.data()), 3u);
}

// ---------------------------------------------------------------------------
// Property tests: flat storage matches the boxed reference semantics.
// ---------------------------------------------------------------------------
class RelationPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RelationPropertyTest, MatchesBoxedSemantics) {
  Rng rng(GetParam() * 7919 + 4242);
  const int arity = 1 + static_cast<int>(rng.UniformInt(5));
  const int universe = 1 + static_cast<int>(rng.UniformInt(6));
  const int rows = static_cast<int>(rng.UniformInt(60));

  Relation flat(arity);
  BoxedRelation boxed;
  boxed.arity = arity;
  for (int i = 0; i < rows; ++i) {
    Tuple t(arity);
    for (int k = 0; k < arity; ++k) {
      t[k] = static_cast<Value>(rng.UniformInt(universe));
    }
    flat.Add(t);
    boxed.tuples.push_back(std::move(t));
  }
  flat.Canonicalize();
  boxed.Canonicalize();

  // Sortedness + dedup agree.
  ASSERT_TRUE(SameContents(flat, boxed));

  // Contains agrees on random probes.
  for (int probe = 0; probe < 40; ++probe) {
    Tuple t(arity);
    for (int k = 0; k < arity; ++k) {
      t[k] = static_cast<Value>(rng.UniformInt(universe + 1));
    }
    EXPECT_EQ(flat.Contains(t), boxed.Contains(t));
  }

  // PrefixRange agrees for every prefix length on random prefixes,
  // including degenerate prefixes longer than the arity.
  for (int len = 0; len <= arity + 2; ++len) {
    Tuple prefix(len);
    for (int k = 0; k < len; ++k) {
      prefix[k] = static_cast<Value>(rng.UniformInt(universe + 1));
    }
    EXPECT_EQ(flat.PrefixRange(prefix, 0, flat.size()),
              boxed.PrefixRange(prefix, 0, boxed.tuples.size()));
  }

  // Project/Reorder agree on a random position multiset.
  const int proj_width = 1 + static_cast<int>(rng.UniformInt(arity));
  std::vector<int> positions(proj_width);
  for (int k = 0; k < proj_width; ++k) {
    positions[k] = static_cast<int>(rng.UniformInt(arity));
  }
  EXPECT_TRUE(SameContents(flat.Project(positions), boxed.Project(positions)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelationPropertyTest,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace cqcount
