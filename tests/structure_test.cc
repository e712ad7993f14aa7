#include "relational/structure.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "obs/metrics.h"
#include "relational/segment.h"

namespace cqcount {
namespace {

// F = {(0,1), (0,2), (1,1), (2,0)} over {0..3}.
Structure GraphStructure() {
  Structure s(4);
  EXPECT_TRUE(s.DeclareRelation("F", 2).ok());
  for (const Tuple& t : {Tuple{0, 1}, Tuple{0, 2}, Tuple{1, 1}, Tuple{2, 0}}) {
    EXPECT_TRUE(s.AddFact("F", t).ok());
  }
  s.Canonicalize();
  return s;
}

Relation Rows(int arity, std::vector<Value> rows) {
  return Relation(arity, std::move(rows));
}

const ProjectionSpec kIdentity{{0, 1}, {}};
const ProjectionSpec kSwapped{{1, 0}, {}};
const ProjectionSpec kFirst{{0}, {}};
const ProjectionSpec kLoops{{0}, {{0, 1}}};

int64_t GaugeValue(const char* name) {
  return obs::MetricRegistry::Global().GetGauge(name, "").Value();
}

TEST(StructureTest, DeclareAndAdd) {
  Structure s(10);
  EXPECT_TRUE(s.DeclareRelation("R", 2).ok());
  EXPECT_TRUE(s.AddFact("R", {1, 2}).ok());
  s.Canonicalize();
  EXPECT_TRUE(s.HasRelation("R"));
  EXPECT_EQ(s.Arity("R"), 2);
  EXPECT_EQ(s.relation("R").size(), 1u);
}

TEST(StructureTest, RedeclareSameArityIsIdempotent) {
  Structure s(5);
  EXPECT_TRUE(s.DeclareRelation("R", 2).ok());
  EXPECT_TRUE(s.DeclareRelation("R", 2).ok());
  EXPECT_FALSE(s.DeclareRelation("R", 3).ok());
}

TEST(StructureTest, AllowsZeroArityRejectsNegative) {
  Structure s(5);
  // Arity 0 backs nullary guard atoms R(): the relation holds at most the
  // empty tuple.
  EXPECT_TRUE(s.DeclareRelation("R", 0).ok());
  EXPECT_TRUE(s.AddFact("R", {}).ok());
  s.Canonicalize();
  EXPECT_EQ(s.relation("R").size(), 1u);
  EXPECT_FALSE(s.DeclareRelation("S", -1).ok());
}

TEST(StructureTest, AddFactValidation) {
  Structure s(3);
  ASSERT_TRUE(s.DeclareRelation("R", 2).ok());
  EXPECT_FALSE(s.AddFact("S", {0, 1}).ok());       // Undeclared.
  EXPECT_FALSE(s.AddFact("R", {0}).ok());          // Wrong arity.
  EXPECT_FALSE(s.AddFact("R", {0, 3}).ok());       // Outside universe.
  EXPECT_TRUE(s.AddFact("R", {0, 2}).ok());
  s.Canonicalize();
}

TEST(StructureTest, SizeFormula) {
  // ||A|| = |sig| + |U| + sum |R| * ar(R)  (Section 2.2).
  Structure s(7);
  ASSERT_TRUE(s.DeclareRelation("R", 2).ok());
  ASSERT_TRUE(s.DeclareRelation("S", 3).ok());
  ASSERT_TRUE(s.AddFact("R", {0, 1}).ok());
  ASSERT_TRUE(s.AddFact("R", {1, 2}).ok());
  ASSERT_TRUE(s.AddFact("S", {0, 1, 2}).ok());
  s.Canonicalize();
  EXPECT_EQ(s.Size(), 2u + 7u + 2u * 2u + 1u * 3u);
  EXPECT_EQ(s.NumFacts(), 3u);
}

TEST(StructureTest, RelationNamesSorted) {
  Structure s(2);
  ASSERT_TRUE(s.DeclareRelation("Zeta", 1).ok());
  ASSERT_TRUE(s.DeclareRelation("Alpha", 1).ok());
  EXPECT_EQ(s.RelationNames(),
            (std::vector<std::string>{"Alpha", "Zeta"}));
}

TEST(StructureTest, ProjectionsFilterProjectAndSort) {
  const Structure s = GraphStructure();
  EXPECT_EQ(*s.Projection("F", kSwapped),
            Rows(2, {0, 2, 1, 0, 1, 1, 2, 0}));
  EXPECT_EQ(*s.Projection("F", kFirst), Rows(1, {0, 1, 2}));
  EXPECT_EQ(*s.Projection("F", kLoops), Rows(1, {1}));
}

TEST(StructureTest, IdentityProjectionAliasesTheRelation) {
  const Structure s = GraphStructure();
  const int64_t entries = GaugeValue("projection_memo.entries");
  std::shared_ptr<const Relation> p = s.Projection("F", kIdentity);
  EXPECT_EQ(p.get(), &s.relation("F"));
  EXPECT_EQ(p->flat().data(), s.relation("F").flat().data());
  // A non-owning alias: nothing is memoised or copied.
  EXPECT_EQ(p.use_count(), 0);
  EXPECT_EQ(GaugeValue("projection_memo.entries"), entries);
}

TEST(StructureTest, IdentityProjectionAliasesSegmentStorage) {
  const std::string path = ::testing::TempDir() + "cq_structure_alias.seg";
  ASSERT_TRUE(WriteSegmentDatabase(GraphStructure(), path).ok());
  StatusOr<Database> opened = OpenSegmentDatabase(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const Relation& f = opened->relation("F");
  ASSERT_TRUE(f.is_mapped());
  std::shared_ptr<const Relation> p = opened->Projection("F", kIdentity);
  EXPECT_EQ(p->flat().data(), f.flat().data());
  EXPECT_EQ(*opened->Projection("F", kSwapped),
            *GraphStructure().Projection("F", kSwapped));
  std::remove(path.c_str());
}

TEST(StructureTest, ProjectionIsBuiltOncePerKeyAndCounted) {
  const int64_t entries = GaugeValue("projection_memo.entries");
  const int64_t bytes = GaugeValue("projection_memo.bytes");
  {
    const Structure s = GraphStructure();
    std::shared_ptr<const Relation> a = s.Projection("F", kSwapped);
    EXPECT_EQ(s.Projection("F", kSwapped), a);
    EXPECT_NE(s.Projection("F", kFirst), a);
    EXPECT_EQ(GaugeValue("projection_memo.entries"), entries + 2);
    // (4 swapped rows * 2 + 3 first-column rows) * 4 bytes.
    EXPECT_EQ(GaugeValue("projection_memo.bytes"), bytes + 44);
  }
  // Destroying the structure drops its entries from the gauges.
  EXPECT_EQ(GaugeValue("projection_memo.entries"), entries);
  EXPECT_EQ(GaugeValue("projection_memo.bytes"), bytes);
}

TEST(StructureTest, MutationsDropTheMemo) {
  Structure s = GraphStructure();
  std::shared_ptr<const Relation> before = s.Projection("F", kFirst);
  ASSERT_TRUE(s.AddFact("F", {3, 3}).ok());
  s.Canonicalize();
  EXPECT_EQ(*s.Projection("F", kFirst), Rows(1, {0, 1, 2, 3}));
  EXPECT_EQ(*s.Projection("F", kLoops), Rows(1, {1, 3}));
  // A caller still holding the old projection keeps its old contents.
  EXPECT_EQ(*before, Rows(1, {0, 1, 2}));

  ASSERT_TRUE(s.AdoptRelation("F", Rows(2, {2, 2})).ok());
  EXPECT_EQ(*s.Projection("F", kFirst), Rows(1, {2}));
  EXPECT_EQ(*s.Projection("F", kSwapped), Rows(2, {2, 2}));
}

TEST(StructureTest, CopyKeepsItsOwnMemo) {
  Structure original = GraphStructure();
  std::shared_ptr<const Relation> memoised = original.Projection("F", kFirst);
  const Structure copy = original;
  ASSERT_TRUE(original.AdoptRelation("F", Rows(2, {3, 0})).ok());
  EXPECT_EQ(*original.Projection("F", kFirst), Rows(1, {3}));
  EXPECT_EQ(*copy.Projection("F", kFirst), Rows(1, {0, 1, 2}));
  EXPECT_NE(copy.Projection("F", kFirst), memoised);
  Structure moved = std::move(original);
  EXPECT_EQ(*moved.Projection("F", kSwapped), Rows(2, {0, 3}));
  EXPECT_EQ(moved.Projection("F", kIdentity).get(), &moved.relation("F"));
}

}  // namespace
}  // namespace cqcount
