#include "hom/join.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>

#include "counting/exact_count.h"
#include "counting/fptras.h"
#include "query/parser.h"
#include "test_util.h"

namespace cqcount {
namespace {

using testing_util::RandomDatabaseFor;
using testing_util::RandomQuery;
using testing_util::RandomQueryOptions;

Query Parse(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

// Reference implementation of the BagJoiner semantics: enumerate all
// assignments of `vars` and check every constraint directly.
std::vector<Tuple> NaiveBagSolutions(const Query& q, const Database& db,
                                     const std::vector<int>& vars,
                                     const VarDomains* domains,
                                     BagJoiner::Options opts) {
  std::vector<Tuple> result;
  const uint32_t n = db.universe_size();
  std::vector<int> level_of(q.num_vars(), -1);
  for (size_t d = 0; d < vars.size(); ++d) level_of[vars[d]] = int(d);
  Tuple assignment(vars.size(), 0);
  std::function<void(size_t)> rec = [&](size_t d) {
    if (d == vars.size()) {
      // Positive atoms: some fact must be consistent with the partial
      // assignment (Definition 47).
      for (const Atom& atom : q.atoms()) {
        const Relation& rel = db.relation(atom.relation);
        if (!atom.negated) {
          bool supported = false;
          for (TupleView t : rel) {
            bool consistent = true;
            for (size_t p = 0; p < atom.vars.size() && consistent; ++p) {
              // Repeated positions must agree.
              for (size_t p2 = p + 1; p2 < atom.vars.size(); ++p2) {
                if (atom.vars[p] == atom.vars[p2] && t[p] != t[p2]) {
                  consistent = false;
                  break;
                }
              }
              const int lvl = level_of[atom.vars[p]];
              if (consistent && lvl >= 0 && t[p] != assignment[lvl]) {
                consistent = false;
              }
            }
            if (consistent) {
              supported = true;
              break;
            }
          }
          if (!supported) return;
        } else if (opts.enforce_negated) {
          bool all_in = true;
          for (int v : atom.vars) all_in = all_in && level_of[v] >= 0;
          if (!all_in) continue;
          Tuple t;
          for (int v : atom.vars) t.push_back(assignment[level_of[v]]);
          if (rel.Contains(t)) return;
        }
      }
      if (opts.enforce_disequalities) {
        for (const Disequality& dq : q.disequalities()) {
          if (level_of[dq.lhs] >= 0 && level_of[dq.rhs] >= 0 &&
              assignment[level_of[dq.lhs]] ==
                  assignment[level_of[dq.rhs]]) {
            return;
          }
        }
      }
      result.push_back(assignment);
      return;
    }
    for (Value w = 0; w < n; ++w) {
      if (domains && !domains->Allows(vars[d], w)) continue;
      assignment[d] = w;
      rec(d + 1);
    }
  };
  rec(0);
  return result;
}

TEST(BagJoinerTest, SimpleTwoAtomJoin) {
  Query q = Parse("ans(x, y, z) :- R(x, y), S(y, z).");
  Database db(4);
  ASSERT_TRUE(db.DeclareRelation("R", 2).ok());
  ASSERT_TRUE(db.DeclareRelation("S", 2).ok());
  ASSERT_TRUE(db.AddFact("R", {0, 1}).ok());
  ASSERT_TRUE(db.AddFact("R", {2, 1}).ok());
  ASSERT_TRUE(db.AddFact("S", {1, 3}).ok());
  db.Canonicalize();
  BagJoiner joiner(q, db, {0, 1, 2}, {});
  Relation out = joiner.Materialise(nullptr);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(out.Contains({0, 1, 3}));
  EXPECT_TRUE(out.Contains({2, 1, 3}));
}

TEST(BagJoinerTest, EmptyPositiveRelationMeansInfeasible) {
  Query q = Parse("ans(x) :- R(x), S(x).");
  Database db(3);
  ASSERT_TRUE(db.DeclareRelation("R", 1).ok());
  ASSERT_TRUE(db.DeclareRelation("S", 1).ok());
  ASSERT_TRUE(db.AddFact("R", {0}).ok());
  db.Canonicalize();
  BagJoiner joiner(q, db, {0}, {});
  EXPECT_TRUE(joiner.infeasible());
  EXPECT_TRUE(joiner.Materialise(nullptr).empty());
}

TEST(BagJoinerTest, EmptyBagYieldsEmptyTupleWhenFeasible) {
  Query q = Parse("ans() :- R(x).");
  Database db(2);
  ASSERT_TRUE(db.DeclareRelation("R", 1).ok());
  ASSERT_TRUE(db.AddFact("R", {1}).ok());
  db.Canonicalize();
  BagJoiner joiner(q, db, {}, {});
  Relation out = joiner.Materialise(nullptr);
  EXPECT_EQ(out.size(), 1u);  // The empty assignment.
}

TEST(BagJoinerTest, RepeatedVariableInAtom) {
  Query q = Parse("ans(x) :- E(x, x).");
  Database db(3);
  ASSERT_TRUE(db.DeclareRelation("E", 2).ok());
  ASSERT_TRUE(db.AddFact("E", {0, 1}).ok());
  ASSERT_TRUE(db.AddFact("E", {2, 2}).ok());
  db.Canonicalize();
  BagJoiner joiner(q, db, {0}, {});
  Relation out = joiner.Materialise(nullptr);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains({2}));
}

TEST(BagJoinerTest, NegatedAtomFiltersInsideBag) {
  Query q = Parse("ans(x, y) :- R(x, y), !S(x, y).");
  Database db(2);
  ASSERT_TRUE(db.DeclareRelation("R", 2).ok());
  ASSERT_TRUE(db.DeclareRelation("S", 2).ok());
  ASSERT_TRUE(db.AddFact("R", {0, 0}).ok());
  ASSERT_TRUE(db.AddFact("R", {0, 1}).ok());
  ASSERT_TRUE(db.AddFact("S", {0, 1}).ok());
  db.Canonicalize();
  BagJoiner joiner(q, db, {0, 1}, {});
  Relation out = joiner.Materialise(nullptr);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains({0, 0}));
}

TEST(BagJoinerTest, DisequalitiesEnforcedWhenRequested) {
  Query q = Parse("ans(x, y) :- R(x, y), x != y.");
  Database db(2);
  ASSERT_TRUE(db.DeclareRelation("R", 2).ok());
  ASSERT_TRUE(db.AddFact("R", {0, 0}).ok());
  ASSERT_TRUE(db.AddFact("R", {0, 1}).ok());
  db.Canonicalize();
  BagJoiner::Options opts;
  opts.enforce_disequalities = true;
  BagJoiner joiner(q, db, {0, 1}, opts);
  Relation out = joiner.Materialise(nullptr);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains({0, 1}));
}

TEST(BagJoinerTest, DomainsRestrictValues) {
  Query q = Parse("ans(x) :- R(x).");
  Database db(4);
  ASSERT_TRUE(db.DeclareRelation("R", 1).ok());
  for (Value v = 0; v < 4; ++v) ASSERT_TRUE(db.AddFact("R", {v}).ok());
  db.Canonicalize();
  VarDomains domains;
  domains.allowed.resize(1);
  domains.allowed[0] = testing_util::MaskOf({false, true, false, true});
  BagJoiner joiner(q, db, {0}, {});
  Relation out = joiner.Materialise(&domains);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(out.Contains({1}));
  EXPECT_TRUE(out.Contains({3}));
}

TEST(BagJoinerTest, EarlyStopViaCallback) {
  Query q = Parse("ans(x) :- R(x).");
  Database db(5);
  ASSERT_TRUE(db.DeclareRelation("R", 1).ok());
  for (Value v = 0; v < 5; ++v) ASSERT_TRUE(db.AddFact("R", {v}).ok());
  db.Canonicalize();
  BagJoiner joiner(q, db, {0}, {});
  int seen = 0;
  const bool completed = joiner.Enumerate(nullptr, [&seen](const Tuple&) {
    return ++seen < 2;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(seen, 2);
}

// Property: BagJoiner agrees with the naive reference on random queries,
// databases, bags and domains.
class BagJoinerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BagJoinerPropertyTest, MatchesNaiveSemantics) {
  Rng rng(GetParam() * 997 + 13);
  RandomQueryOptions qopts;
  qopts.negated_probability = 0.3;
  qopts.disequality_probability = 0.2;
  Query q = RandomQuery(rng, qopts);
  Database db = RandomDatabaseFor(q, 4, 0.45, rng);

  // Random bag: each variable with probability 1/2.
  std::vector<int> bag;
  for (int v = 0; v < q.num_vars(); ++v) {
    if (rng.Bernoulli(0.5)) bag.push_back(v);
  }
  // Random domains half the time.
  VarDomains domains;
  const bool use_domains = rng.Bernoulli(0.5);
  if (use_domains) {
    domains.allowed.resize(q.num_vars());
    for (int v = 0; v < q.num_vars(); ++v) {
      if (rng.Bernoulli(0.5)) domains.allowed[v] = rng.RandomMask(4, 0.7);
    }
  }
  BagJoiner::Options opts;
  opts.enforce_negated = true;
  opts.enforce_disequalities = rng.Bernoulli(0.5);

  BagJoiner joiner(q, db, bag, opts);
  Relation fast = joiner.Materialise(use_domains ? &domains : nullptr);
  std::vector<Tuple> slow = NaiveBagSolutions(
      q, db, bag, use_domains ? &domains : nullptr, opts);
  std::sort(slow.begin(), slow.end());
  ASSERT_EQ(fast.size(), slow.size()) << q.ToString();
  for (size_t i = 0; i < slow.size(); ++i) {
    EXPECT_EQ(fast[i], AsView(slow[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BagJoinerPropertyTest,
                         ::testing::Range(0, 60));

Database GraphDatabase(uint32_t universe, const std::vector<Tuple>& edges) {
  Database db(universe);
  EXPECT_TRUE(db.DeclareRelation("F", 2).ok());
  for (const Tuple& e : edges) EXPECT_TRUE(db.AddFact("F", e).ok());
  db.Canonicalize();
  return db;
}

// Materialises `vars` of `q` over `db` and checks it against the naive
// reference semantics.
void ExpectMatchesNaive(const Query& q, const Database& db,
                        const std::vector<int>& vars) {
  BagJoiner joiner(q, db, vars, {});
  const Relation fast = joiner.Materialise(nullptr);
  std::vector<Tuple> slow = NaiveBagSolutions(q, db, vars, nullptr, {});
  std::sort(slow.begin(), slow.end());
  ASSERT_EQ(fast.size(), slow.size()) << q.ToString();
  for (size_t i = 0; i < slow.size(); ++i) EXPECT_EQ(fast[i], AsView(slow[i]));
}

TEST(BagJoinerTest, JoinersOverOneDatabaseShareProjections) {
  const Database db = GraphDatabase(4, {{0, 1}, {1, 2}, {1, 3}, {3, 3}});
  const Query first = Parse("ans(x) :- F(x, y).");
  const Query second = Parse("ans(a) :- F(a, b), F(b, c), a != c.");
  const BagJoiner j1(first, db, {0}, {});
  const BagJoiner j2(second, db, {0}, {});
  // The memo entry, both joiners and this handle: one shared projection.
  const std::shared_ptr<const Relation> first_column =
      db.Projection("F", ProjectionSpec{{0}, {}});
  EXPECT_EQ(first_column.use_count(), 4);
  EXPECT_EQ(j1.Materialise(nullptr), *first_column);
  EXPECT_EQ(j2.Materialise(nullptr), *first_column);
}

TEST(BagJoinerTest, JoinsSeeFactsAddedAfterMemoisation) {
  const Query q = Parse("ans(x) :- F(x, y), F(y, x), F(x, x).");
  Database db = GraphDatabase(4, {{0, 1}, {1, 0}, {2, 2}});
  ExpectMatchesNaive(q, db, {0});
  ExpectMatchesNaive(q, db, {1, 0});
  ASSERT_TRUE(db.AddFact("F", {1, 1}).ok());
  db.Canonicalize();
  ExpectMatchesNaive(q, db, {0});
  ExpectMatchesNaive(q, db, {1, 0});
  ASSERT_TRUE(db.AdoptRelation("F", Relation(2, {3, 3, 3, 0, 0, 3})).ok());
  ExpectMatchesNaive(q, db, {0});
  ExpectMatchesNaive(q, db, {1, 0});
}

TEST(BagJoinerTest, CopiedDatabaseSurvivesMutationOfTheOriginal) {
  const Query q = Parse("ans(x) :- F(y, x), F(x, x).");
  Database original = GraphDatabase(4, {{0, 1}, {1, 1}, {2, 2}});
  ExpectMatchesNaive(q, original, {0});
  const Database copy = original;
  ASSERT_TRUE(original.AdoptRelation("F", Relation(2, {3, 3})).ok());
  ExpectMatchesNaive(q, copy, {0});
  ExpectMatchesNaive(q, original, {0});
}

// Regression: a memo keyed by database address would hand a database
// built where a destroyed one lived the old contents' projections.
TEST(BagJoinerTest, FreshDatabaseAtRecycledAddressCountsItsOwnContents) {
  // Reversed atoms: every bag reads F through a non-identity projection.
  const Query q = Parse("ans(x) :- F(y, x), F(z, y), x != z.");
  const std::vector<std::vector<Tuple>> contents = {
      {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 1}},
      {{1, 0}, {2, 0}, {0, 4}},
      {{0, 1}, {1, 0}, {2, 2}, {3, 2}}};
  for (const std::vector<Tuple>& edges : contents) {
    auto db = std::make_unique<Database>(GraphDatabase(5, edges));
    std::set<Value> answers;
    for (const Tuple& t : NaiveBagSolutions(q, *db, {0, 1, 2}, nullptr,
                                            {true, true})) {
      answers.insert(t[0]);
    }
    StatusOr<ApproxCountResult> approx = ApproxCountAnswers(q, *db, {});
    ASSERT_TRUE(approx.ok()) << approx.status().ToString();
    EXPECT_EQ(approx->estimate, static_cast<double>(answers.size()));
    EXPECT_EQ(ExactCountAnswersBruteForce(q, *db), answers.size());
  }
}

}  // namespace
}  // namespace cqcount
