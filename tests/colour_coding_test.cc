#include "counting/colour_coding.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "app/graph_gen.h"
#include "decomposition/elimination_order.h"
#include "decomposition/width_measures.h"
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

std::unique_ptr<DecompositionHomOracle> MakeHom(const Query& q,
                                                const Database& db) {
  Hypergraph h = q.BuildHypergraph();
  FWidthResult w = ComputeDecomposition(h, WidthObjective::kTreewidth);
  return std::make_unique<DecompositionHomOracle>(q, db, w.decomposition);
}

// Lemma 30 / Lemma 22 validation: the colour-coding oracle must agree
// with ground truth. "Edge present" answers are always sound; "edge free"
// answers fail with probability <= per_call_failure, so with a tight
// failure budget the agreement should be total on these small instances.
class ColourCodingAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(ColourCodingAgreementTest, MatchesBruteForceOracle) {
  Rng rng(GetParam() * 271 + 17);
  RandomQueryOptions qopts;
  qopts.min_vars = 2;
  qopts.max_vars = 4;
  qopts.disequality_probability = 0.35;
  qopts.negated_probability = 0.2;
  qopts.forced_num_free = 2;
  Query q = RandomQuery(rng, qopts);
  if (q.num_free() > q.num_vars()) return;
  Database db = RandomDatabaseFor(q, 4, 0.5, rng);

  auto hom = MakeHom(q, db);
  ColourCodingOptions opts;
  opts.per_call_failure = 1e-6;
  opts.seed = GetParam();
  ColourCodingEdgeFreeOracle simulated(q, hom.get(), 4, opts);
  BruteForceEdgeFreeOracle truth(q, db);

  for (int trial = 0; trial < 10; ++trial) {
    PartiteSubset parts;
    parts.parts = {rng.RandomMask(4, 0.6), rng.RandomMask(4, 0.6)};
    const bool expected = truth.IsEdgeFree(parts);
    const bool actual = simulated.IsEdgeFree(parts);
    if (expected) {
      // One-sided: "edge free" must never be contradicted spuriously --
      // a found homomorphism is a real witness.
      EXPECT_TRUE(actual) << q.ToString();
    } else {
      // Miss probability is ~1e-6 per call; treat a miss as failure.
      EXPECT_FALSE(actual) << q.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColourCodingAgreementTest,
                         ::testing::Range(0, 25));

TEST(ColourCodingTest, NoDisequalitiesMeansSingleHomQuery) {
  Query q = Parse("ans(x) :- E(x, y).");
  Database db = GraphToDatabase(PathGraph(4));
  auto hom = MakeHom(q, db);
  ColourCodingOptions opts;
  ColourCodingEdgeFreeOracle oracle(q, hom.get(), 4, opts);
  PartiteSubset parts;
  parts.parts = {Bitset(4, true)};
  EXPECT_FALSE(oracle.IsEdgeFree(parts));
  EXPECT_EQ(hom->num_calls(), 1u);
}

TEST(ColourCodingTest, TrialsScaleWithDisequalities) {
  Query q1 = Parse("ans(x) :- E(x, y), E(x, z), y != z.");
  Query q2 = Parse(
      "ans(x) :- E(x, y), E(x, z), E(x, w), y != z, y != w, z != w.");
  Database db = GraphToDatabase(StarGraph(4));
  auto hom1 = MakeHom(q1, db);
  auto hom2 = MakeHom(q2, db);
  ColourCodingOptions opts;
  ColourCodingEdgeFreeOracle o1(q1, hom1.get(), 5, opts);
  ColourCodingEdgeFreeOracle o2(q2, hom2.get(), 5, opts);
  // Q = ceil(ln(1/delta')) * 4^{|Delta|}.
  EXPECT_EQ(o2.trials_per_call(), o1.trials_per_call() * 16);
}

TEST(ColourCodingTest, EmptyPartShortCircuits) {
  Query q = Parse("ans(x) :- E(x, y), x != y.");
  Database db = GraphToDatabase(PathGraph(3));
  auto hom = MakeHom(q, db);
  ColourCodingOptions opts;
  ColourCodingEdgeFreeOracle oracle(q, hom.get(), 3, opts);
  PartiteSubset parts;
  parts.parts = {Bitset(3, false)};
  EXPECT_TRUE(oracle.IsEdgeFree(parts));
  EXPECT_EQ(hom->num_calls(), 0u);
}

TEST(DecideAnySolutionTest, BooleanQueries) {
  Query yes = Parse("ans() :- E(x, y), E(y, z), x != z.");
  Query no = Parse("ans() :- E(x, y), E(y, x), x != y.");
  Database db = GraphToDatabase(PathGraph(3));
  // A path 0-1-2 viewed as symmetric edges: E(x,y),E(y,z),x!=z is
  // satisfied by 0-1-2. E(x,y),E(y,x),x!=y is satisfied too (symmetric
  // storage!), so use a directed database for the negative case.
  {
    auto hom = MakeHom(yes, db);
    Rng rng(5);
    EXPECT_TRUE(
        DecideAnySolution(yes, hom.get(), 3, VarDomains{}, 1e-6, rng));
  }
  Database directed(3);
  ASSERT_TRUE(directed.DeclareRelation("E", 2).ok());
  ASSERT_TRUE(directed.AddFact("E", {0, 1}).ok());
  directed.Canonicalize();
  {
    auto hom = MakeHom(no, directed);
    Rng rng(6);
    EXPECT_FALSE(
        DecideAnySolution(no, hom.get(), 3, VarDomains{}, 1e-6, rng));
  }
}

// The reference draw: each colouring f_eta materialised value by value
// from ColourWord, copied (red) or complemented (blue) into the endpoint
// masks and intersected across disequalities.
std::map<int, Bitset> ReferenceMasks(const Query& q, uint64_t trial_key,
                                     uint32_t universe) {
  std::map<int, Bitset> masks;
  for (size_t e = 0; e < q.disequalities().size(); ++e) {
    const Disequality& d = q.disequalities()[e];
    Bitset red(universe);
    Bitset blue(universe);
    for (uint32_t v = 0; v < universe; ++v) {
      const bool is_red = (internal::ColourWord(trial_key,
                                                static_cast<uint32_t>(e),
                                                v / 64) >>
                           (v % 64)) & 1;
      red.Set(v, is_red);
      blue.Set(v, !is_red);
    }
    for (const auto& [var, mask] :
         {std::make_pair(d.lhs, red), std::make_pair(d.rhs, blue)}) {
      auto [it, inserted] = masks.emplace(var, mask);
      if (!inserted) it->second.IntersectWith(mask);
    }
  }
  return masks;
}

const std::vector<std::string>& OverlayQueries() {
  static const std::vector<std::string> queries = {
      "ans(x) :- F(x, y), x != y.",
      "ans(x) :- F(x, y), F(x, z), x != y, x != z.",
      "ans(x) :- F(x, y), F(y, z), x != y, y != z, x != z."};
  return queries;
}

TEST(TrialOverlayTest, DenseMasksMatchMaterialisedColourings) {
  for (const std::string& text : OverlayQueries()) {
    const Query q = Parse(text);
    internal::TrialOverlay overlay(q);
    for (uint32_t universe : {1u, 63u, 64u, 65u, 50000u}) {
      overlay.BeginCall(universe, nullptr);
      for (uint64_t trial = 0; trial < 4; ++trial) {
        const uint64_t key = DeriveSeed(17, trial);
        const std::map<int, Bitset> expected =
            ReferenceMasks(q, key, universe);
        const std::vector<DomainRestriction>& drawn = overlay.Draw(key);
        ASSERT_EQ(drawn.size(), expected.size()) << text;
        for (const DomainRestriction& r : drawn) {
          EXPECT_EQ(*r.mask, expected.at(r.var))
              << text << " universe " << universe << " var " << r.var;
        }
      }
    }
  }
}

// Hands fixed overlay candidates to TrialOverlay, as the decomposition
// oracle's context does after a Prepare; a variable without a list is
// unknown (read anywhere).
class FixedCandidates : public HomContext {
 public:
  const std::vector<Value>* OverlayCandidates(int var) const override {
    auto it = lists.find(var);
    return it == lists.end() ? nullptr : &it->second;
  }

  std::map<int, std::vector<Value>> lists;
};

// Masks drawn with candidates equal the dense masks at every candidate
// value (and everywhere for a variable without candidates), through
// mixes of candidate-only and every-word disequalities, repeated trials
// (stale bits from the previous trial) and candidates at word edges.
TEST(TrialOverlayTest, CandidateMasksMatchDenseMasksAtEveryCandidate) {
  Rng rng(4242);
  for (const std::string& text : OverlayQueries()) {
    const Query q = Parse(text);
    internal::TrialOverlay sparse(q);
    internal::TrialOverlay dense(q);
    for (uint32_t universe : {1u, 65u, 1000u, 50000u}) {
      for (int call = 0; call < 20; ++call) {
        FixedCandidates ctx;
        const size_t words = (universe + 63) / 64;
        for (int var : sparse.endpoint_vars()) {
          if (rng.Bernoulli(0.15)) continue;  // Unknown: every value.
          const uint64_t count = rng.UniformInt(words + 1);
          Bitset seen(universe);
          std::vector<Value>& list = ctx.lists[var];
          for (uint64_t i = 0; i < count; ++i) {
            Value v = static_cast<Value>(rng.UniformInt(universe));
            if (rng.Bernoulli(0.2)) v = v / 64 * 64 + 63;  // Word edge.
            if (v >= universe || seen.Test(v)) continue;
            seen.Set(v);
            list.push_back(v);
          }
        }
        sparse.BeginCall(universe, &ctx);
        dense.BeginCall(universe, nullptr);
        for (uint64_t trial = 0; trial < 3; ++trial) {
          const uint64_t key = DeriveSeed(call, trial);
          const std::vector<DomainRestriction>& got = sparse.Draw(key);
          const std::vector<DomainRestriction>& want = dense.Draw(key);
          ASSERT_EQ(got.size(), want.size());
          for (size_t k = 0; k < got.size(); ++k) {
            ASSERT_EQ(got[k].var, want[k].var);
            const std::vector<Value>* list =
                ctx.OverlayCandidates(got[k].var);
            SCOPED_TRACE(text + " universe " + std::to_string(universe) +
                         " var " + std::to_string(got[k].var));
            if (list == nullptr) {
              EXPECT_EQ(*got[k].mask, *want[k].mask);
              continue;
            }
            for (Value v : *list) {
              EXPECT_EQ(got[k].mask->Test(v), want[k].mask->Test(v))
                  << "value " << v;
            }
          }
        }
      }
    }
  }
}

// Lemma 22 needs each f_eta uniform and independent across trials. Over
// 4096 trials of one call, every bit of a colouring word is balanced, and
// every pair of bits (within a word, and across two disequalities' words
// at the same value) is jointly uniform, each within 6 standard
// deviations.
TEST(ColourWordTest, BitsBalancedAndPairwiseIndependentAcrossTrials) {
  constexpr int kTrials = 4096;
  const uint64_t call_seed = DeriveSeed(0x5EEDC01DULL, 99);
  for (uint64_t w : {uint64_t{0}, uint64_t{781}}) {
    std::vector<uint64_t> eta0(kTrials);
    std::vector<uint64_t> eta1(kTrials);
    for (int t = 0; t < kTrials; ++t) {
      const uint64_t key = DeriveSeed(call_seed, static_cast<uint64_t>(t));
      eta0[t] = internal::ColourWord(key, 0, w);
      eta1[t] = internal::ColourWord(key, 1, w);
    }
    const double single_sd = 6.0 * std::sqrt(kTrials * 0.25);
    const double pair_sd = 6.0 * std::sqrt(kTrials * 0.25 * 0.75);
    auto count_both = [&](const std::vector<uint64_t>& a, int bit_a,
                          const std::vector<uint64_t>& b, int bit_b) {
      int both = 0;
      for (int t = 0; t < kTrials; ++t) {
        both += static_cast<int>((a[t] >> bit_a) & (b[t] >> bit_b) & 1);
      }
      return both;
    };
    for (int b1 = 0; b1 < 64; ++b1) {
      EXPECT_NEAR(count_both(eta0, b1, eta0, b1), kTrials / 2.0, single_sd)
          << "word " << w << " bit " << b1;
      EXPECT_NEAR(count_both(eta0, b1, eta1, b1), kTrials / 4.0, pair_sd)
          << "word " << w << " bit " << b1 << " across disequalities";
      for (int b2 = b1 + 1; b2 < 64; ++b2) {
        EXPECT_NEAR(count_both(eta0, b1, eta0, b2), kTrials / 4.0, pair_sd)
            << "word " << w << " bits " << b1 << ", " << b2;
      }
    }
  }
}

// Smallest k with P(Binomial(n, p) > k) <= alpha.
int BinomialUpperQuantile(int n, double p, double alpha) {
  double tail = 1.0;
  for (int k = 0; k <= n; ++k) {
    const double log_pmf = std::lgamma(n + 1.0) - std::lgamma(k + 1.0) -
                           std::lgamma(n - k + 1.0) + k * std::log(p) +
                           (n - k) * std::log1p(-p);
    tail -= std::exp(log_pmf);
    if (tail <= alpha) return k;
  }
  return n;
}

// A fixed-seed slice of the (epsilon, delta) gate at the oracle level. On
// instances with exactly one witness, found by a trial with probability
// 4^-|Delta|, IsEdgeFree at delta' = 0.1 runs under 2000 call seeds and
// wrongly answers "edge-free" at a rate that (a) passes the one-sided
// binomial check against delta' and (b) matches the exact miss rate
// (1 - 4^-|Delta|)^Q of Q independent uniform trials within 6 standard
// deviations. The universe is padded so that trials colour only the
// overlay candidates (256) or every word (8).
TEST(ColourCodingStatisticalTest, FalseEdgeFreeRateWithinDeltaPrime) {
  constexpr int kCalls = 2000;
  constexpr double kDeltaPrime = 0.1;
  const std::vector<std::string> queries = {
      "ans(x) :- E(x, y), x != y.",
      "ans(x) :- E(x, y), E(y, z), x != y, y != z.",
      "ans(x) :- E(x, y), E(y, z), x != y, y != z, x != z."};
  for (uint32_t universe : {8u, 256u}) {
    Database db(universe);
    ASSERT_TRUE(db.DeclareRelation("E", 2).ok());
    ASSERT_TRUE(db.AddFact("E", {0, 1}).ok());
    ASSERT_TRUE(db.AddFact("E", {1, 2}).ok());
    db.Canonicalize();
    for (const std::string& text : queries) {
      const Query q = Parse(text);
      auto hom = MakeHom(q, db);
      PartiteSubset parts;
      parts.parts = {Bitset(universe)};
      parts.parts[0].Set(0);
      int misses = 0;
      uint64_t trials = 0;
      for (int call = 0; call < kCalls; ++call) {
        ColourCodingOptions opts;
        opts.per_call_failure = kDeltaPrime;
        opts.seed = static_cast<uint64_t>(call);
        ColourCodingEdgeFreeOracle oracle(q, hom.get(), universe, opts);
        trials = oracle.trials_per_call();
        misses += oracle.IsEdgeFree(parts) ? 1 : 0;
      }
      SCOPED_TRACE(text + " universe " + std::to_string(universe));
      EXPECT_LE(misses, BinomialUpperQuantile(kCalls, kDeltaPrime, 1e-9));
      const double hit = std::pow(0.25, q.disequalities().size());
      const double miss = std::pow(1.0 - hit, static_cast<double>(trials));
      EXPECT_NEAR(misses, kCalls * miss,
                  6.0 * std::sqrt(kCalls * miss * (1.0 - miss)));
    }
  }
}

}  // namespace
}  // namespace cqcount
