// Property tests for the prepare/evaluate DP split (the colour-coding
// trial-reuse hot path): prepared decisions must be indistinguishable
// from the monolithic DP, with and without the bag-row cache, and the
// full estimator pipeline must produce bit-identical estimates under
// fixed seeds regardless of which oracle evaluation path serves the
// trials.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "counting/colour_coding.h"
#include "counting/dlm_counter.h"
#include "counting/fptras.h"
#include "decomposition/elimination_order.h"
#include "decomposition/width_measures.h"
#include "engine/engine.h"
#include "hom/hom_oracle.h"
#include "query/parser.h"
#include "test_util.h"
#include "util/executor.h"
#include "util/failpoint.h"

namespace cqcount {
namespace {

using testing_util::RandomDatabaseFor;
using testing_util::RandomQuery;
using testing_util::RandomQueryOptions;

constexpr uint32_t kUniverse = 5;

// A random query with exactly `num_diseq` disequalities over distinct
// variable pairs (when the variable count allows).
Query RandomQueryWithDisequalities(Rng& rng, int num_diseq) {
  RandomQueryOptions qopts;
  qopts.min_vars = 2;
  qopts.max_vars = 4;
  qopts.negated_probability = 0.2;
  qopts.disequality_probability = 0.0;
  Query q = RandomQuery(rng, qopts);
  int added = 0;
  for (int attempt = 0; attempt < 20 && added < num_diseq; ++attempt) {
    const int u = static_cast<int>(rng.UniformInt(q.num_vars()));
    const int w = static_cast<int>(rng.UniformInt(q.num_vars()));
    if (u == w) continue;
    q.AddDisequality(std::min(u, w), std::max(u, w));
    ++added;
  }
  return q;
}

VarDomains RandomBaseDomains(const Query& q, Rng& rng) {
  VarDomains base;
  base.allowed.resize(q.num_vars());
  for (int v = 0; v < q.num_vars(); ++v) {
    if (rng.Bernoulli(0.5)) {
      base.allowed[v] = rng.RandomMask(kUniverse, 0.7);
    }
  }
  return base;
}

// The monolithic reference: base with `extra` intersected in.
VarDomains MergeOverlay(const Query& q, const VarDomains& base,
                        const std::vector<DomainRestriction>& extra) {
  VarDomains merged = base;
  if (merged.allowed.empty()) merged.allowed.resize(q.num_vars());
  for (const DomainRestriction& r : extra) {
    Bitset& domain = merged.allowed[static_cast<size_t>(r.var)];
    if (domain.empty()) {
      domain = *r.mask;
    } else {
      domain.IntersectWith(*r.mask);
    }
  }
  return merged;
}

// Core property over ~100 random (query, database, base, trials)
// instances with 0-3 disequalities: PreparedDp::Decide(extra) ==
// monolithic Decide(base merged with extra), both for the cached-rows
// path and for the uncached path (bag rows materialised per call), which
// the `dp.bag_cache_build` failpoint forces.
class PreparedDpPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PreparedDpPropertyTest, PreparedMatchesMonolithic) {
  const int seed = GetParam();
  Rng rng(seed * 617 + 29);
  const int num_diseq = seed % 4;  // 0..3 disequalities.
  Query q = RandomQueryWithDisequalities(rng, num_diseq);
  Database db = RandomDatabaseFor(q, kUniverse, 0.45, rng);
  Hypergraph h = q.BuildHypergraph();

  // Overlay vars = disequality endpoints, as in the colour-coding loop.
  std::vector<int> overlay_vars;
  for (const Disequality& d : q.disequalities()) {
    overlay_vars.push_back(d.lhs);
    overlay_vars.push_back(d.rhs);
  }
  std::sort(overlay_vars.begin(), overlay_vars.end());
  overlay_vars.erase(std::unique(overlay_vars.begin(), overlay_vars.end()),
                     overlay_vars.end());

  DecompositionSolver reference(q, db,
                                DecompositionFromOrder(h, MinFillOrder(h)));
  DecompositionSolver prepared_solver(
      q, db, DecompositionFromOrder(h, MinFillOrder(h)));
  DecompositionSolver uncached_solver(
      q, db, DecompositionFromOrder(h, MinFillOrder(h)));
  {
    // The first Prepare builds the cache; a refused build sticks for the
    // solver's lifetime.
    failpoint::ScopedFailpoint no_cache("dp.bag_cache_build", {});
    uncached_solver.Prepare(VarDomains(), overlay_vars);
  }

  for (int call = 0; call < 3; ++call) {
    const VarDomains base = RandomBaseDomains(q, rng);
    PreparedDp prepared = prepared_solver.Prepare(base, overlay_vars);
    PreparedDp uncached = uncached_solver.Prepare(base, overlay_vars);

    for (int trial = 0; trial < 6; ++trial) {
      std::vector<Bitset> masks;
      masks.reserve(overlay_vars.size());
      for (size_t k = 0; k < overlay_vars.size(); ++k) {
        masks.push_back(rng.RandomMask(kUniverse, 0.5));
      }
      std::vector<DomainRestriction> extra;
      for (size_t k = 0; k < overlay_vars.size(); ++k) {
        extra.push_back({overlay_vars[k], &masks[k]});
      }
      const VarDomains merged = MergeOverlay(q, base, extra);
      const bool expected = reference.Decide(&merged);
      EXPECT_EQ(prepared.Decide(extra), expected)
          << q.ToString() << " call " << call << " trial " << trial;
      EXPECT_EQ(uncached.Decide(extra), expected)
          << q.ToString() << " (uncached) call " << call << " trial "
          << trial;
    }
  }
  EXPECT_TRUE(prepared_solver.dp_stats().prepared_path);
  EXPECT_FALSE(uncached_solver.dp_stats().prepared_path);
  EXPECT_EQ(uncached_solver.dp_stats().cached_bag_rows, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreparedDpPropertyTest,
                         ::testing::Range(0, 100));

// `db`'s facts over a universe of `universe` >= db.universe_size()
// values, the extra ones unused.
Database Padded(const Database& db, uint32_t universe) {
  Database padded(universe);
  for (const std::string& name : db.RelationNames()) {
    const Relation& rel = db.relation(name);
    EXPECT_TRUE(padded.DeclareRelation(name, rel.arity()).ok());
    for (TupleView row : rel) {
      EXPECT_TRUE(padded.AddFact(name, Tuple(row.begin(), row.end())).ok());
    }
  }
  padded.Canonicalize();
  return padded;
}

// The overlay-candidate contract: a trial reads a mask only at its
// variable's overlay candidates, so masks that agree there give the same
// verdict whatever they hold elsewhere. Each trial decides once with
// random masks and once with the same masks re-drawn at every
// non-candidate value, on the cached and on the uncached path. The
// universe is padded so that candidate lists of the database's own
// values stay under their cap. Queries with a variable no positive atom
// binds are left to PreparedDpPropertyTest: here that variable would
// range over the padding and blow up the bag joins.
class OverlayCandidatePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(OverlayCandidatePropertyTest, MasksNeedOnlyAgreeAtCandidates) {
  constexpr uint32_t kPadded = 320;
  const int seed = GetParam();
  Rng rng(seed * 733 + 5);
  Query q = RandomQueryWithDisequalities(rng, 1 + seed % 3);
  Database db = Padded(RandomDatabaseFor(q, kUniverse, 0.45, rng), kPadded);
  Hypergraph h = q.BuildHypergraph();
  const internal::TrialOverlay overlay(q);
  const std::vector<int>& overlay_vars = overlay.endpoint_vars();
  std::vector<char> bound(static_cast<size_t>(q.num_vars()), 0);
  for (const Atom& atom : q.atoms()) {
    if (atom.negated) continue;
    for (int v : atom.vars) bound[static_cast<size_t>(v)] = 1;
  }
  if (std::count(bound.begin(), bound.end(), 0) > 0) return;

  DecompositionSolver cached_solver(
      q, db, DecompositionFromOrder(h, MinFillOrder(h)));
  DecompositionSolver uncached_solver(
      q, db, DecompositionFromOrder(h, MinFillOrder(h)));
  {
    failpoint::ScopedFailpoint no_cache("dp.bag_cache_build", {});
    uncached_solver.Prepare(VarDomains(), overlay_vars);
  }
  for (DecompositionSolver* solver : {&cached_solver, &uncached_solver}) {
    std::unique_ptr<SolverEvalContext> ctx = solver->CreateEvalContext();
    for (int call = 0; call < 3; ++call) {
      PreparedDp prepared =
          solver->Prepare(RandomBaseDomains(q, rng), overlay_vars, *ctx);
      for (int trial = 0; trial < 6; ++trial) {
        std::vector<Bitset> masks;
        std::vector<Bitset> scrambled;
        for (int var : overlay_vars) {
          masks.push_back(rng.RandomMask(kPadded, 0.5));
          Bitset other = rng.RandomMask(kPadded, 0.5);
          const std::vector<Value>* candidates =
              ctx->overlay_candidates(var);
          ASSERT_NE(candidates, nullptr);
          for (Value v : *candidates) other.Set(v, masks.back().Test(v));
          scrambled.push_back(std::move(other));
        }
        std::vector<DomainRestriction> extra;
        std::vector<DomainRestriction> scrambled_extra;
        for (size_t k = 0; k < overlay_vars.size(); ++k) {
          extra.push_back({overlay_vars[k], &masks[k]});
          scrambled_extra.push_back({overlay_vars[k], &scrambled[k]});
        }
        const bool expected = prepared.Decide(extra);
        EXPECT_EQ(prepared.Decide(scrambled_extra), expected)
            << q.ToString() << " call " << call << " trial " << trial;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlayCandidatePropertyTest,
                         ::testing::Range(0, 60));

// The same contract end to end through the oracle's own masks: on a
// universe large enough that trials colour only the candidates (their
// masks then differ from the dense ones off the candidates), a trial
// drawn with the context's candidates decides exactly as the dense draw
// of the same trial key.
TEST(OverlayCandidateTest, CandidateDrawsDecideAsDenseDraws) {
  constexpr uint32_t kWide = 4096;
  Database db(kWide);
  ASSERT_TRUE(db.DeclareRelation("F", 2).ok());
  for (Value u = 0; u < kWide; ++u) {
    for (Value step : {1u, 7u, 31u}) {
      ASSERT_TRUE(db.AddFact("F", {u, (u + step) % kWide}).ok());
    }
  }
  db.Canonicalize();
  int partial_draws = 0;
  for (const char* text : {
           "ans(x) :- F(x, y), F(x, z), y != z.",
           "ans(x) :- F(x, y), F(y, z), x != z, y != z.",
           "ans(x) :- F(x, z), F(z, y), x != z, x != y.",
       }) {
    StatusOr<Query> q = ParseQuery(text);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    Hypergraph h = q->BuildHypergraph();
    DecompositionHomOracle hom(
        *q, db,
        ComputeDecomposition(h, WidthObjective::kTreewidth).decomposition);
    std::unique_ptr<HomContext> ctx = hom.CreateContext();
    internal::TrialOverlay sparse(*q);
    internal::TrialOverlay dense(*q);
    Rng rng(91);
    int witnesses = 0;
    for (int call = 0; call < 40; ++call) {
      VarDomains base;
      base.allowed.resize(static_cast<size_t>(q->num_vars()));
      for (int i = 0; i < q->num_free(); ++i) {
        const size_t lo = rng.UniformInt(kWide);
        Bitset& part = base.allowed[static_cast<size_t>(i)];
        part.Assign(kWide, false);
        part.SetRange(lo, std::min<size_t>(kWide, lo + 1 + rng.UniformInt(4)));
      }
      std::unique_ptr<PreparedHom> prepared =
          hom.Prepare(base, sparse.endpoint_vars(), ctx.get());
      sparse.BeginCall(kWide, ctx.get());
      dense.BeginCall(kWide, nullptr);
      for (uint64_t trial = 0; trial < 8; ++trial) {
        const uint64_t key = DeriveSeed(static_cast<uint64_t>(call), trial);
        const std::vector<DomainRestriction>& got = sparse.Draw(key);
        const std::vector<DomainRestriction>& want = dense.Draw(key);
        partial_draws += *got[0].mask != *want[0].mask ? 1 : 0;
        const bool verdict = prepared->Decide(got);
        EXPECT_EQ(verdict, prepared->Decide(want))
            << text << " call " << call << " trial " << trial;
        witnesses += verdict ? 1 : 0;
      }
    }
    EXPECT_GT(witnesses, 0) << text;
  }
  EXPECT_GT(partial_draws, 0);
}

// End to end through ApproxCountAnswers: the uncached path serves the
// same verdicts as the cached one, so the estimate, its interval and the
// oracle-call count are bitwise equal with and without the bag-row cache,
// at one lane and at four. At one lane no frontier probe is speculative,
// so every hom query is one prepared decision.
TEST(PreparedDpUncachedTest, ApproxCountMatchesCachedAtOneAndFourLanes) {
  StatusOr<Query> q = ParseQuery("ans(x, y) :- E(x, y), E(y, z), x != z.");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  Database db(32);
  ASSERT_TRUE(db.DeclareRelation("E", 2).ok());
  for (Value u = 0; u < 32; ++u) {
    for (Value v = 0; v < 32; ++v) {
      if (u == v || (u * 7 + v * 5) % 9 != 0) continue;
      ASSERT_TRUE(db.AddFact("E", {u, v}).ok());
    }
  }
  db.Canonicalize();

  std::vector<ApproxCountResult> results;
  for (bool uncached : {false, true}) {
    for (int lanes : {1, 4}) {
      std::optional<failpoint::ScopedFailpoint> no_cache;
      if (uncached) no_cache.emplace("dp.bag_cache_build", failpoint::Config{});
      Executor pool(lanes);
      ApproxOptions opts;
      opts.epsilon = 0.3;
      opts.delta = 0.2;
      opts.seed = 77;
      // A small exact budget forces the sampling phases.
      opts.dlm.exact_enumeration_budget = 4;
      opts.pool = lanes > 1 ? &pool : nullptr;
      opts.intra_threads = lanes;
      StatusOr<ApproxCountResult> r = ApproxCountAnswers(*q, db, opts);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      SCOPED_TRACE(::testing::Message()
                   << "uncached=" << uncached << " lanes=" << lanes);
      EXPECT_EQ(r->dp_prepared_path, !uncached);
      EXPECT_GT(r->dp_prepared_decides, 0u);
      if (lanes == 1) {
        EXPECT_EQ(r->dp_prepared_decides, r->nondet_hom_queries);
      }
      results.push_back(*r);
    }
  }
  ASSERT_EQ(results.size(), 4u);
  EXPECT_FALSE(results[0].exact);
  for (const ApproxCountResult& r : results) {
    EXPECT_EQ(r.estimate, results[0].estimate);
    EXPECT_EQ(r.lower_bound, results[0].lower_bound);
    EXPECT_EQ(r.upper_bound, results[0].upper_bound);
    EXPECT_EQ(r.oracle_calls, results[0].oracle_calls);
  }
}

// End-to-end: the same DLM estimation run, same seeds, once with the
// decomposition oracle (prepared trial-reuse DP) and once with the
// backtracking oracle (generic copy-restore overlay around a full
// Decide — the pre-refactor per-trial evaluation). Identical IsEdgeFree
// verdicts imply bit-identical estimates.
class EstimatePathEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(EstimatePathEquivalenceTest, EstimatesBitIdenticalAcrossOraclePaths) {
  const int seed = GetParam();
  Rng rng(seed * 131 + 7);
  const int num_diseq = seed % 3;
  RandomQueryOptions qopts;
  qopts.min_vars = 2;
  qopts.max_vars = 4;
  qopts.negated_probability = 0.15;
  qopts.forced_num_free = 2;
  Query q = RandomQuery(rng, qopts);
  for (int attempt = 0, added = 0; attempt < 20 && added < num_diseq;
       ++attempt) {
    const int u = static_cast<int>(rng.UniformInt(q.num_vars()));
    const int w = static_cast<int>(rng.UniformInt(q.num_vars()));
    if (u == w) continue;
    q.AddDisequality(std::min(u, w), std::max(u, w));
    ++added;
  }
  if (q.num_free() > q.num_vars()) return;
  Database db = RandomDatabaseFor(q, kUniverse, 0.5, rng);
  Hypergraph h = q.BuildHypergraph();

  DecompositionHomOracle dp_hom(q, db,
                                DecompositionFromOrder(h, MinFillOrder(h)));
  BacktrackingHomOracle bt_hom(q, db);

  ColourCodingOptions cc;
  cc.per_call_failure = 1e-4;
  cc.seed = static_cast<uint64_t>(seed) * 0x9E37u + 11u;
  ColourCodingEdgeFreeOracle dp_oracle(q, &dp_hom, kUniverse, cc);
  ColourCodingEdgeFreeOracle bt_oracle(q, &bt_hom, kUniverse, cc);

  DlmOptions dlm;
  dlm.epsilon = 0.3;
  dlm.delta = 0.3;
  dlm.exact_enumeration_budget = 64;
  dlm.seed = static_cast<uint64_t>(seed) + 1;
  std::vector<uint32_t> part_sizes(q.num_free(), kUniverse);
  auto dp_result = DlmCountEdges(part_sizes, dp_oracle, dlm);
  auto bt_result = DlmCountEdges(part_sizes, bt_oracle, dlm);
  ASSERT_TRUE(dp_result.ok());
  ASSERT_TRUE(bt_result.ok());
  EXPECT_EQ(dp_result->estimate, bt_result->estimate) << q.ToString();
  EXPECT_EQ(dp_result->exact, bt_result->exact);
  EXPECT_EQ(dp_oracle.num_calls(), bt_oracle.num_calls());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimatePathEquivalenceTest,
                         ::testing::Range(0, 30));

// Seed determinism through the engine: the same fptras-heavy batch must
// produce bitwise-identical estimates at 1, 2 and 4 worker threads (the
// prepared-DP state is per-execution, never shared across workers).
TEST(PreparedDpDeterminismTest, BatchEstimatesPinnedAcrossThreadCounts) {
  EngineOptions opts;
  opts.epsilon = 0.3;
  opts.delta = 0.3;
  CountingEngine engine(opts);
  Database db(6);
  ASSERT_TRUE(db.DeclareRelation("E", 2).ok());
  for (Value u = 0; u < 6; ++u) {
    for (Value v = 0; v < 6; ++v) {
      if ((u * 7 + v * 3) % 4 != 0) continue;
      ASSERT_TRUE(db.AddFact("E", {u, v}).ok());
    }
  }
  db.Canonicalize();
  ASSERT_TRUE(engine.RegisterDatabase("g", db).ok());

  std::vector<CountRequest> batch;
  for (const char* text : {
           "ans(x) :- E(x, y), E(x, z), y != z.",
           "ans(x, y) :- E(x, y), x != y.",
           "ans(x) :- E(x, y), E(y, z), x != z.",
           "ans(x, y) :- E(x, y).",
       }) {
    CountRequest request;
    request.query = text;
    request.database = "g";
    batch.push_back(request);
  }

  std::vector<double> reference;
  for (int threads : {1, 2, 4}) {
    auto results = engine.CountBatch(batch, threads);
    ASSERT_EQ(results.size(), batch.size());
    std::vector<double> estimates;
    for (const auto& r : results) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      estimates.push_back(r->estimate);
    }
    if (reference.empty()) {
      reference = estimates;
    } else {
      EXPECT_EQ(estimates, reference) << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace cqcount
