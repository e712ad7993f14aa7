#include "counting/dlm_counter.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "app/graph_gen.h"
#include "obs/metrics.h"
#include "query/parser.h"
#include "test_util.h"
#include "util/executor.h"

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

TEST(DlmCounterTest, ZeroEdges) {
  Query q = Parse("ans(x, y) :- E(x, y).");
  Database db(4);
  ASSERT_TRUE(db.DeclareRelation("E", 2).ok());  // Empty relation.
  BruteForceEdgeFreeOracle oracle(q, db);
  auto result = DlmCountEdges({4, 4}, oracle, {});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->estimate, 0.0);
  EXPECT_TRUE(result->exact);
}

TEST(DlmCounterTest, ExactPhaseOnSmallAnswerSets) {
  Query q = Parse("ans(x, y) :- E(x, y).");
  Database db = GraphToDatabase(CycleGraph(5));
  BruteForceEdgeFreeOracle oracle(q, db);
  DlmOptions opts;
  auto result = DlmCountEdges({5, 5}, oracle, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->exact);
  EXPECT_DOUBLE_EQ(result->estimate, 10.0);  // 2 directions x 5 edges.
}

TEST(DlmCounterTest, SinglePartCounting) {
  Query q = Parse("ans(x) :- R(x).");
  Database db(64);
  ASSERT_TRUE(db.DeclareRelation("R", 1).ok());
  for (Value v = 0; v < 64; v += 2) ASSERT_TRUE(db.AddFact("R", {v}).ok());
  db.Canonicalize();
  BruteForceEdgeFreeOracle oracle(q, db);
  auto result = DlmCountEdges({64}, oracle, {});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->estimate, 32.0);
}

TEST(DlmCounterTest, EstimationPhaseWithinEpsilon) {
  // Force the estimation path with a tiny exact budget; the estimate must
  // still land within epsilon (seeded determinism).
  Query q = Parse("ans(x, y) :- E(x, y).");
  Rng rng(42);
  SimpleGraph g = ErdosRenyi(40, 0.3, rng);
  Database db = GraphToDatabase(g);
  BruteForceEdgeFreeOracle truth(q, db);
  const double exact = static_cast<double>(truth.answers().size());
  ASSERT_GT(exact, 100.0);

  DlmOptions opts;
  opts.exact_enumeration_budget = 8;
  opts.max_frontier = 64;
  opts.epsilon = 0.1;
  opts.delta = 0.2;
  opts.seed = 7;
  BruteForceEdgeFreeOracle oracle(q, db);
  auto result = DlmCountEdges({40, 40}, oracle, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->exact);
  EXPECT_NEAR(result->estimate, exact, opts.epsilon * exact * 1.5);
  EXPECT_GT(result->oracle_calls, 0u);
}

TEST(DlmCounterTest, InvalidParametersRejected) {
  Query q = Parse("ans(x) :- R(x).");
  Database db(2);
  ASSERT_TRUE(db.DeclareRelation("R", 1).ok());
  BruteForceEdgeFreeOracle oracle(q, db);
  DlmOptions opts;
  opts.epsilon = 0.0;
  EXPECT_FALSE(DlmCountEdges({2}, oracle, opts).ok());
  opts.epsilon = 0.1;
  opts.delta = 1.5;
  EXPECT_FALSE(DlmCountEdges({2}, oracle, opts).ok());
  EXPECT_FALSE(DlmCountEdges({}, oracle, {}).ok());
}

TEST(DlmCounterTest, ZeroSizedPartMeansZeroEdges) {
  Query q = Parse("ans(x) :- R(x).");
  Database db(2);
  ASSERT_TRUE(db.DeclareRelation("R", 1).ok());
  ASSERT_TRUE(db.AddFact("R", {0}).ok());
  db.Canonicalize();
  BruteForceEdgeFreeOracle oracle(q, db);
  auto result = DlmCountEdges({0}, oracle, {});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->estimate, 0.0);
}

// Property sweep: estimation stays within 2*epsilon of the truth across
// seeds and query shapes (using the brute-force oracle for ground truth).
class DlmAccuracyTest : public ::testing::TestWithParam<int> {};

TEST_P(DlmAccuracyTest, EstimateWithinTolerance) {
  Rng rng(GetParam() * 53 + 29);
  RandomQueryOptions qopts;
  qopts.min_vars = 2;
  qopts.max_vars = 4;
  qopts.forced_num_free = 2;
  Query q = RandomQuery(rng, qopts);
  Database db = RandomDatabaseFor(q, 8, 0.5, rng);
  BruteForceEdgeFreeOracle truth(q, db);
  const double exact = static_cast<double>(truth.answers().size());

  DlmOptions opts;
  opts.exact_enumeration_budget = 4;  // Force estimation when nontrivial.
  opts.max_frontier = 32;
  opts.epsilon = 0.15;
  opts.delta = 0.2;
  opts.seed = GetParam();
  BruteForceEdgeFreeOracle oracle(q, db);
  auto result = DlmCountEdges({8, 8}, oracle, opts);
  ASSERT_TRUE(result.ok());
  if (exact == 0.0) {
    EXPECT_DOUBLE_EQ(result->estimate, 0.0);
  } else {
    EXPECT_NEAR(result->estimate, exact, 2.0 * opts.epsilon * exact + 1e-9)
        << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DlmAccuracyTest, ::testing::Range(0, 30));

// Forkable fake oracle over an explicit edge list: a pure function of the
// queried subset, so every fork answers exactly as the root does (the
// contract the speculative frontier relies on). Each instance counts its
// own calls.
class EdgeListOracle : public EdgeFreeOracle {
 public:
  explicit EdgeListOracle(
      std::shared_ptr<const std::vector<std::vector<uint32_t>>> edges)
      : edges_(std::move(edges)) {}

  bool IsEdgeFree(const PartiteSubset& parts) override {
    ++num_calls_;
    for (const std::vector<uint32_t>& edge : *edges_) {
      bool inside = true;
      for (size_t i = 0; i < edge.size() && inside; ++i) {
        inside = parts.parts[i].Test(edge[i]);
      }
      if (inside) return false;
    }
    return true;
  }

  std::unique_ptr<EdgeFreeOracle> Fork() override {
    return std::make_unique<EdgeListOracle>(edges_);
  }

 private:
  std::shared_ptr<const std::vector<std::vector<uint32_t>>> edges_;
};

// `count` distinct random edges over `parts` parts of size `size`.
std::shared_ptr<const std::vector<std::vector<uint32_t>>> RandomEdges(
    int parts, uint32_t size, int count, uint64_t seed) {
  Rng rng(seed);
  std::set<std::vector<uint32_t>> edges;
  while (static_cast<int>(edges.size()) < count) {
    std::vector<uint32_t> edge(static_cast<size_t>(parts));
    for (uint32_t& v : edge) v = static_cast<uint32_t>(rng.UniformInt(size));
    edges.insert(std::move(edge));
  }
  return std::make_shared<const std::vector<std::vector<uint32_t>>>(
      edges.begin(), edges.end());
}

// Everything a fixed-seed estimate reports that must not depend on the
// lane count.
struct LaneInvariant {
  StatusCode code = StatusCode::kOk;
  double estimate = 0.0;
  bool exact = false;
  bool converged = false;
  uint64_t oracle_calls = 0;

  bool operator==(const LaneInvariant& o) const {
    return code == o.code && estimate == o.estimate && exact == o.exact &&
           converged == o.converged && oracle_calls == o.oracle_calls;
  }
};

LaneInvariant RunAtLanes(
    const std::shared_ptr<const std::vector<std::vector<uint32_t>>>& edges,
    int parts, uint32_t size, DlmOptions opts, Executor* pool, int lanes,
    uint64_t* root_calls = nullptr) {
  EdgeListOracle oracle(edges);
  opts.pool = pool;
  opts.intra_threads = lanes;
  auto result = DlmCountEdges(
      std::vector<uint32_t>(static_cast<size_t>(parts), size), oracle, opts);
  if (root_calls != nullptr) *root_calls = oracle.num_calls();
  LaneInvariant out;
  if (!result.ok()) {
    out.code = result.status().code();
    return out;
  }
  out.estimate = result->estimate;
  out.exact = result->exact;
  out.converged = result->converged;
  out.oracle_calls = result->oracle_calls;
  return out;
}

DlmOptions SmallDlmOptions(uint64_t seed) {
  DlmOptions opts;
  opts.exact_enumeration_budget = 32;  // Force the frontier phase.
  opts.max_frontier = 64;
  opts.epsilon = 0.2;
  opts.delta = 0.2;
  opts.seed = seed;
  return opts;
}

class DlmLaneInvarianceTest : public ::testing::TestWithParam<int> {};

// The speculative frontier may probe ahead on spare lanes, but the
// consumed probes — and with them the frontier, the budget decisions, the
// estimate and oracle_calls — are identical at every lane count. The
// max_frontier sweep stops the expansion at many points inside a
// speculated generation.
TEST_P(DlmLaneInvarianceTest, FrontierLimitSweep) {
  const int parts = GetParam();
  const uint32_t size = parts == 1 ? 512 : parts == 2 ? 48 : 16;
  const auto edges = RandomEdges(parts, size, 300, 11 + parts);
  Executor pool(4);
  for (int frontier : {5, 16, 37, 64, 101}) {
    DlmOptions opts = SmallDlmOptions(frontier);
    opts.max_frontier = frontier;
    const LaneInvariant one = RunAtLanes(edges, parts, size, opts, &pool, 1);
    ASSERT_EQ(one.code, StatusCode::kOk);
    EXPECT_FALSE(one.exact);
    for (int lanes : {2, 4}) {
      EXPECT_TRUE(RunAtLanes(edges, parts, size, opts, &pool, lanes) == one)
          << "parts=" << parts << " max_frontier=" << frontier
          << " lanes=" << lanes;
    }
  }
}

// Oracle-call caps that run out inside the exact phase's split, inside
// the frontier expansion (a typed RESOURCE_EXHAUSTED) and inside sampling
// (converged = false) give the same outcome at every lane count.
TEST_P(DlmLaneInvarianceTest, OracleCallCapSweep) {
  const int parts = GetParam();
  const uint32_t size = parts == 1 ? 512 : parts == 2 ? 48 : 16;
  const auto edges = RandomEdges(parts, size, 300, 23 + parts);
  Executor pool(4);
  bool saw_exhausted = false;
  bool saw_unconverged = false;
  for (uint64_t cap : {7, 40, 77, 131, 190, 260, 400, 900, 3000}) {
    DlmOptions opts = SmallDlmOptions(cap);
    opts.max_oracle_calls = cap;
    const LaneInvariant one = RunAtLanes(edges, parts, size, opts, &pool, 1);
    saw_exhausted = saw_exhausted || one.code == StatusCode::kResourceExhausted;
    saw_unconverged =
        saw_unconverged || (one.code == StatusCode::kOk && !one.converged);
    for (int lanes : {2, 4}) {
      EXPECT_TRUE(RunAtLanes(edges, parts, size, opts, &pool, lanes) == one)
          << "parts=" << parts << " cap=" << cap << " lanes=" << lanes;
    }
  }
  EXPECT_TRUE(saw_exhausted);
  EXPECT_TRUE(saw_unconverged);
}

// At one lane nothing is speculated: every call the root oracle served
// is a probe the estimator consumed and counted.
TEST_P(DlmLaneInvarianceTest, OneLaneIssuesNoSpeculativeProbes) {
  const int parts = GetParam();
  const uint32_t size = parts == 1 ? 512 : parts == 2 ? 48 : 16;
  const auto edges = RandomEdges(parts, size, 300, 31 + parts);
  obs::Counter& speculative = obs::MetricRegistry::Global().GetCounter(
      "dlm.nondet.speculative_probes", "");
  Executor pool(4);
  for (Executor* p : {static_cast<Executor*>(nullptr), &pool}) {
    const uint64_t before = speculative.Value();
    uint64_t root_calls = 0;
    const LaneInvariant one =
        RunAtLanes(edges, parts, size, SmallDlmOptions(5), p, 1, &root_calls);
    ASSERT_EQ(one.code, StatusCode::kOk);
    EXPECT_EQ(root_calls, one.oracle_calls);
    EXPECT_EQ(speculative.Value(), before);
  }
}

INSTANTIATE_TEST_SUITE_P(Parts, DlmLaneInvarianceTest,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace cqcount
