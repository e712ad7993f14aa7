// Fixed-seed golden estimates. Each row is one seeded run whose estimate
// is pinned bit for bit (`==` on the double, never a tolerance) together
// with its `exact` flag. A change that only moves speed leaves every row
// alone; a row that drifts means the change altered answers: the random
// stream, the DLM frontier or an oracle decision. Every row runs at 1 and
// at 4 intra-query lanes and must give the same value at both, and CI
// runs the binary a second time under CQCOUNT_SIMD=scalar, so the scalar
// kernels are held to the same values.
#include <gtest/gtest.h>

#include <string>

#include "app/workload.h"
#include "counting/fptras.h"
#include "engine/engine.h"
#include "query/parser.h"
#include "util/estimate_outcome.h"
#include "util/executor.h"
#include "util/random.h"

namespace cqcount {
namespace {

struct GoldenRow {
  const char* name;
  const char* query;
  double estimate;
  bool exact;
};

// The colour-coding FPTRAS pipeline called directly: universe 24, seed
// 12345, epsilon 0.25, delta 0.2, per-call failure 1e-3.
constexpr GoldenRow kFptrasRows[] = {
    {"star-diseq", "ans(x) :- F(x, y), F(x, z), y != z.", 24.0, false},
    {"six-cycle",
     "ans(a, d) :- F(a, b), F(b, c), F(c, d), F(d, e), F(e, f), F(f, a).",
     566.0, true},
    {"path-diseq", "ans(x) :- F(x, y), F(y, z), x != z.", 24.0, false},
};

// The engine with the adaptive scheduler off: universe 48, seed 20220808,
// epsilon = delta = 0.2, the third count on a fresh engine. The engine
// reports path-diseq's count as exact at this size.
constexpr GoldenRow kSchedulerRows[] = {
    {"six-cycle",
     "ans(a, d) :- F(a, b), F(b, c), F(c, d), F(d, e), F(e, f), F(f, a).",
     2095.0, false},
    {"path-diseq", "ans(x) :- F(x, y), F(y, z), x != z.", 48.0, true},
};

TEST(GoldenEstimatesTest, FptrasPipelineAtOneAndFourLanes) {
  Rng rng(7);
  const Database db = SocialNetworkDb(24, 4.0, 0.5, rng);
  Executor pool(4);
  for (const GoldenRow& row : kFptrasRows) {
    auto q = ParseQuery(row.query);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    for (int lanes : {1, 4}) {
      SCOPED_TRACE(std::string(row.name) + " lanes=" + std::to_string(lanes));
      ApproxOptions opts;
      opts.epsilon = 0.25;
      opts.delta = 0.2;
      opts.seed = 12345;
      opts.per_call_failure_override = 1e-3;
      if (lanes > 1) {
        opts.pool = &pool;
        opts.intra_threads = lanes;
      }
      auto result = ApproxCountAnswers(*q, db, opts);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->estimate, row.estimate);
      EXPECT_EQ(result->exact, row.exact);
    }
  }
}

TEST(GoldenEstimatesTest, AdaptiveOffEngineAtOneAndFourLanes) {
  Rng rng(2024);
  const Database db = SocialNetworkDb(48, 5.0, 0.5, rng);
  for (const GoldenRow& row : kSchedulerRows) {
    for (int lanes : {1, 4}) {
      SCOPED_TRACE(std::string(row.name) + " lanes=" + std::to_string(lanes));
      EngineOptions opts;
      opts.epsilon = 0.2;
      opts.delta = 0.2;
      opts.seed = 20220808;
      opts.num_threads = 4;
      opts.intra_query_threads = lanes;
      opts.intra_query_min_cost = 0.0;
      opts.adaptive = false;
      CountingEngine engine(opts);
      ASSERT_TRUE(engine.RegisterDatabase("g", db).ok());
      // Two warm-up counts fill the plan cache and the shape profile; the
      // adaptive-off engine must ignore the profile on the third.
      for (int warm = 0; warm < 2; ++warm) {
        ASSERT_TRUE(engine.Count(row.query, "g").ok());
      }
      auto result = engine.Count(row.query, "g");
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->estimate, row.estimate);
      EXPECT_EQ(result->exact, row.exact);
      // Early termination is opt-in: with adaptive off, no component may
      // stop on a confidence or hard-bounds rule.
      for (const ComponentResult& c : result->components) {
        EXPECT_NE(c.stop_reason, StopReason::kConfidence);
        EXPECT_NE(c.stop_reason, StopReason::kHardBounds);
      }
    }
  }
}

}  // namespace
}  // namespace cqcount
