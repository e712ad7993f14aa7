// EXP-T5: Theorem 5 — FPTRAS for #ECQ with bounded treewidth and arity.
//
// Workload: the "non-friend witnesses" ECQ (positive atoms + negation +
// disequality, tw(H(phi)) = 1..2) over Erdos-Renyi social networks.
// Series reported:
//   (a) accuracy vs epsilon at fixed N (measured relative error, always
//       within the target at the configured delta);
//   (b) runtime and oracle statistics vs ||D|| (poly growth; the
//       brute-force baseline blows up in the query size instead).
#include <string>

#include "app/workload.h"
#include "bench_util.h"
#include "counting/exact_count.h"
#include "counting/fptras.h"
#include "engine/engine.h"
#include "query/parser.h"
#include "util/timer.h"

namespace cqcount {
namespace {

Query TheQuery() {
  auto q = ParseQuery(
      "ans(x) :- F(x, y), F(x, z), !F(y, z), y != z.");
  return *q;
}

}  // namespace

int Run() {
  Query q = TheQuery();
  bench::Header("EXP-T5", "Theorem 5 FPTRAS for a treewidth-1 ECQ");
  bench::Row("query: %s", q.ToString().c_str());

  // (a) accuracy vs epsilon at N = 60.
  {
    Rng rng(101);
    const uint32_t n = bench::Sized(60u, 24u);
    Database db = SocialNetworkDb(n, 5.0, 0.5, rng);
    const double exact =
        static_cast<double>(ExactCountAnswersBruteForce(q, db));
    bench::Row("\n(a) accuracy vs epsilon (N=%u, exact=%d)", n,
               static_cast<int>(exact));
    bench::Row("%8s %12s %10s %12s %12s", "epsilon", "estimate", "rel.err",
               "EdgeFree", "HomQueries");
    for (double epsilon : bench::Sweep<double>({0.3, 0.2, 0.1, 0.05}, 2)) {
      ApproxOptions opts;
      opts.epsilon = epsilon;
      opts.delta = 0.1;
      opts.seed = 42;
      // Force the estimation path so the epsilon dependence is visible
      // (with the default budget this instance is resolved exactly).
      opts.dlm.exact_enumeration_budget = 8;
      opts.dlm.max_frontier = 32;
      auto result = ApproxCountAnswers(q, db, opts);
      if (!result.ok()) {
        bench::Row("error: %s", result.status().ToString().c_str());
        continue;
      }
      bench::Row("%8.2f %12.1f %10.4f %12llu %12llu", epsilon,
                 result->estimate,
                 bench::RelativeError(result->estimate, exact),
                 static_cast<unsigned long long>(result->oracle_calls),
                 static_cast<unsigned long long>(result->nondet_hom_queries));
    }
  }

  // (b) scaling in ||D||, routed through the CountingEngine: the first
  // call per database plans (and caches) the decomposition, the repeat
  // call shows the warm plan-cache path.
  bench::Row("\n(b) engine runtime vs database size (epsilon=0.2, delta=0.2)");
  bench::Row("%8s %10s %12s %10s %10s %12s %12s", "N", "||D||", "estimate",
             "cold_ms", "warm_ms", "brute_ms", "rel.err");
  EngineOptions engine_opts;
  engine_opts.epsilon = 0.2;
  engine_opts.delta = 0.2;
  // Force the FPTRAS path even on small instances so the scaling series
  // measures the Theorem 5 pipeline, not the exact fallback.
  engine_opts.plan.exact_cost_limit = 0.0;
  CountingEngine engine(engine_opts);
  for (uint32_t n : bench::Sweep<uint32_t>({50u, 100u, 200u, 400u, 800u}, 2)) {
    Rng rng(500 + n);
    Database db = SocialNetworkDb(n, 5.0, 0.5, rng);
    const std::string db_name = "social-" + std::to_string(n);
    Status registered = engine.RegisterDatabase(db_name, db);
    if (!registered.ok()) {
      bench::Row("error: %s", registered.ToString().c_str());
      continue;
    }
    CountRequest request;
    request.query = q.ToString();
    request.database = db_name;
    request.seed = 4242;
    WallTimer timer;
    auto result = engine.Count(request);
    const double cold_ms = timer.Millis();
    if (!result.ok()) {
      bench::Row("error: %s", result.status().ToString().c_str());
      continue;
    }
    timer.Reset();
    auto warm = engine.Count(request);
    const double warm_ms = timer.Millis();
    if (!warm.ok() || !warm->plan_cache_hit ||
        warm->estimate != result->estimate) {
      bench::Row("error: warm path diverged from cold path");
      continue;
    }
    double brute_ms = -1.0;
    double exact = -1.0;
    if (n <= 200) {
      timer.Reset();
      exact = static_cast<double>(ExactCountAnswersBruteForce(q, db));
      brute_ms = timer.Millis();
    }
    bench::Row("%8u %10llu %12.1f %10.2f %10.2f %12.2f %12.4f", n,
               static_cast<unsigned long long>(db.Size()),
               result->estimate, cold_ms, warm_ms, brute_ms,
               exact >= 0 ? bench::RelativeError(result->estimate, exact)
                          : -1.0);
  }
  bench::Row("%s",
             "\npaper shape: time f(||phi||) * poly(||D||, 1/eps); the "
             "estimate tracks the exact count within epsilon.");
  return 0;
}

}  // namespace cqcount

int main() { return cqcount::Run(); }
