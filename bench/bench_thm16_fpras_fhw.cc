// EXP-T16: Theorem 16 — FPRAS for #CQ with bounded fractional
// hypertreewidth, strictly generalising ACJR's bounded-hw result.
//
// Workloads:
//  (a) the AGM triangle CQ (fhw = 1.5 < 2 = hw-style bound): accuracy of
//      the FPRAS against the extension-based exact counter;
//  (b) a 2-path CQ with an existential middle variable: runtime scaling
//      in ||D|| (fully polynomial -- no f(||phi||) blow-up);
//  (c) decomposition comparison: fhw objective vs treewidth objective
//      (the ACJR scope) on a wide-atom query where fhw is much smaller.
#include "app/graph_gen.h"
#include "app/workload.h"
#include "automata/fpras.h"
#include "bench_util.h"
#include "counting/exact_count.h"
#include "decomposition/width_measures.h"
#include "query/parser.h"
#include "util/timer.h"

namespace cqcount {

int Run() {
  bench::Header("EXP-T16", "Theorem 16: FPRAS for bounded-fhw CQs");

  // (a) AGM triangle.
  {
    auto q = ParseQuery("ans(a, b, c) :- R(a, b), S(b, c), T(a, c).");
    bench::Row("(a) triangle CQ, fhw = 1.5: accuracy vs exact");
    bench::Row("%8s %12s %12s %10s %8s", "N", "exact", "estimate",
               "rel.err", "fhw");
    for (uint32_t n : bench::Sweep<uint32_t>({10u, 20u, 40u})) {
      Rng rng(n);
      Database db = RandomDatabase(
          n, {{"R", 2, 3 * n}, {"S", 2, 3 * n}, {"T", 2, 3 * n}}, rng);
      auto exact = ExactCountAnswersExtension(*q, db);
      FprasOptions opts;
      opts.acjr.epsilon = 0.15;
      opts.acjr.seed = 3;
      auto fpras = FprasCountCq(*q, db, opts);
      if (!exact.ok() || !fpras.ok()) {
        bench::Row("%8u error", n);
        continue;
      }
      bench::Row("%8u %12llu %12.1f %10.4f %8.2f", n,
                 static_cast<unsigned long long>(*exact), fpras->estimate,
                 bench::RelativeError(fpras->estimate,
                                      static_cast<double>(*exact)),
                 fpras->fhw);
    }
  }

  // (b) runtime scaling with an existential variable.
  {
    auto q = ParseQuery("ans(x, z) :- E(x, y), E(y, z).");
    bench::Row("\n(b) 2-path CQ with existential middle: scaling in ||D||");
    bench::Row("%8s %12s %12s %14s", "N", "estimate", "ms",
               "membership DPs");
    for (uint32_t n : bench::Sweep<uint32_t>({25u, 50u, 100u, 200u}, 2)) {
      Rng rng(31 + n);
      Database db = GraphToDatabase(ErdosRenyi(n, 4.0 / n, rng));
      FprasOptions opts;
      opts.acjr.epsilon = 0.2;
      opts.acjr.seed = 5;
      WallTimer timer;
      auto fpras = FprasCountCq(*q, db, opts);
      const double ms = timer.Millis();
      bench::Row("%8u %12.1f %12.2f %14llu", n,
                 fpras.ok() ? fpras->estimate : -1.0, ms,
                 fpras.ok() ? static_cast<unsigned long long>(
                                  fpras->oracle_calls)
                            : 0ull);
    }
  }

  // (c) fhw vs treewidth decomposition objective on a wide-atom query.
  {
    auto q = ParseQuery("ans(a, e) :- R(a, b, c, d), S(b, c, d, e).");
    Hypergraph h = q->BuildHypergraph();
    auto fhw = ExactFhw(h, 12);
    auto tw = ExactTreewidth(h, 12);
    bench::Row("\n(c) wide-atom CQ: tw = %.0f but fhw = %.2f",
               tw.ok() ? tw->width : -1.0, fhw.ok() ? fhw->width : -1.0);
    Rng rng(71);
    Database db =
        RandomDatabase(8, {{"R", 4, 120}, {"S", 4, 120}}, rng);
    auto exact = ExactCountAnswersExtension(*q, db);
    FprasOptions opts;
    opts.acjr.epsilon = 0.15;
    opts.acjr.seed = 7;
    auto fpras = FprasCountCq(*q, db, opts);
    if (exact.ok() && fpras.ok()) {
      bench::Row("exact=%llu estimate=%.1f rel.err=%.4f (fhw engine)",
                 static_cast<unsigned long long>(*exact), fpras->estimate,
                 bench::RelativeError(fpras->estimate,
                                      static_cast<double>(*exact)));
    }
  }
  bench::Row("%s",
             "\npaper shape: fully polynomial (no query-size blow-up) for "
             "pure CQs whenever fhw is bounded -- strictly beyond the "
             "hypertreewidth scope of Arenas et al.");
  return 0;
}

}  // namespace cqcount

int main() { return cqcount::Run(); }
