// FPTRAS front end for #ECQ / #DCQ (Theorems 5 and 13).
//
// Pipeline (Section 3 + Section 4 of the paper):
//   answers of (phi, D)
//     = hyperedges of H(phi, D)              (Observation 25)
//     ~ DLM edge estimation                   (Theorem 17 interface)
//     -> EdgeFree oracle via colour coding    (Lemmas 30 and 22)
//     -> Hom oracle via tree-decomposition DP (Theorem 31 engine; the same
//        engine over an fhw-optimised decomposition serves Theorem 13).
#ifndef CQCOUNT_COUNTING_FPTRAS_H_
#define CQCOUNT_COUNTING_FPTRAS_H_

#include <cstdint>

#include "counting/dlm_counter.h"
#include "decomposition/width_measures.h"
#include "query/query.h"
#include "relational/structure.h"
#include "util/estimate_outcome.h"
#include "util/executor.h"
#include "util/status.h"

namespace cqcount {

/// Options for ApproxCountAnswers.
struct ApproxOptions {
  /// Target relative error (epsilon of the (epsilon, delta) guarantee).
  double epsilon = 0.1;
  /// Target failure probability.
  double delta = 0.1;
  /// Seed controlling all randomness (colourings, sampling).
  uint64_t seed = 0xC0FFEEULL;
  /// Decomposition objective: kTreewidth for the bounded-arity Theorem 5
  /// regime, kFractionalHypertreewidth for the unbounded-arity Theorem 13
  /// regime (DESIGN.md section 4.2).
  WidthObjective objective = WidthObjective::kTreewidth;
  /// Exact-width search is used for hypergraphs up to this many variables.
  int exact_decomposition_limit = 14;
  /// Per-EdgeFree-call failure probability for the colour-coding layer.
  /// 0 = automatic (delta split over the estimator's oracle-call budget,
  /// the paper's union bound). Benches use a fixed small value to trade a
  /// negligible extra failure mass for far fewer colouring trials.
  double per_call_failure_override = 0.0;
  /// Estimator tuning (its epsilon/delta/seed fields are overridden).
  DlmOptions dlm;
  /// Precomputed decomposition of H(phi): when non-null the pipeline skips
  /// its own ComputeDecomposition call (the engine's warm plan-cache path).
  /// Must be valid for the query's hypergraph and outlive the call.
  const FWidthResult* precomputed_decomposition = nullptr;
  /// Worker pool for intra-query parallelism (not owned; null = inline).
  /// Fans the DLM estimation — sampling runs, exact-phase sub-boxes and
  /// speculative frontier probes — across `intra_threads` lanes, each
  /// driving its own fork of the oracle stack (the colouring trials of
  /// one oracle call run in order on its lane). Estimates are
  /// bit-identical at every (pool, intra_threads) configuration; see the
  /// determinism note in dlm_counter.h and README "Parallel estimation &
  /// determinism model" (seed tree: base seed -> component -> run ->
  /// box/stratum -> sample, with colourings keyed by (seed, subset,
  /// trial)).
  Executor* pool = nullptr;
  int intra_threads = 1;
  /// Cooperative governance (not owned; null = ungoverned). Threaded into
  /// the DLM estimator and the colour-coding oracle; on expiry the
  /// pipeline yields the estimator's anytime answer (partial + interval)
  /// or its typed CANCELLED/DEADLINE_EXCEEDED status.
  const ResourceGovernor* governor = nullptr;
};

/// Result of an approximate answer count: the shared outcome, with
/// oracle_calls counting the estimator's EdgeFree calls and
/// nondet_hom_queries the colour-coding layer's hom queries.
struct ApproxCountResult : EstimateOutcome {
  /// Width of the decomposition the Hom oracle ran on.
  double width = 0.0;
};

/// (epsilon, delta)-approximates |Ans(phi, D)| for an ECQ (Theorem 5 with
/// the default treewidth objective; Theorem 13 regime with
/// kFractionalHypertreewidth). The guarantee is meaningful when the
/// query's hypergraph has bounded width; the algorithm itself is correct
/// for every input (only its running time degrades).
StatusOr<ApproxCountResult> ApproxCountAnswers(const Query& q,
                                               const Database& db,
                                               const ApproxOptions& opts);

}  // namespace cqcount

#endif  // CQCOUNT_COUNTING_FPTRAS_H_
