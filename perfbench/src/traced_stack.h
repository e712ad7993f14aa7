// The FPTRAS stack assembled from cqcount's public functions, with a
// timed proxy at every layer boundary.
//
// Per request: ParseQuery -> CompileQuery -> per component
// CanonicalQueryShape + BuildQueryPlan (cold shapes) -> ComputeDecomposition
// -> DecompositionHomOracle behind a timing HomOracle/PreparedHom proxy ->
// ColourCodingEdgeFreeOracle behind a timing EdgeFreeOracle proxy (Fork()
// forwarded, so every DLM lane is timed too) -> DlmCountEdges. This is
// what ApproxCountAnswers does internally; RunPass can check that the
// assembled stack returns bit-identical estimates.
//
// Timing: each layer call is a scope with a steady-clock start and end on
// its thread. Self time = duration minus the duration of the child layer
// calls made on the same thread. With lanes > 1, work on pool threads
// is counted where it runs, so shares are of total traced busy time
// (which equals wall time at one lane). When the obs TraceSink is enabled
// every call except hom decides also becomes an obs::Span tagged with
// its request id; decides are far too many for a trace file, so only
// every 64th gets a span (all of them are timed).
#ifndef PERFBENCH_TRACED_STACK_H_
#define PERFBENCH_TRACED_STACK_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "relational/structure.h"
#include "util/executor.h"

namespace perfbench {

struct StackRequest {
  std::string query;
  const cqcount::Database* db = nullptr;
};

struct StackOptions {
  double epsilon = 0.1;
  double delta = 0.1;
  /// Lanes for DLM and colour coding (1 = inline; pool may be null then).
  cqcount::Executor* pool = nullptr;
  int lanes = 1;
};

/// Figures of one recorded pass, keyed by BENCHMARK.json metric name.
using MetricMap = std::map<std::string, double>;

struct PassResult {
  bool ok = true;
  /// First problem found (failed call or estimate mismatch).
  std::string error;
  /// Product estimate per request.
  std::vector<double> estimates;
  double wall_s = 0.0;
  /// Layer figures; filled only by recorded passes.
  MetricMap metrics;
};

/// Runs every request through the assembled stack with cold plan and
/// decomposition caches. `record` turns the layer clocks on (and the obs
/// spans, if the caller enabled the TraceSink). `compare` also runs
/// ApproxCountAnswers on every component, untimed, with the same options
/// and fails the pass unless the estimates are bitwise equal.
PassResult RunStackPass(const std::vector<StackRequest>& requests,
                        const StackOptions& opts, bool record, bool compare);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_STACK_H_
