// Per-shape execution profiles (the "P" of the telemetry layer).
//
// A ShapeProfile accumulates, in the plan cache, the observed history of
// one canonical shape across executions — the cost/variance substrate the
// adaptive accuracy scheduler consumes. Per-query profiles are derived
// from EngineResult by the `count --json` serializer (CountResultJson).
#ifndef CQCOUNT_OBS_PROFILE_H_
#define CQCOUNT_OBS_PROFILE_H_

#include <cstdint>
#include <string>

namespace cqcount {
namespace obs {

/// Observed execution history of one canonical shape, accumulated in the
/// plan cache across runs: the cost/variance signal the adaptive
/// scheduler reads (mean cost = total/runs, variance from sq_total).
struct ShapeProfile {
  uint64_t runs = 0;
  double total_exec_millis = 0.0;
  double sq_exec_millis = 0.0;  // Sum of squared per-run millis.
  double last_exec_millis = 0.0;
  double min_exec_millis = 0.0;
  double max_exec_millis = 0.0;
  /// Deterministic estimator probes (DLM edge-free calls / membership
  /// tests; never lane-dependent hom-oracle work). The scheduler's budget
  /// split and trials budgeting read only this, so adaptive results stay
  /// reproducible at every lane count; wall-clock fields drive
  /// scheduling-only decisions (lane grants).
  uint64_t total_oracle_calls = 0;
  uint64_t converged_runs = 0;
  double last_estimate = 0.0;

  void Observe(double exec_millis, uint64_t oracle_calls, double estimate,
               bool converged);
  double MeanExecMillis() const {
    return runs == 0 ? 0.0 : total_exec_millis / static_cast<double>(runs);
  }
  /// Mean estimator probes per execution (the scheduler's
  /// cost-per-execution signal; 0 before any observation).
  double MeanOracleCalls() const {
    return runs == 0 ? 0.0 : static_cast<double>(total_oracle_calls) /
                                 static_cast<double>(runs);
  }
  /// Population variance of the per-run execution time.
  double VarianceExecMillis() const;
  std::string ToJson() const;
};

}  // namespace obs
}  // namespace cqcount

#endif  // CQCOUNT_OBS_PROFILE_H_
