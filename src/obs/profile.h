// Per-query execution profiles (the "P" of the telemetry layer).
//
// A QueryProfile aggregates one Count()/CountBatch-item execution: phase
// durations (parse, compile, plan, execute), plan-cache outcomes, oracle
// work and lane utilization, with a per-component breakdown. It rides on
// EngineResult, serialises to JSON for `count --json`, and feeds the
// per-shape ShapeProfile the plan cache accumulates — the observed
// cost/variance substrate the adaptive accuracy scheduler consumes.
#ifndef CQCOUNT_OBS_PROFILE_H_
#define CQCOUNT_OBS_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace cqcount {
namespace obs {

/// One component's slice of a query execution.
struct ComponentProfile {
  std::string shape_key;
  std::string strategy;
  double exec_millis = 0.0;
  bool plan_cache_hit = false;
  bool executed = true;
  uint64_t oracle_calls = 0;
  uint64_t dp_prepared_decides = 0;
  uint64_t colouring_trials_per_call = 0;
  /// Lane utilization: lanes granted, tasks spawned, tasks run by pool
  /// workers (the rest ran on the calling thread).
  int lanes = 1;
  uint64_t tasks = 0;
  uint64_t worker_tasks = 0;
};

/// The whole execution, one per Count()/batch item.
struct QueryProfile {
  /// Phase durations (wall-clock milliseconds).
  double parse_millis = 0.0;
  double compile_millis = 0.0;
  double plan_millis = 0.0;
  double execute_millis = 0.0;
  /// Plan-cache outcomes across components.
  int plan_cache_hits = 0;
  int plan_cache_misses = 0;
  int guards_evaluated = 0;
  /// Oracle work and trial counts, summed over components.
  uint64_t oracle_calls = 0;
  uint64_t dp_prepared_decides = 0;
  /// Lane utilization, aggregated over components.
  int lanes = 1;
  uint64_t tasks = 0;
  uint64_t worker_tasks = 0;
  std::vector<ComponentProfile> components;

  /// One JSON object (the "profile" value of `count --json`).
  std::string ToJson() const;
};

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
