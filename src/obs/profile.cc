#include "obs/profile.h"

#include <algorithm>

#include "obs/json.h"

namespace cqcount {
namespace obs {

std::string QueryProfile::ToJson() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("phases");
  json.BeginObject();
  json.Key("parse_ms").Double(parse_millis);
  json.Key("compile_ms").Double(compile_millis);
  json.Key("plan_ms").Double(plan_millis);
  json.Key("execute_ms").Double(execute_millis);
  json.EndObject();
  json.Key("plan_cache_hits").Int(plan_cache_hits);
  json.Key("plan_cache_misses").Int(plan_cache_misses);
  json.Key("guards_evaluated").Int(guards_evaluated);
  json.Key("oracle_calls").Uint(oracle_calls);
  json.Key("dp_prepared_decides").Uint(dp_prepared_decides);
  json.Key("lanes").Int(lanes);
  json.Key("tasks").Uint(tasks);
  json.Key("worker_tasks").Uint(worker_tasks);
  json.Key("components");
  json.BeginArray();
  for (const ComponentProfile& c : components) {
    json.BeginObject();
    json.Key("shape_key").String(c.shape_key);
    json.Key("strategy").String(c.strategy);
    json.Key("exec_ms").Double(c.exec_millis);
    json.Key("plan_cache_hit").Bool(c.plan_cache_hit);
    json.Key("executed").Bool(c.executed);
    json.Key("oracle_calls").Uint(c.oracle_calls);
    json.Key("dp_prepared_decides").Uint(c.dp_prepared_decides);
    json.Key("colouring_trials_per_call").Uint(c.colouring_trials_per_call);
    json.Key("lanes").Int(c.lanes);
    json.Key("tasks").Uint(c.tasks);
    json.Key("worker_tasks").Uint(c.worker_tasks);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.Take();
}

void ShapeProfile::Observe(double exec_millis, uint64_t oracle_calls,
                           double estimate, bool converged) {
  if (runs == 0) {
    min_exec_millis = exec_millis;
    max_exec_millis = exec_millis;
  } else {
    min_exec_millis = std::min(min_exec_millis, exec_millis);
    max_exec_millis = std::max(max_exec_millis, exec_millis);
  }
  ++runs;
  total_exec_millis += exec_millis;
  sq_exec_millis += exec_millis * exec_millis;
  last_exec_millis = exec_millis;
  total_oracle_calls += oracle_calls;
  if (converged) ++converged_runs;
  last_estimate = estimate;
}

double ShapeProfile::VarianceExecMillis() const {
  if (runs == 0) return 0.0;
  const double mean = MeanExecMillis();
  const double var =
      sq_exec_millis / static_cast<double>(runs) - mean * mean;
  return var > 0.0 ? var : 0.0;
}

std::string ShapeProfile::ToJson() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("runs").Uint(runs);
  json.Key("mean_exec_ms").Double(MeanExecMillis());
  json.Key("var_exec_ms").Double(VarianceExecMillis());
  json.Key("last_exec_ms").Double(last_exec_millis);
  json.Key("min_exec_ms").Double(min_exec_millis);
  json.Key("max_exec_ms").Double(max_exec_millis);
  json.Key("total_oracle_calls").Uint(total_oracle_calls);
  json.Key("converged_runs").Uint(converged_runs);
  json.Key("last_estimate").Double(last_estimate);
  json.EndObject();
  return json.Take();
}

}  // namespace obs
}  // namespace cqcount
