// The per-query profile `count --json` derives from EngineResult (the
// library serializer CountResultJson) and the plan cache's per-shape
// observed history (ShapeProfile): the profiling substrate `count --json`,
// `explain` and the adaptive scheduler read.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "obs/profile.h"

namespace cqcount {
namespace {

Database SixCycleDatabase() {
  Database db(6);
  EXPECT_TRUE(db.DeclareRelation("E", 2).ok());
  for (Value u = 0; u < 6; ++u) {
    EXPECT_TRUE(db.AddFact("E", {u, (u + 1) % 6}).ok());
  }
  db.Canonicalize();
  return db;
}

// A reader for the serializer's compact JSON, just enough to pin its
// schema: the end of the value starting at `i`, the members of an object
// and the elements of an array (as raw JSON text).
size_t ValueEnd(const std::string& json, size_t i) {
  int depth = 0;
  bool in_string = false;
  for (; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
        if (depth == 0) return i + 1;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (depth == 0) return i;
      if (--depth == 0) return i + 1;
    } else if (c == ',' && depth == 0) {
      return i;
    }
  }
  return i;
}

using Members = std::vector<std::pair<std::string, std::string>>;

Members ObjectMembers(const std::string& object) {
  Members members;
  for (size_t i = 1; i + 1 < object.size();) {
    const size_t colon = object.find(':', i);
    const size_t end = ValueEnd(object, colon + 1);
    members.emplace_back(object.substr(i + 1, colon - i - 2),
                         object.substr(colon + 1, end - colon - 1));
    i = end + 1;
  }
  return members;
}

std::vector<std::string> ArrayElements(const std::string& array) {
  std::vector<std::string> elements;
  for (size_t i = 1; i + 1 < array.size();) {
    const size_t end = ValueEnd(array, i);
    elements.push_back(array.substr(i, end - i));
    i = end + 1;
  }
  return elements;
}

std::vector<std::string> Keys(const Members& members) {
  std::vector<std::string> keys;
  for (const auto& member : members) keys.push_back(member.first);
  return keys;
}

std::string Value(const Members& members, const std::string& key) {
  for (const auto& member : members) {
    if (member.first == key) return member.second;
  }
  ADD_FAILURE() << "missing key " << key;
  return "";
}

TEST(QueryProfileTest, CountPopulatesPhasesAndComponents) {
  CountingEngine engine;
  ASSERT_TRUE(engine.RegisterDatabase("g", SixCycleDatabase()).ok());
  auto result = engine.Count("ans(x, y) :- E(x, y), x != y.", "g");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_GE(result->parse_millis, 0.0);
  EXPECT_GE(result->compile_millis, 0.0);
  EXPECT_GE(result->plan_only_millis, 0.0);
  EXPECT_GE(result->exec_millis, 0.0);
  ASSERT_EQ(result->components.size(), 1u);
  const ComponentResult& component = result->components[0];
  EXPECT_FALSE(component.shape_key.empty());
  EXPECT_FALSE(std::string(StrategyName(component.strategy)).empty());
  EXPECT_TRUE(component.executed);
  EXPECT_GE(component.exec_millis, 0.0);
  // A fresh engine: the single component's plan was built, not cached.
  EXPECT_FALSE(component.plan_cache_hit);
  EXPECT_EQ(component.oracle_calls, result->oracle_calls);

  // The same shape again: now a cache hit.
  auto again = engine.Count("ans(a, b) :- E(a, b), a != b.", "g");
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->components.size(), 1u);
  EXPECT_TRUE(again->components[0].plan_cache_hit);
}

TEST(QueryProfileTest, CountResultJsonPinsSchemaAndDerivedProfile) {
  CountingEngine engine;
  ASSERT_TRUE(engine.RegisterDatabase("g", SixCycleDatabase()).ok());
  // Warm one of the two component shapes, so the profile sees a plan-cache
  // hit and a miss.
  ASSERT_TRUE(engine.Count("ans(u) :- E(u, v).", "g").ok());
  auto result =
      engine.Count("ans(x, u) :- E(x, y), E(y, z), x != z, E(u, v).", "g");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->components.size(), 2u);

  const std::string json = CountResultJson(*result);
  const Members top = ObjectMembers(json);
  EXPECT_EQ(Keys(top),
            (std::vector<std::string>{
                "estimate", "exact", "converged", "partial", "lower_bound",
                "upper_bound", "partial_reason", "adaptive", "strategy",
                "kind", "width", "verdict", "shape_key", "oracle_calls",
                "plan_cache_hit", "num_components", "guards_evaluated",
                "plan_ms", "exec_ms", "components", "profile"}));
  const std::vector<std::string> components =
      ArrayElements(Value(top, "components"));
  ASSERT_EQ(components.size(), 2u);
  for (const std::string& component : components) {
    EXPECT_EQ(Keys(ObjectMembers(component)),
              (std::vector<std::string>{
                  "estimate", "exact", "converged", "partial", "lower_bound",
                  "upper_bound", "stop_reason", "rounds_executed",
                  "completed_runs", "total_runs", "executed", "strategy",
                  "verdict", "shape_key", "width", "num_vars", "num_free",
                  "existential", "plan_cache_hit", "oracle_calls",
                  "nondet_hom_queries", "cost_source", "predicted_ms",
                  "predicted_oracle_calls", "dp_prepared_decides",
                  "dp_prepared_path", "colouring_trials_per_call", "epsilon",
                  "delta", "exec_ms", "lanes"}));
  }

  const Members profile = ObjectMembers(Value(top, "profile"));
  EXPECT_EQ(Keys(profile),
            (std::vector<std::string>{
                "phases", "plan_cache_hits", "plan_cache_misses",
                "guards_evaluated", "oracle_calls", "dp_prepared_decides",
                "lanes", "tasks", "worker_tasks", "components"}));
  EXPECT_EQ(Keys(ObjectMembers(Value(profile, "phases"))),
            (std::vector<std::string>{"parse_ms", "compile_ms", "plan_ms",
                                      "execute_ms"}));
  const std::vector<std::string> profile_components =
      ArrayElements(Value(profile, "components"));
  ASSERT_EQ(profile_components.size(), 2u);
  for (const std::string& component : profile_components) {
    EXPECT_EQ(Keys(ObjectMembers(component)),
              (std::vector<std::string>{
                  "shape_key", "strategy", "exec_ms", "plan_cache_hit",
                  "executed", "oracle_calls", "dp_prepared_decides",
                  "colouring_trials_per_call", "lanes", "tasks",
                  "worker_tasks"}));
  }

  // The derived profile numbers match their sources.
  EXPECT_EQ(Value(profile, "plan_cache_hits"), "1");
  EXPECT_EQ(Value(profile, "plan_cache_misses"), "1");
  EXPECT_EQ(std::stoi(Value(profile, "plan_cache_hits")) +
                std::stoi(Value(profile, "plan_cache_misses")),
            static_cast<int>(result->components.size()));
  EXPECT_EQ(Value(profile, "oracle_calls"), Value(top, "oracle_calls"));
  EXPECT_EQ(Value(profile, "oracle_calls"),
            std::to_string(result->oracle_calls));
  uint64_t dp_prepared_decides = 0;
  for (const ComponentResult& component : result->components) {
    dp_prepared_decides += component.dp_prepared_decides;
  }
  EXPECT_EQ(Value(profile, "dp_prepared_decides"),
            std::to_string(dp_prepared_decides));
}

TEST(QueryProfileTest, ExplainExposesObservedShapeHistory) {
  CountingEngine engine;
  ASSERT_TRUE(engine.RegisterDatabase("g", SixCycleDatabase()).ok());
  const std::string query = "ans(x, y) :- E(x, y), x != y.";

  // Before any Count, Explain sees a plan but no observed history.
  auto cold = engine.Explain(query, "g");
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold->components.size(), 1u);
  EXPECT_FALSE(cold->components[0].observed.has_value());

  const int kRuns = 3;
  uint64_t total_oracle_calls = 0;
  double last_estimate = 0.0;
  for (int i = 0; i < kRuns; ++i) {
    auto result = engine.Count(query, "g");
    ASSERT_TRUE(result.ok());
    total_oracle_calls += result->oracle_calls;
    last_estimate = result->estimate;
  }

  auto warm = engine.Explain(query, "g");
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->components.size(), 1u);
  ASSERT_TRUE(warm->components[0].observed.has_value());
  const obs::ShapeProfile& observed = *warm->components[0].observed;
  EXPECT_EQ(observed.runs, static_cast<uint64_t>(kRuns));
  EXPECT_EQ(observed.total_oracle_calls, total_oracle_calls);
  EXPECT_EQ(observed.last_estimate, last_estimate);
  EXPECT_GE(observed.max_exec_millis, observed.min_exec_millis);
  EXPECT_GE(observed.MeanExecMillis(), 0.0);
  EXPECT_GE(observed.VarianceExecMillis(), 0.0);
  EXPECT_LE(observed.converged_runs, observed.runs);
}

TEST(QueryProfileTest, ShapeProfileAccumulatesObservations) {
  obs::ShapeProfile profile;
  profile.Observe(2.0, 10, 42.0, true);
  profile.Observe(4.0, 20, 43.0, false);
  EXPECT_EQ(profile.runs, 2u);
  EXPECT_DOUBLE_EQ(profile.MeanExecMillis(), 3.0);
  EXPECT_DOUBLE_EQ(profile.VarianceExecMillis(), 1.0);
  EXPECT_EQ(profile.min_exec_millis, 2.0);
  EXPECT_EQ(profile.max_exec_millis, 4.0);
  EXPECT_EQ(profile.total_oracle_calls, 30u);
  EXPECT_DOUBLE_EQ(profile.MeanOracleCalls(), 15.0);
  EXPECT_EQ(profile.converged_runs, 1u);
  EXPECT_EQ(profile.last_estimate, 43.0);
  const std::string json = profile.ToJson();
  for (const char* key :
       {"\"runs\"", "\"mean_exec_ms\"", "\"total_oracle_calls\"",
        "\"converged_runs\"", "\"last_estimate\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

}  // namespace
}  // namespace cqcount
