#include "engine/plan_cache.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "obs/metrics.h"

namespace cqcount {
namespace {

// Registry mirrors of the per-shard counters (summed across every
// PlanCache in the process). The per-shard fields stay authoritative for
// CacheStats(); the metrics feed `stats` JSON and dashboards.
struct PlanCacheMetrics {
  obs::Counter& hits = obs::MetricRegistry::Global().GetCounter(
      "plan_cache.hits", "Plan-cache lookups served from the cache");
  obs::Counter& misses = obs::MetricRegistry::Global().GetCounter(
      "plan_cache.misses", "Plan-cache lookups that required a plan build");
  obs::Counter& insertions = obs::MetricRegistry::Global().GetCounter(
      "plan_cache.insertions", "Plans inserted into the cache");
  obs::Counter& evictions = obs::MetricRegistry::Global().GetCounter(
      "plan_cache.evictions", "Plans (and their shape profiles) LRU-evicted");

  static PlanCacheMetrics& Get() {
    static PlanCacheMetrics* metrics = new PlanCacheMetrics();
    return *metrics;
  }
};

// Eager registration at load: every metric name appears in `stats` JSON
// (schema validation) even on code paths that never touch it.
[[maybe_unused]] const PlanCacheMetrics& kPlanCacheMetricsInit = PlanCacheMetrics::Get();

}  // namespace

PlanCache::PlanCache(size_t capacity, size_t num_shards) {
  num_shards = std::max<size_t>(1, num_shards);
  per_shard_capacity_ = std::max<size_t>(1, (capacity + num_shards - 1) / num_shards);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

PlanCache::Shard& PlanCache::ShardFor(const std::string& key) {
  const size_t h = std::hash<std::string>{}(key);
  return *shards_[h % shards_.size()];
}

std::shared_ptr<const QueryPlan> PlanCache::Lookup(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    PlanCacheMetrics::Get().misses.Increment();
    return nullptr;
  }
  ++shard.hits;
  PlanCacheMetrics::Get().hits.Increment();
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->plan;
}

void PlanCache::Insert(const std::string& key,
                       std::shared_ptr<const QueryPlan> plan) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->plan = std::move(plan);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= per_shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.evictions;
    PlanCacheMetrics::Get().evictions.Increment();
  }
  shard.lru.push_front(Entry{key, std::move(plan), {}});
  shard.index[key] = shard.lru.begin();
  ++shard.insertions;
  PlanCacheMetrics::Get().insertions.Increment();
}

void PlanCache::RecordObservation(const std::string& key, double exec_millis,
                                  uint64_t oracle_calls, double estimate,
                                  bool converged) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return;  // Evicted since execution began.
  it->second->profile.Observe(exec_millis, oracle_calls, estimate,
                              converged);
}

std::optional<obs::ShapeProfile> PlanCache::Profile(
    const std::string& key) const {
  // Profile reads are provenance (Explain), not execution: bypass LRU
  // touching. const_cast only for ShardFor's non-const signature.
  Shard& shard = const_cast<PlanCache*>(this)->ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end() || it->second->profile.runs == 0) {
    return std::nullopt;
  }
  return it->second->profile;
}

PlanCacheStats PlanCache::Stats() const {
  PlanCacheStats stats;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.insertions += shard->insertions;
    stats.evictions += shard->evictions;
    stats.entries += shard->lru.size();
  }
  return stats;
}

}  // namespace cqcount
