// Sharded, thread-safe LRU cache of query plans.
//
// Keys are full canonical shape strings (optionally scoped by database
// name), so two distinct query shapes can never be confused even when
// their hashes collide: the hash only selects a shard / bucket, the key
// comparison is exact. Each shard has its own mutex and LRU list, so
// concurrent batch execution does not serialise on one lock.
#ifndef CQCOUNT_ENGINE_PLAN_CACHE_H_
#define CQCOUNT_ENGINE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/plan.h"
#include "obs/profile.h"

namespace cqcount {

/// Aggregated cache counters (summed over shards).
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  size_t entries = 0;
};

/// Thread-safe LRU cache mapping shape keys to immutable shared plans.
class PlanCache {
 public:
  /// `capacity` is the total entry budget, split evenly over `num_shards`
  /// independently locked shards (each shard holds at least one entry).
  explicit PlanCache(size_t capacity = 256, size_t num_shards = 8);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached plan for `key` (touching its LRU position), or
  /// nullptr on miss.
  std::shared_ptr<const QueryPlan> Lookup(const std::string& key);

  /// Inserts (or replaces) the plan for `key`, evicting the least recently
  /// used entry of the shard when it is full.
  void Insert(const std::string& key, std::shared_ptr<const QueryPlan> plan);

  /// Folds one execution of `key`'s shape into its observed profile (the
  /// cost/variance record the adaptive scheduler reads). No-op when the
  /// plan is no longer cached: the profile lives and dies with the entry.
  void RecordObservation(const std::string& key, double exec_millis,
                         uint64_t oracle_calls, double estimate,
                         bool converged);

  /// The accumulated profile for `key`, when the plan is cached and has
  /// at least one recorded execution. Does not touch LRU order.
  std::optional<obs::ShapeProfile> Profile(const std::string& key) const;

  PlanCacheStats Stats() const;

  size_t capacity() const { return per_shard_capacity_ * shards_.size(); }
  size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const QueryPlan> plan;
    /// Observed executions of this shape (evicted with the entry).
    obs::ShapeProfile profile;
  };

  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
  };

  Shard& ShardFor(const std::string& key);

  size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace cqcount

#endif  // CQCOUNT_ENGINE_PLAN_CACHE_H_
