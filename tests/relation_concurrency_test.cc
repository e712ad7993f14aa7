// Regression test for the historical const-mutation data race: the boxed
// Relation sorted lazily behind const accessors (`mutable` members), so
// concurrent Contains()/PrefixRange() readers raced on the sort. The flat
// storage canonicalises eagerly; after Canonicalize() every accessor is
// genuinely read-only. This test hammers a shared relation from many
// threads — under TSan (or the Debug CI job's asserts) any reintroduced
// lazy mutation fails loudly; without TSan it still cross-checks every
// concurrent read against single-threaded ground truth.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "relational/relation.h"
#include "relational/structure.h"
#include "util/random.h"

namespace cqcount {
namespace {

Relation BuildRelation(int arity, int universe, int rows, uint64_t seed) {
  Rng rng(seed);
  Relation r(arity);
  for (int i = 0; i < rows; ++i) {
    Value* dst = r.AppendRow();
    for (int k = 0; k < arity; ++k) {
      dst[k] = static_cast<Value>(rng.UniformInt(universe));
    }
  }
  r.Canonicalize();
  return r;
}

TEST(RelationConcurrencyTest, ConcurrentContainsReaders) {
  const int kArity = 3;
  const int kUniverse = 32;
  const Relation shared = BuildRelation(kArity, kUniverse, 20000, 99);

  // Ground truth, computed single-threaded before the readers start.
  std::vector<Tuple> probes;
  std::vector<bool> expected;
  Rng rng(7);
  for (int i = 0; i < 512; ++i) {
    Tuple t(kArity);
    for (int k = 0; k < kArity; ++k) {
      t[k] = static_cast<Value>(rng.UniformInt(kUniverse + 2));
    }
    expected.push_back(shared.Contains(t));
    probes.push_back(std::move(t));
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    readers.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        // Offset per thread so threads touch different probes at once.
        for (size_t i = 0; i < probes.size(); ++i) {
          const size_t at = (i + w * 61) % probes.size();
          if (shared.Contains(probes[at]) != expected[at]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(shared.canonical());
}

TEST(RelationConcurrencyTest, ConcurrentMixedReadPaths) {
  const Relation shared = BuildRelation(2, 64, 50000, 1234);
  const size_t expected_size = shared.size();

  // One reference prefix scan, single-threaded.
  uint64_t expected_sum = 0;
  for (Value v = 0; v < 64; ++v) {
    const auto [lo, hi] = shared.NarrowRange(0, shared.size(), 0, v);
    for (size_t i = lo; i < hi; ++i) expected_sum += shared.At(i, 1);
  }

  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int w = 0; w < kThreads; ++w) {
    readers.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        if (shared.size() != expected_size) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        uint64_t sum = 0;
        for (Value v = 0; v < 64; ++v) {
          const auto [lo, hi] = shared.NarrowRange(0, shared.size(), 0, v);
          for (size_t i = lo; i < hi; ++i) sum += shared.At(i, 1);
        }
        if (sum != expected_sum) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        // Full scans via views interleaved with the binary searches.
        size_t rows = 0;
        for (TupleView t : shared) {
          (void)t;
          ++rows;
        }
        if (rows != expected_size) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// TSan target: threads racing on one database's projection memo. Every
// thread must receive the one entry per key, and each key must be built
// exactly once (the entries gauge counts builds).
TEST(RelationConcurrencyTest, ConcurrentProjectionRequestsShareOneBuild) {
  Structure db(64);
  ASSERT_TRUE(db.AdoptRelation("F", BuildRelation(3, 64, 20000, 5)).ok());
  ASSERT_TRUE(db.AdoptRelation("G", BuildRelation(2, 64, 5000, 6)).ok());
  const std::vector<std::pair<std::string, ProjectionSpec>> keys = {
      {"F", {{0}, {}}},          {"F", {{2, 0}, {}}},
      {"F", {{1}, {{0, 2}}}},    {"G", {{1, 0}, {}}},
      {"G", {{1}, {}}},          {"G", {{0, 1}, {}}}};  // Identity.
  obs::Gauge& entries = obs::MetricRegistry::Global().GetGauge(
      "projection_memo.entries", "");
  const int64_t entries_before = entries.Value();

  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  std::vector<std::vector<const Relation*>> seen(
      kThreads, std::vector<const Relation*>(keys.size(), nullptr));
  std::atomic<int> mismatches{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      while (!go.load()) {
      }
      for (int round = 0; round < kRounds; ++round) {
        // Each thread starts at a different key, so the first requests
        // race on the same and on different keys at once.
        for (size_t i = 0; i < keys.size(); ++i) {
          const size_t k = (i + static_cast<size_t>(w)) % keys.size();
          const Relation* p =
              db.Projection(keys[k].first, keys[k].second).get();
          if (seen[w][k] == nullptr) seen[w][k] = p;
          if (seen[w][k] != p) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  go.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  for (size_t k = 0; k < keys.size(); ++k) {
    const std::shared_ptr<const Relation> p =
        db.Projection(keys[k].first, keys[k].second);
    for (int w = 0; w < kThreads; ++w) EXPECT_EQ(seen[w][k], p.get());
    const Relation& rel = db.relation(keys[k].first);
    EXPECT_EQ(*p, rel.Project(keys[k].second.positions,
                              keys[k].second.equal_pairs));
  }
  // Five non-identity keys, five builds; the identity key is an alias.
  EXPECT_EQ(entries.Value() - entries_before, 5);
}

}  // namespace
}  // namespace cqcount
