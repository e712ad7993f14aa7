#include "relational/structure.h"

#include <cassert>

#include "obs/metrics.h"

namespace cqcount {
namespace {

// projection_memo.* gauges, summed over every live structure's memo and
// registered eagerly so a `stats` dump lists them before the first count.
struct MemoMetrics {
  obs::Gauge& entries = obs::MetricRegistry::Global().GetGauge(
      "projection_memo.entries",
      "atom projections memoised across all live databases");
  obs::Gauge& bytes = obs::MetricRegistry::Global().GetGauge(
      "projection_memo.bytes",
      "payload bytes of the memoised atom projections");

  static MemoMetrics& Get() {
    static MemoMetrics* metrics = new MemoMetrics();
    return *metrics;
  }
};

[[maybe_unused]] const MemoMetrics& kMemoMetricsInit = MemoMetrics::Get();

bool IsIdentity(const ProjectionSpec& spec, int arity) {
  if (!spec.equal_pairs.empty() ||
      spec.positions.size() != static_cast<size_t>(arity)) {
    return false;
  }
  for (size_t k = 0; k < spec.positions.size(); ++k) {
    if (spec.positions[k] != static_cast<int>(k)) return false;
  }
  return true;
}

}  // namespace

std::shared_ptr<const Relation> Structure::ProjectionMemo::Get(
    const std::string& name, const ProjectionSpec& spec, const Relation& rel) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<Entry>& slot = entries_[{name, spec}];
    if (slot == nullptr) slot = std::make_shared<Entry>();
    entry = slot;
  }
  // Concurrent requests for one key wait here for the single build;
  // requests for other keys build in parallel.
  std::call_once(entry->built, [&] {
    entry->projection =
        std::make_shared<const Relation>(rel.Project(spec.positions,
                                                     spec.equal_pairs));
    const int64_t bytes =
        static_cast<int64_t>(entry->projection->flat().size() * sizeof(Value));
    std::lock_guard<std::mutex> lock(mu_);
    ++built_;
    bytes_ += bytes;
    MemoMetrics::Get().entries.Add(1);
    MemoMetrics::Get().bytes.Add(bytes);
  });
  return entry->projection;
}

void Structure::ProjectionMemo::Clear() {
  // Mutators own the structure exclusively (no Get runs concurrently), so
  // the per-fact AddFact path may skip the lock when there is nothing to
  // drop.
  if (entries_.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  MemoMetrics::Get().entries.Add(-built_);
  MemoMetrics::Get().bytes.Add(-bytes_);
  built_ = 0;
  bytes_ = 0;
}

std::shared_ptr<const Relation> Structure::Projection(
    const std::string& name, const ProjectionSpec& spec) const {
  const Relation& rel = relation(name);
  if (IsIdentity(spec, rel.arity())) {
    // Aliasing constructor with no owner: the relation outlives callers.
    return std::shared_ptr<const Relation>(std::shared_ptr<const Relation>(),
                                           &rel);
  }
  return projections_.Get(name, spec, rel);
}

Status Structure::DeclareRelation(const std::string& name, int arity) {
  if (arity < 0) {
    return Status::InvalidArgument("relation arity must be non-negative: " +
                                   name);
  }
  projections_.Clear();
  auto it = relations_.find(name);
  if (it != relations_.end()) {
    if (it->second.arity() != arity) {
      return Status::InvalidArgument("relation redeclared with new arity: " +
                                     name);
    }
    return Status::Ok();
  }
  relations_.emplace(name, Relation(arity));
  return Status::Ok();
}

bool Structure::HasRelation(const std::string& name) const {
  return relations_.count(name) > 0;
}

int Structure::Arity(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? -1 : it->second.arity();
}

Status Structure::AddFact(const std::string& name, Tuple t) {
  projections_.Clear();
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation not declared: " + name);
  }
  if (static_cast<int>(t.size()) != it->second.arity()) {
    return Status::InvalidArgument("fact arity mismatch for " + name);
  }
  for (Value v : t) {
    if (v >= universe_size_) {
      return Status::InvalidArgument("fact value outside universe in " + name);
    }
  }
  it->second.Add(std::move(t));
  return Status::Ok();
}

Status Structure::AdoptRelation(const std::string& name, Relation relation) {
  projections_.Clear();
  if (!relation.canonical()) {
    return Status::FailedPrecondition("adopting a non-canonical relation: " +
                                      name);
  }
  auto it = relations_.find(name);
  if (it != relations_.end() && it->second.arity() != relation.arity()) {
    return Status::InvalidArgument("relation redeclared with new arity: " +
                                   name);
  }
  relations_.insert_or_assign(name, std::move(relation));
  return Status::Ok();
}

void Structure::BuildZoneMaps() {
  for (auto& [name, rel] : relations_) {
    if (rel.canonical()) rel.BuildZoneMaps();
  }
}

void Structure::Canonicalize() {
  projections_.Clear();
  for (auto& [name, rel] : relations_) rel.Canonicalize();
}

bool Structure::IsCanonical() const {
  for (const auto& [name, rel] : relations_) {
    if (!rel.canonical()) return false;
  }
  return true;
}

const Relation& Structure::relation(const std::string& name) const {
  auto it = relations_.find(name);
  assert(it != relations_.end() && "relation not declared");
  return it->second;
}

Relation* Structure::mutable_relation(const std::string& name) {
  projections_.Clear();
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

std::vector<std::string> Structure::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) names.push_back(name);
  return names;
}

uint64_t Structure::Size() const {
  uint64_t size = relations_.size() + universe_size_;
  for (const auto& [name, rel] : relations_) {
    size += rel.size() * static_cast<uint64_t>(rel.arity());
  }
  return size;
}

uint64_t Structure::NumFacts() const {
  uint64_t facts = 0;
  for (const auto& [name, rel] : relations_) facts += rel.size();
  return facts;
}

}  // namespace cqcount
