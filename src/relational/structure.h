// Relational structures / databases (Section 2.2).
//
// A structure A has a finite universe U(A) = {0, .., N-1} and, for every
// relation symbol of its signature, a relation of the declared arity.
// Databases are structures (the paper uses them interchangeably).
#ifndef CQCOUNT_RELATIONAL_STRUCTURE_H_
#define CQCOUNT_RELATIONAL_STRUCTURE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "relational/relation.h"
#include "util/status.h"

namespace cqcount {

/// Which projection of a relation an atom reads: keep the facts whose
/// columns agree on every `equal_pairs` (p, p2) pair (the atom repeats a
/// variable there), then project onto `positions` in order.
struct ProjectionSpec {
  std::vector<int> positions;
  std::vector<std::pair<int, int>> equal_pairs;

  friend bool operator<(const ProjectionSpec& a, const ProjectionSpec& b) {
    return std::tie(a.positions, a.equal_pairs) <
           std::tie(b.positions, b.equal_pairs);
  }
};

/// A relational structure with named relations over a dense universe.
///
/// Sharing: once canonical, a structure is read-only and safe to share
/// across threads. The one piece of internal state reads touch is the
/// projection memo behind Projection(), which is internally synchronised.
/// Every mutator drops the memo, and a copied or moved-to structure
/// starts with an empty one, so a memo entry is only ever read through
/// the structure whose relations it was built from.
class Structure {
 public:
  Structure() = default;
  /// Creates a structure with universe {0, .., universe_size-1}.
  explicit Structure(uint32_t universe_size)
      : universe_size_(universe_size) {}

  uint32_t universe_size() const { return universe_size_; }
  void set_universe_size(uint32_t n) {
    projections_.Clear();
    universe_size_ = n;
  }

  /// Declares a relation symbol with the given arity (idempotent when the
  /// arity matches). Fails if redeclared with a different arity.
  Status DeclareRelation(const std::string& name, int arity);

  /// True if `name` is declared.
  bool HasRelation(const std::string& name) const;

  /// Arity of `name`; -1 when undeclared.
  int Arity(const std::string& name) const;

  /// Adds a fact. The relation must be declared, the tuple must have the
  /// right arity and its values must lie in the universe.
  Status AddFact(const std::string& name, Tuple t);

  /// Installs a fully-built relation under `name` (declaring it if
  /// needed), replacing any existing rows — the wholesale path used by
  /// the segment reader to adopt mmap-backed relations and by bulk
  /// loaders. The relation must be canonical; arity conflicts with a
  /// prior declaration fail.
  Status AdoptRelation(const std::string& name, Relation relation);

  /// Builds zone maps on every canonical in-memory relation (mapped
  /// relations already carry theirs). Idempotent; called by the engine at
  /// registration so both storage backends prune identically.
  void BuildZoneMaps();

  /// Canonicalises every relation (sort + dedup). Must be called after
  /// the last AddFact and before the structure is read by the query
  /// layers; afterwards all access is read-only and the structure can be
  /// shared across threads. Idempotent.
  void Canonicalize();

  /// True when every relation is canonical (no staged facts pending).
  bool IsCanonical() const;

  /// The relation for `name` (must be declared).
  const Relation& relation(const std::string& name) const;
  Relation* mutable_relation(const std::string& name);

  /// The canonical projection `spec` of relation `name` (declared and
  /// canonical). The identity projection (positions 0..arity-1, no equal
  /// pairs) is a non-owning alias of the relation itself. Any other is
  /// built on first request, outside the memo lock and once per
  /// (name, spec), then shared by every later caller until the structure
  /// is next mutated. Safe to call concurrently; the result stays valid
  /// while the structure is alive and unmodified.
  std::shared_ptr<const Relation> Projection(const std::string& name,
                                             const ProjectionSpec& spec) const;

  /// Declared relation names in sorted order.
  std::vector<std::string> RelationNames() const;

  /// ||A|| = |sig(A)| + |U(A)| + sum_R |R^A| * ar(R) (Section 2.2).
  uint64_t Size() const;

  /// Number of facts across all relations.
  uint64_t NumFacts() const;

 private:
  // Projections built for this structure's current relations, keyed by
  // (relation name, spec) — never by address. Unbounded: it holds at most
  // one entry per distinct projection asked for. Copies start empty.
  class ProjectionMemo {
   public:
    ProjectionMemo() = default;
    ProjectionMemo(const ProjectionMemo&) {}
    ProjectionMemo& operator=(const ProjectionMemo&) {
      Clear();
      return *this;
    }
    ~ProjectionMemo() { Clear(); }

    std::shared_ptr<const Relation> Get(const std::string& name,
                                        const ProjectionSpec& spec,
                                        const Relation& rel);
    /// Drops every entry (callers holding a projection keep it alive).
    void Clear();

   private:
    struct Entry {
      std::once_flag built;
      std::shared_ptr<const Relation> projection;
    };
    std::mutex mu_;
    std::map<std::pair<std::string, ProjectionSpec>, std::shared_ptr<Entry>>
        entries_;
    // Built entries and their payload bytes, mirrored into the gauges.
    int64_t built_ = 0;
    int64_t bytes_ = 0;
  };

  uint32_t universe_size_ = 0;
  std::map<std::string, Relation> relations_;
  mutable ProjectionMemo projections_;
};

/// Databases are structures.
using Database = Structure;

}  // namespace cqcount

#endif  // CQCOUNT_RELATIONAL_STRUCTURE_H_
