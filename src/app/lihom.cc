#include "app/lihom.h"

#include <string>

#include "hom/backtracking.h"

namespace cqcount {
namespace lihom {

std::vector<std::pair<int, int>> CommonNeighbourPairs(const SimpleGraph& g) {
  const auto adj = g.AdjacencyLists();
  std::vector<std::pair<int, int>> pairs;
  for (int u = 0; u < g.num_vertices; ++u) {
    for (int v = u + 1; v < g.num_vertices; ++v) {
      bool common = false;
      size_t i = 0;
      size_t j = 0;
      while (i < adj[u].size() && j < adj[v].size()) {
        if (adj[u][i] == adj[v][j]) {
          common = true;
          break;
        }
        if (adj[u][i] < adj[v][j]) {
          ++i;
        } else {
          ++j;
        }
      }
      if (common) pairs.push_back({u, v});
    }
  }
  return pairs;
}

StatusOr<Query> BuildLihomQuery(const SimpleGraph& pattern) {
  Query q;
  for (int v = 0; v < pattern.num_vertices; ++v) {
    std::string name = "x";
    name += std::to_string(v);
    q.AddVariable(name);
  }
  q.SetNumFree(pattern.num_vertices);
  if (pattern.edges.empty()) {
    return Status::InvalidArgument(
        "pattern must have at least one edge (no isolated vertices)");
  }
  for (const auto& [u, v] : pattern.edges) {
    Atom atom;
    atom.relation = "E";
    atom.vars = {u, v};
    q.AddAtom(std::move(atom));
  }
  for (const auto& [u, v] : CommonNeighbourPairs(pattern)) {
    q.AddDisequality(u, v);
  }
  Status s = q.Validate();
  if (!s.ok()) return s;
  return q;
}

StatusOr<uint64_t> ExactCountLocallyInjectiveHoms(const SimpleGraph& pattern,
                                                  const SimpleGraph& host) {
  auto q = BuildLihomQuery(pattern);
  if (!q.ok()) return q.status();
  Database db = GraphToDatabase(host);
  return CountAnswersBrute(*q, db);
}

StatusOr<ApproxCountResult> ApproxCountLocallyInjectiveHoms(
    const SimpleGraph& pattern, const SimpleGraph& host,
    const ApproxOptions& opts) {
  auto q = BuildLihomQuery(pattern);
  if (!q.ok()) return q.status();
  Database db = GraphToDatabase(host);
  return ApproxCountAnswers(*q, db, opts);
}

}  // namespace lihom
}  // namespace cqcount
