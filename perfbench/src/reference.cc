#include "reference.h"

#include <algorithm>
#include <cctype>
#include <deque>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

struct Literal {
  std::string relation;
  std::vector<int> vars;
  bool negated = false;
};

struct RefQuery {
  std::vector<std::string> names;
  int num_free = 0;
  std::vector<Literal> atoms;
  std::vector<std::pair<int, int>> diseqs;
};

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  RefQuery Parse() {
    RefQuery q;
    Expect("ans");
    Expect("(");
    if (!Accept(")")) {
      do {
        Var(q, Ident());
      } while (Accept(","));
      Expect(")");
    }
    q.num_free = static_cast<int>(q.names.size());
    Expect(":-");
    do {
      Literal lit;
      lit.negated = Accept("!");
      const std::string first = Ident();
      if (!lit.negated && Accept("!=")) {
        q.diseqs.emplace_back(Var(q, first), Var(q, Ident()));
        continue;
      }
      lit.relation = first;
      Expect("(");
      if (!Accept(")")) {
        do {
          lit.vars.push_back(Var(q, Ident()));
        } while (Accept(","));
        Expect(")");
      }
      q.atoms.push_back(std::move(lit));
    } while (Accept(","));
    Expect(".");
    return q;
  }

 private:
  void Skip() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Accept(const std::string& tok) {
    Skip();
    if (s_.compare(pos_, tok.size(), tok) != 0) return false;
    // "!" must not swallow the "!" of "!=".
    if (tok == "!" && s_.compare(pos_, 2, "!=") == 0) return false;
    pos_ += tok.size();
    return true;
  }
  void Expect(const std::string& tok) {
    if (!Accept(tok)) {
      throw std::invalid_argument("reference parser: expected '" + tok +
                                  "' at offset " + std::to_string(pos_) +
                                  " in " + s_);
    }
  }
  std::string Ident() {
    Skip();
    size_t end = pos_;
    while (end < s_.size() &&
           (std::isalnum(static_cast<unsigned char>(s_[end])) || s_[end] == '_')) {
      ++end;
    }
    if (end == pos_) {
      throw std::invalid_argument("reference parser: identifier expected in " +
                                  s_);
    }
    std::string id = s_.substr(pos_, end - pos_);
    pos_ = end;
    return id;
  }
  static int Var(RefQuery& q, const std::string& name) {
    auto it = std::find(q.names.begin(), q.names.end(), name);
    if (it != q.names.end()) return static_cast<int>(it - q.names.begin());
    q.names.push_back(name);
    return static_cast<int>(q.names.size()) - 1;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// Rows of `width` values, sorted lexicographically and duplicate-free.
struct SortedRows {
  int width = 0;
  std::vector<uint32_t> data;

  size_t size() const { return width == 0 ? 0 : data.size() / width; }
  const uint32_t* row(size_t i) const { return data.data() + i * width; }

  // First row whose first `len` values are >= (or > when `upper`) prefix.
  size_t Bound(const uint32_t* prefix, int len, bool upper) const {
    size_t lo = 0, hi = size();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      const uint32_t* r = row(mid);
      int cmp = 0;
      for (int i = 0; i < len && cmp == 0; ++i) {
        cmp = r[i] < prefix[i] ? -1 : (r[i] > prefix[i] ? 1 : 0);
      }
      if (cmp < 0 || (upper && cmp == 0)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }
  bool Contains(const uint32_t* t) const {
    const size_t i = Bound(t, width, false);
    return i < size() && std::equal(t, t + width, row(i));
  }
};

SortedRows Project(const TableData& table, const std::vector<int>& cols) {
  SortedRows out;
  out.width = static_cast<int>(cols.size());
  const size_t n = table.num_rows();
  std::vector<uint32_t> flat(n * cols.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < cols.size(); ++j) {
      flat[i * cols.size() + j] = table.rows[i * table.arity + cols[j]];
    }
  }
  const size_t w = cols.size();
  auto less = [&](size_t a, size_t b) {
    return std::lexicographical_compare(&flat[a * w], &flat[a * w] + w,
                                        &flat[b * w], &flat[b * w] + w);
  };
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  std::sort(perm.begin(), perm.end(), less);
  for (size_t k = 0; k < n; ++k) {
    if (k > 0 && !less(perm[k - 1], perm[k])) continue;
    out.data.insert(out.data.end(), &flat[perm[k] * w],
                    &flat[perm[k] * w] + w);
  }
  return out;
}

// Backtracking evaluator over one variable order (free variables first).
class Evaluator {
 public:
  Evaluator(const RefQuery& q, const DatabaseData& db) : q_(q), db_(db) {
    const int n = static_cast<int>(q.names.size());
    Order(0, q.num_free);
    Order(q.num_free, n);
    pos_.assign(n, 0);
    for (int d = 0; d < n; ++d) pos_[order_[d]] = d;
    value_.assign(n, 0);
    steps_.resize(n);
    for (int d = 0; d < n; ++d) PlanStep(d);
  }

  uint64_t Count() {
    for (const Literal& a : q_.atoms) {
      if (!a.vars.empty()) continue;
      const TableData& t = Table(a.relation);
      if (t.nullary_true == a.negated) return 0;
    }
    if (q_.num_free == 0) return Exists(0) ? 1 : 0;
    uint64_t count = 0;
    Free(0, &count);
    return count;
  }

 private:
  struct Step {
    int var = 0;
    // Candidate generator: rows of (bound key values..., var value); null
    // = every universe value.
    const SortedRows* gen = nullptr;
    std::vector<int> key_vars;
    // Literals / disequalities whose last variable is bound here.
    std::vector<int> checks;
    std::vector<std::pair<int, int>> diseqs;
  };

  const TableData& Table(const std::string& name) const {
    const TableData* t = db_.Find(name);
    if (t == nullptr) throw std::invalid_argument("no relation " + name);
    return *t;
  }

  // Greedy connected order of the variables [from, to): next is the one
  // sharing the most positive atoms with already-ordered variables.
  void Order(int from, int to) {
    std::vector<bool> placed(q_.names.size(), false);
    for (int v : order_) placed[v] = true;
    for (int k = from; k < to; ++k) {
      int best = -1, best_score = -1;
      for (int v = from; v < to; ++v) {
        if (placed[v]) continue;
        int score = 0;
        for (const Literal& a : q_.atoms) {
          if (a.negated) continue;
          bool has_v = false, has_bound = false;
          for (int u : a.vars) {
            has_v |= u == v;
            has_bound |= placed[u];
          }
          if (has_v) score += has_bound ? 2 : 1;
        }
        if (score > best_score) best = v, best_score = score;
      }
      placed[best] = true;
      order_.push_back(best);
    }
  }

  void PlanStep(int d) {
    Step& s = steps_[d];
    s.var = order_[d];
    // Generator: the positive atom on this variable with the most bound
    // variables (fewest rows on ties).
    int best = -1, best_bound = -1;
    for (size_t i = 0; i < q_.atoms.size(); ++i) {
      const Literal& a = q_.atoms[i];
      if (a.negated || std::find(a.vars.begin(), a.vars.end(), s.var) ==
                           a.vars.end()) {
        continue;
      }
      int bound = 0;
      for (int u : a.vars) bound += pos_[u] < d;
      if (bound > best_bound ||
          (bound == best_bound &&
           Table(a.relation).num_rows() <
               Table(q_.atoms[best].relation).num_rows())) {
        best = static_cast<int>(i), best_bound = bound;
      }
    }
    if (best >= 0) {
      const Literal& a = q_.atoms[best];
      std::vector<int> cols;
      for (size_t p = 0; p < a.vars.size(); ++p) {
        if (pos_[a.vars[p]] < d) {
          cols.push_back(static_cast<int>(p));
          s.key_vars.push_back(a.vars[p]);
        }
      }
      cols.push_back(static_cast<int>(
          std::find(a.vars.begin(), a.vars.end(), s.var) - a.vars.begin()));
      projections_.push_back(Project(Table(a.relation), cols));
      s.gen = &projections_.back();
    }
    for (size_t i = 0; i < q_.atoms.size(); ++i) {
      const Literal& a = q_.atoms[i];
      if (a.vars.empty()) continue;
      int last = 0;
      for (int u : a.vars) last = std::max(last, pos_[u]);
      if (last == d) s.checks.push_back(static_cast<int>(i));
    }
    for (const auto& [x, y] : q_.diseqs) {
      if (std::max(pos_[x], pos_[y]) == d) s.diseqs.emplace_back(x, y);
    }
  }

  // Membership index of a whole relation (shared by its atoms).
  const SortedRows& Full(const std::string& relation) {
    auto it = full_.find(relation);
    if (it == full_.end()) {
      const TableData& t = Table(relation);
      std::vector<int> cols(t.arity);
      for (int p = 0; p < t.arity; ++p) cols[p] = p;
      it = full_.emplace(relation, Project(t, cols)).first;
    }
    return it->second;
  }

  bool Check(int d) {
    const Step& s = steps_[d];
    for (const auto& [x, y] : s.diseqs) {
      if (value_[x] == value_[y]) return false;
    }
    for (int i : s.checks) {
      const Literal& a = q_.atoms[i];
      tuple_.clear();
      for (int u : a.vars) tuple_.push_back(value_[u]);
      if (Full(a.relation).Contains(tuple_.data()) == a.negated) return false;
    }
    return true;
  }

  // Calls body(value) for every candidate of step d until it returns true.
  template <typename Body>
  bool ForCandidates(int d, Body&& body) {
    const Step& s = steps_[d];
    if (s.gen == nullptr) {
      for (uint32_t v = 0; v < db_.universe; ++v) {
        if (body(v)) return true;
      }
      return false;
    }
    uint32_t key[8];
    const int len = static_cast<int>(s.key_vars.size());
    for (int i = 0; i < len; ++i) key[i] = value_[s.key_vars[i]];
    const size_t lo = s.gen->Bound(key, len, false);
    const size_t hi = s.gen->Bound(key, len, true);
    for (size_t r = lo; r < hi; ++r) {
      if (body(s.gen->row(r)[len])) return true;
    }
    return false;
  }

  bool Exists(int d) {
    if (d == static_cast<int>(order_.size())) return true;
    return ForCandidates(d, [&](uint32_t v) {
      value_[order_[d]] = v;
      return Check(d) && Exists(d + 1);
    });
  }

  void Free(int d, uint64_t* count) {
    if (d == q_.num_free) {
      *count += Exists(d) ? 1 : 0;
      return;
    }
    ForCandidates(d, [&](uint32_t v) {
      value_[order_[d]] = v;
      if (Check(d)) Free(d + 1, count);
      return false;
    });
  }

  const RefQuery& q_;
  const DatabaseData& db_;
  std::vector<int> order_;
  std::vector<int> pos_;
  std::vector<uint32_t> value_;
  std::vector<Step> steps_;
  std::vector<uint32_t> tuple_;
  // A deque keeps the addresses steps point at stable.
  std::deque<SortedRows> projections_;
  std::map<std::string, SortedRows> full_;
};

}  // namespace

uint64_t ReferenceCount(const std::string& query, const DatabaseData& db) {
  const RefQuery q = Parser(query).Parse();
  for (const Literal& a : q.atoms) {
    const TableData* t = db.Find(a.relation);
    if (t == nullptr || t->arity != static_cast<int>(a.vars.size()) ||
        a.vars.size() > 7) {
      throw std::invalid_argument("reference: bad atom " + a.relation);
    }
  }
  return Evaluator(q, db).Count();
}

}  // namespace perfbench
