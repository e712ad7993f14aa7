#include "workloads.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <stdexcept>

namespace perfbench {
namespace {

// splitmix64: tiny, portable and fully specified, so inputs are identical
// on every platform and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  uint32_t Below(uint64_t n) { return static_cast<uint32_t>(Next() % n); }
  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  uint64_t state_;
};

TableData MakeTable(const std::string& name, int arity,
                    std::vector<std::vector<uint32_t>> rows) {
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  TableData t;
  t.name = name;
  t.arity = arity;
  for (const auto& r : rows) t.rows.insert(t.rows.end(), r.begin(), r.end());
  return t;
}

TableData Nullary(const std::string& name, bool holds) {
  TableData t;
  t.name = name;
  t.nullary_true = holds;
  return t;
}

// Symmetric friendship relation F with about n * avg_degree / 2 edges.
// Half the edges join ids at most `window` apart (communities, so
// triangles and !F(x, z) both matter); the rest are uniform.
TableData SocialGraph(uint32_t n, double avg_degree, uint32_t window,
                      Rng& rng) {
  const uint64_t edges = static_cast<uint64_t>(n * avg_degree / 2.0);
  std::vector<uint64_t> packed;
  packed.reserve(2 * edges);
  for (uint64_t i = 0; i < edges; ++i) {
    const uint32_t a = rng.Below(n);
    const uint32_t b = rng.Chance(0.5) ? (a + 1 + rng.Below(window)) % n
                                       : rng.Below(n);
    if (a == b) continue;
    packed.push_back(uint64_t{a} << 32 | b);
    packed.push_back(uint64_t{b} << 32 | a);
  }
  std::sort(packed.begin(), packed.end());
  packed.erase(std::unique(packed.begin(), packed.end()), packed.end());
  TableData t;
  t.name = "F";
  t.arity = 2;
  t.rows.reserve(2 * packed.size());
  for (uint64_t p : packed) {
    t.rows.push_back(static_cast<uint32_t>(p >> 32));
    t.rows.push_back(static_cast<uint32_t>(p));
  }
  return t;
}

// Small-world symmetric F: a ring lattice joining each vertex to its
// `ring` nearest ids on each side, plus `matchings` random perfect
// matchings. Every vertex has degree 2 * ring + matchings (less the rare
// duplicate), so per-vertex work, and with it how evenly DLM's lanes are
// loaded, varies little from seed to seed.
TableData SmallWorldGraph(uint32_t n, uint32_t ring, uint32_t matchings,
                          Rng& rng) {
  std::vector<uint64_t> packed;
  auto add = [&packed](uint32_t a, uint32_t b) {
    if (a == b) return;
    packed.push_back(uint64_t{a} << 32 | b);
    packed.push_back(uint64_t{b} << 32 | a);
  };
  for (uint32_t v = 0; v < n; ++v) {
    for (uint32_t d = 1; d <= ring; ++d) add(v, (v + d) % n);
  }
  std::vector<uint32_t> perm(n);
  for (uint32_t m = 0; m < matchings; ++m) {
    for (uint32_t v = 0; v < n; ++v) perm[v] = v;
    for (uint32_t v = n; v > 1; --v) std::swap(perm[v - 1], perm[rng.Below(v)]);
    for (uint32_t v = 0; v + 1 < n; v += 2) add(perm[v], perm[v + 1]);
  }
  std::sort(packed.begin(), packed.end());
  packed.erase(std::unique(packed.begin(), packed.end()), packed.end());
  TableData t;
  t.name = "F";
  t.arity = 2;
  t.rows.reserve(2 * packed.size());
  for (uint64_t p : packed) {
    t.rows.push_back(static_cast<uint32_t>(p >> 32));
    t.rows.push_back(static_cast<uint32_t>(p));
  }
  return t;
}

TableData Unary(const std::string& name, uint32_t n, double p, Rng& rng) {
  TableData t;
  t.name = name;
  t.arity = 1;
  for (uint32_t v = 0; v < n; ++v) {
    if (rng.Chance(p)) t.rows.push_back(v);
  }
  return t;
}

// k distinct values, one uniform in each of k equal blocks of [0, n): the
// sample is spread evenly over the id space, so how DLM's bisection of
// that space splits the answers varies little from seed to seed.
TableData StratifiedSample(const std::string& name, uint32_t n, uint32_t k,
                           Rng& rng) {
  TableData t;
  t.name = name;
  t.arity = 1;
  for (uint32_t i = 0; i < k; ++i) {
    const uint64_t lo = uint64_t{n} * i / k;
    const uint64_t hi = uint64_t{n} * (i + 1) / k;
    t.rows.push_back(static_cast<uint32_t>(lo + rng.Below(hi - lo)));
  }
  return t;
}

DatabaseData SocialDatabase(const std::string& name, uint32_t n,
                            double avg_degree, Rng& rng) {
  DatabaseData db;
  db.name = name;
  db.universe = n;
  db.tables.push_back(SocialGraph(n, avg_degree, 16, rng));
  db.tables.push_back(Unary("Adult", n, 0.5, rng));
  return db;
}

// sampling: every shape has more answers than DLM's exact-enumeration
// budget (1024) at full size. The two-free-variable shape runs on a
// smaller graph: its partite space is |U|^2, and at |U| = 1500 it has
// more answers than DLM's 2048-box frontier, which costs tens of seconds
// per count. The unary-negation shape is kept, sized down to the small
// graph (it costs about 12x more per oracle call than its siblings).
WorkloadData Sampling(Rng& rng, Size size) {
  const bool full = size == Size::kFull;
  WorkloadData w;
  w.databases.push_back(SocialDatabase("social", full ? 1500 : 160, 5.0, rng));
  w.databases.push_back(
      SocialDatabase("social_small", full ? 320 : 60, 5.0, rng));
  w.requests = {
      {"social", "ans(x) :- F(x, y), F(x, z), !F(y, z), y != z."},
      {"social_small", "ans(x, y) :- F(x, y), F(y, z), !F(x, z), x != z."},
      {"social", "ans(x) :- F(x, y), F(y, z), !F(x, z), x != z."},
      {"social_small",
       "ans(x) :- F(x, y), Adult(y), F(y, z), !Adult(z), x != z."},
  };
  return w;
}

// large-db: a 10^6-tuple small-world F (|U| = 50000, degree 20: 8 MB of
// columns, past a 2 MiB L2) and a 150-row Seed relation anchoring every
// query, so each count has at most 150 answers and DLM stays in its exact
// phase. Seed holds one vertex per block of ids, spread over the space
// DLM bisects.
WorkloadData LargeDb(Rng& rng, Size size) {
  const bool full = size == Size::kFull;
  const uint32_t n = full ? 50000 : 3000;
  WorkloadData w;
  DatabaseData db;
  db.name = "graph";
  db.universe = n;
  db.tables.push_back(SmallWorldGraph(n, 5, 10, rng));
  db.tables.push_back(Unary("Adult", n, 0.5, rng));
  db.tables.push_back(StratifiedSample("Seed", n, full ? 150 : 20, rng));
  w.databases.push_back(std::move(db));
  w.requests = {
      {"graph", "ans(x) :- Seed(x), F(x, y), F(y, z), !F(x, z), x != z."},
      {"graph", "ans(x) :- Seed(x), F(x, y), F(x, z), !F(y, z), y != z."},
      {"graph", "ans(x) :- Seed(x), F(x, y), F(x, z), F(y, z), y != z."},
  };
  return w;
}

// shape-mix: 30 hard-class shapes (3-8 variables, 0-3 free): Theorem-5
// ECQs over F/Adult, Theorem-13 DCQs over the 4-6-ary R, S, T, W,
// multi-component queries and nullary guards (G() holds, H() does not).
const std::vector<std::string>& MixShapes() {
  static const std::vector<std::string> shapes = {
      "ans(x) :- F(x, y), F(x, z), !F(y, z), y != z.",
      "ans(x) :- F(x, y), F(y, z), !F(x, z), x != z.",
      "ans(x, y) :- F(x, y), F(y, z), !F(x, z), x != z.",
      "ans(x) :- F(x, y), Adult(y), F(y, z), !Adult(z), x != z.",
      "ans(x) :- F(x, y), F(y, z), F(z, w), x != w, y != w.",
      "ans(x, y) :- F(x, y), F(y, z), !F(x, z), !Adult(z), x != z.",
      "ans() :- F(x, y), F(y, z), F(z, x), x != y.",
      "ans(x) :- F(x, y), F(y, z), F(z, x), !Adult(y), y != z.",
      "ans(x) :- F(x, a), F(x, b), F(x, c), a != b, b != c.",
      "ans(x) :- F(x, y), F(y, z), F(z, w), F(w, v), !F(x, v), x != v.",
      "ans(a) :- R(a, b, c, d, e, f), S(b, c, d, e, f, g), T(d, e, f, h), "
      "g != h.",
      "ans(a, h) :- R(a, b, c, d, e, f), S(b, c, d, e, f, g), T(d, e, f, h), "
      "g != h.",
      "ans(x) :- Adult(x), F(x, y), !Adult(y), F(y, z), Adult(z), x != z.",
      "ans(x) :- F(x, y), F(y, z), F(x, w), F(w, z), y != w, !F(x, z).",
      "ans(x, z) :- F(x, y), F(y, z), F(x, w), F(w, z), y != w.",
      "ans(a, g) :- R(a, b, c, d, e, f), S(b, c, d, e, f, g), a != g.",
      "ans(a) :- R(a, b, c, d, e, f), S(b, c, d, e, f, g), a != g.",
      "ans(a, b) :- T(a, b, c, d), T(c, d, e, f), a != e.",
      "ans(a) :- T(a, b, c, d), W(b, c, d, e, f), a != f, b != e.",
      "ans(a, b, c) :- R(a, b, c, d, e, f), T(d, e, f, g), c != g.",
      "ans(a) :- W(a, b, c, d, e), W(b, c, d, e, f), a != f.",
      "ans() :- R(a, b, c, d, e, f), S(b, c, d, e, f, g), a != g.",
      "ans(a, b) :- T(a, b, c, d), F(c, d), !F(a, c), a != d.",
      "ans(x, u) :- F(x, y), F(x, z), !F(y, z), y != z, Adult(u), F(u, v), "
      "!Adult(v).",
      "ans(x) :- F(x, y), F(y, z), !F(x, z), x != z, F(a, b), F(b, c), "
      "a != c.",
      "ans(a, x) :- T(a, b, c, d), a != d, F(x, y), !Adult(y).",
      "ans(x) :- G(), F(x, y), F(x, z), !F(y, z), y != z.",
      "ans(x, y) :- G(), !H(), F(x, y), Adult(y), F(y, z), !Adult(z), "
      "x != z.",
      "ans(x) :- H(), F(x, y), F(y, z), x != z.",
      "ans(a) :- !H(), R(a, b, c, d, e, f), S(b, c, d, e, f, g), a != g.",
  };
  return shapes;
}

// Splits "head :- l1, l2(...), l3." into the head and the body literals
// (commas inside parentheses do not split).
void SplitQuery(const std::string& q, std::string* head,
                std::vector<std::string>* body) {
  const size_t arrow = q.find(":-");
  *head = q.substr(0, arrow);
  std::string rest = q.substr(arrow + 2);
  if (!rest.empty() && rest.back() == '.') rest.pop_back();
  int depth = 0;
  std::string cur;
  for (char c : rest) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == ',' && depth == 0) {
      body->push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  body->push_back(cur);
  for (auto& lit : *body) {
    lit.erase(0, lit.find_first_not_of(' '));
    lit.erase(lit.find_last_not_of(' ') + 1);
  }
}

// An isomorphic copy of `q`: variables (lower-case identifiers other than
// "ans") renamed and body literals shuffled.
std::string RenamedCopy(const std::string& q, Rng& rng) {
  std::string head;
  std::vector<std::string> body;
  SplitQuery(q, &head, &body);
  for (size_t i = body.size(); i > 1; --i) {
    std::swap(body[i - 1], body[rng.Below(i)]);
  }
  std::string text = head + ":- ";
  for (size_t i = 0; i < body.size(); ++i) {
    text += (i ? ", " : "") + body[i];
  }
  text += ".";
  std::map<std::string, std::string> names;
  const uint32_t tag = rng.Below(1000);
  std::string out;
  for (size_t i = 0; i < text.size();) {
    if (std::isalpha(static_cast<unsigned char>(text[i]))) {
      size_t j = i;
      while (j < text.size() &&
             std::isalnum(static_cast<unsigned char>(text[j]))) {
        ++j;
      }
      const std::string id = text.substr(i, j - i);
      // Relation names start upper-case; "ans" is the head.
      if (id == "ans" || std::isupper(static_cast<unsigned char>(id[0]))) {
        out += id;
      } else {
        auto it = names.find(id);
        if (it == names.end()) {
          it = names
                   .emplace(id, "v" + std::to_string(tag) + "_" +
                                    std::to_string(names.size()))
                   .first;
        }
        out += it->second;
      }
      i = j;
    } else {
      out += text[i++];
    }
  }
  return out;
}

std::vector<uint32_t> RandomRow(int arity, uint32_t n, Rng& rng) {
  std::vector<uint32_t> r(arity);
  for (auto& v : r) v = rng.Below(n);
  return r;
}

// Renames every value v to perm[v] and restores the sorted row order.
void Relabel(const std::vector<uint32_t>& perm, DatabaseData* db) {
  for (TableData& t : db->tables) {
    if (t.arity == 0) continue;
    std::vector<std::vector<uint32_t>> rows;
    for (size_t i = 0; i < t.rows.size(); i += t.arity) {
      std::vector<uint32_t> row(t.arity);
      for (int j = 0; j < t.arity; ++j) row[j] = perm[t.rows[i + j]];
      rows.push_back(std::move(row));
    }
    t = MakeTable(t.name, t.arity, std::move(rows));
  }
}

// shape-mix measures per-request fixed costs across shapes, so its
// database has one structure (from a fixed stream); the run seed permutes
// the values and draws the request stream. With |U| = 100 and ~100-row
// relations, fresh random structure per seed moved single counts by 2x.
WorkloadData ShapeMix(Rng& rng, Size size) {
  const bool full = size == Size::kFull;
  const uint32_t n = full ? 100 : 24;
  const uint32_t base_rows = full ? 120 : 24;
  Rng data(0x5EEDF00DULL);
  DatabaseData db;
  db.name = "mix";
  db.universe = n;
  db.tables.push_back(SocialGraph(n, 4.0, 8, data));
  db.tables.push_back(Unary("Adult", n, 0.5, data));
  // High-arity relations with planted joins: S continues R's suffix, T
  // chains on its last two columns, W extends T and itself, so every
  // Theorem-13 shape has answers.
  std::vector<std::vector<uint32_t>> r, s, t, w;
  for (uint32_t i = 0; i < base_rows; ++i) r.push_back(RandomRow(6, n, data));
  for (uint32_t i = 0; i < base_rows; ++i) t.push_back(RandomRow(4, n, data));
  for (uint32_t i = 0; i < base_rows / 2; ++i) {
    const auto& a = r[data.Below(r.size())];
    s.push_back({a[1], a[2], a[3], a[4], a[5], data.Below(n)});
    const auto b = t[data.Below(base_rows)];  // t grows below.
    t.push_back({b[2], b[3], data.Below(n), data.Below(n)});
    const auto& c = r[data.Below(r.size())];
    t.push_back({c[3], c[4], c[5], data.Below(n)});
    w.push_back({b[1], b[2], b[3], data.Below(n), data.Below(n)});
  }
  for (uint32_t i = 0; i < base_rows / 4; ++i) {
    s.push_back(RandomRow(6, n, data));
    const auto a = w[data.Below(w.size())];
    w.push_back({a[1], a[2], a[3], a[4], data.Below(n)});
  }
  db.tables.push_back(MakeTable("R", 6, std::move(r)));
  db.tables.push_back(MakeTable("S", 6, std::move(s)));
  db.tables.push_back(MakeTable("T", 4, std::move(t)));
  db.tables.push_back(MakeTable("W", 5, std::move(w)));
  db.tables.push_back(Nullary("G", true));
  db.tables.push_back(Nullary("H", false));
  std::vector<uint32_t> perm(n);
  for (uint32_t v = 0; v < n; ++v) perm[v] = v;
  for (uint32_t v = n; v > 1; --v) std::swap(perm[v - 1], perm[rng.Below(v)]);
  Relabel(perm, &db);

  WorkloadData out;
  out.databases.push_back(std::move(db));
  // Every shape appears equally often (so the latency percentiles do not
  // depend on which shapes a seed happens to draw), a quarter of the
  // copies renamed and reordered, so the plan cache sees canonical-shape
  // hits on text it has never seen. The seed shuffles the order.
  const int copies = full ? 12 : 4;
  std::vector<std::string> texts;
  for (const std::string& shape : MixShapes()) {
    for (int k = 0; k < copies; ++k) {
      texts.push_back(k % 4 == 3 ? RenamedCopy(shape, rng) : shape);
    }
  }
  for (size_t i = texts.size(); i > 1; --i) {
    std::swap(texts[i - 1], texts[rng.Below(i)]);
  }
  for (auto& q : texts) out.requests.push_back({"mix", q});
  return out;
}

}  // namespace

const TableData* DatabaseData::Find(const std::string& table) const {
  for (const auto& t : tables) {
    if (t.name == table) return &t;
  }
  return nullptr;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"sampling", "shape-mix",
                                                 "large-db"};
  return names;
}

bool IsWorkload(const std::string& name) {
  const auto& names = WorkloadNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

WorkloadData GenerateWorkload(const std::string& name, uint64_t seed,
                              Size size) {
  uint64_t stream = seed;
  for (unsigned char ch : name) stream = (stream ^ ch) * 0x100000001B3ULL;
  Rng rng(stream);
  if (name == "sampling") return Sampling(rng, size);
  if (name == "shape-mix") return ShapeMix(rng, size);
  if (name == "large-db") return LargeDb(rng, size);
  throw std::invalid_argument("unknown workload " + name);
}

std::string FormatDatabaseText(const DatabaseData& db) {
  std::string out = "universe " + std::to_string(db.universe) + "\n";
  for (const auto& t : db.tables) {
    out += "relation " + t.name + " " + std::to_string(t.arity) + "\n";
    if (t.arity == 0) {
      if (t.nullary_true) out += "()\n";
    } else {
      for (size_t i = 0; i < t.rows.size(); i += t.arity) {
        for (int j = 0; j < t.arity; ++j) {
          out += std::to_string(t.rows[i + j]);
          out += j + 1 < t.arity ? ' ' : '\n';
        }
      }
    }
    out += "end\n";
  }
  return out;
}

}  // namespace perfbench
