#include "query/query_structures.h"

#include <cassert>
#include <cmath>
#include <functional>
#include <set>

namespace cqcount {

std::string NegatedRelationName(const std::string& relation) {
  return "~" + relation;
}

Structure BuildStructureA(const Query& q) {
  Structure a(static_cast<uint32_t>(q.num_vars()));
  for (const Atom& atom : q.atoms()) {
    const std::string name =
        atom.negated ? NegatedRelationName(atom.relation) : atom.relation;
    Status s = a.DeclareRelation(name, static_cast<int>(atom.vars.size()));
    assert(s.ok());
    Tuple t;
    t.reserve(atom.vars.size());
    for (int v : atom.vars) t.push_back(static_cast<Value>(v));
    s = a.AddFact(name, std::move(t));
    assert(s.ok());
    (void)s;
  }
  a.Canonicalize();
  return a;
}

StatusOr<Structure> BuildStructureB(const Query& q, const Database& db,
                                    uint64_t max_complement_tuples) {
  Structure b(db.universe_size());
  const uint64_t n = db.universe_size();
  for (const Atom& atom : q.atoms()) {
    const int arity = static_cast<int>(atom.vars.size());
    if (!atom.negated) {
      Status s = b.DeclareRelation(atom.relation, arity);
      if (!s.ok()) return s;
      if (b.relation(atom.relation).empty()) {
        for (TupleView t : db.relation(atom.relation)) {
          s = b.AddFact(atom.relation, MaterializeTuple(t));
          if (!s.ok()) return s;
        }
      }
      continue;
    }
    // Complement relation ~R = U(D)^arity \ R^D.
    const std::string name = NegatedRelationName(atom.relation);
    if (b.HasRelation(name)) continue;
    uint64_t total = 1;
    for (int i = 0; i < arity; ++i) {
      total *= n;
      if (total > max_complement_tuples) {
        return Status::ResourceExhausted(
            "complement relation too large to materialise: " + name);
      }
    }
    Status s = b.DeclareRelation(name, arity);
    if (!s.ok()) return s;
    const Relation& pos = db.relation(atom.relation);
    Tuple t(arity, 0);
    std::function<Status(int)> enumerate = [&](int pos_idx) -> Status {
      if (pos_idx == arity) {
        if (!pos.Contains(t)) return b.AddFact(name, t);
        return Status::Ok();
      }
      for (Value v = 0; v < n; ++v) {
        t[pos_idx] = v;
        Status st = enumerate(pos_idx + 1);
        if (!st.ok()) return st;
      }
      return Status::Ok();
    };
    s = enumerate(0);
    if (!s.ok()) return s;
  }
  b.Canonicalize();
  return b;
}

Structure BuildStructureAHat(const Query& q) {
  Structure a_hat = BuildStructureA(q);
  for (int v = 0; v < q.num_vars(); ++v) {
    const std::string name = "P_" + std::to_string(v);
    Status s = a_hat.DeclareRelation(name, 1);
    assert(s.ok());
    s = a_hat.AddFact(name, {static_cast<Value>(v)});
    assert(s.ok());
    (void)s;
  }
  for (size_t k = 0; k < q.disequalities().size(); ++k) {
    const Disequality& d = q.disequalities()[k];
    const std::string red = "Rneq_" + std::to_string(k);
    const std::string blue = "Bneq_" + std::to_string(k);
    Status s = a_hat.DeclareRelation(red, 1);
    assert(s.ok());
    s = a_hat.AddFact(red, {static_cast<Value>(d.lhs)});
    assert(s.ok());
    s = a_hat.DeclareRelation(blue, 1);
    assert(s.ok());
    s = a_hat.AddFact(blue, {static_cast<Value>(d.rhs)});
    assert(s.ok());
    (void)s;
  }
  a_hat.Canonicalize();
  return a_hat;
}

StatusOr<Structure> BuildStructureBHat(const Query& q, const Database& db,
                                       const PartiteParts& parts,
                                       const ColouringFamily& colouring,
                                       uint64_t max_tuples) {
  const uint32_t n = db.universe_size();
  const int num_vars = q.num_vars();
  const int num_free = q.num_free();
  assert(static_cast<int>(parts.size()) == num_free);
  assert(colouring.size() == q.disequalities().size());

  // Membership of (value w, position i) in S_i.
  auto in_s = [&](Value w, int i) {
    if (i < num_free) return parts[i].Test(w);
    return true;  // Existential positions use all of U(D).
  };
  auto encode = [&](Value w, int i) {
    return static_cast<Value>(static_cast<uint64_t>(i) * n + w);
  };

  Structure b_hat(static_cast<uint32_t>(static_cast<uint64_t>(num_vars) * n));

  // Base relations, position-annotated (Definition 28, second bullet).
  auto b_or = BuildStructureB(q, db, max_tuples);
  if (!b_or.ok()) return b_or.status();
  const Structure& b = *b_or;
  uint64_t emitted = 0;
  for (const std::string& name : b.RelationNames()) {
    const Relation& rel = b.relation(name);
    const int arity = rel.arity();
    Status s = b_hat.DeclareRelation(name, arity);
    if (!s.ok()) return s;
    // For each base tuple, all annotations (i_1..i_a) with every component
    // in U(B-hat).
    std::vector<int> positions(arity, 0);
    for (TupleView view : rel) {
      const Tuple t = MaterializeTuple(view);
      std::function<Status(int)> annotate = [&](int idx) -> Status {
        if (idx == arity) {
          Tuple annotated(arity);
          for (int j = 0; j < arity; ++j) {
            annotated[j] = encode(t[j], positions[j]);
          }
          if (++emitted > max_tuples) {
            return Status::ResourceExhausted("B-hat too large to materialise");
          }
          return b_hat.AddFact(name, std::move(annotated));
        }
        for (int i = 0; i < num_vars; ++i) {
          if (!in_s(t[idx], i)) continue;
          positions[idx] = i;
          Status st = annotate(idx + 1);
          if (!st.ok()) return st;
        }
        return Status::Ok();
      };
      Status st = annotate(0);
      if (!st.ok()) return st;
    }
  }

  // Unary position relations P_i = S_i.
  for (int i = 0; i < num_vars; ++i) {
    const std::string name = "P_" + std::to_string(i);
    Status s = b_hat.DeclareRelation(name, 1);
    if (!s.ok()) return s;
    for (Value w = 0; w < n; ++w) {
      if (!in_s(w, i)) continue;
      s = b_hat.AddFact(name, {encode(w, i)});
      if (!s.ok()) return s;
    }
  }

  // Colour relations over all of U(B-hat) (Definition 28, last bullet).
  for (size_t k = 0; k < colouring.size(); ++k) {
    const std::string red = "Rneq_" + std::to_string(k);
    const std::string blue = "Bneq_" + std::to_string(k);
    Status s = b_hat.DeclareRelation(red, 1);
    if (!s.ok()) return s;
    s = b_hat.DeclareRelation(blue, 1);
    if (!s.ok()) return s;
    assert(colouring[k].size() == n);
    for (int i = 0; i < num_vars; ++i) {
      for (Value w = 0; w < n; ++w) {
        if (!in_s(w, i)) continue;
        s = b_hat.AddFact(colouring[k].Test(w) ? red : blue, {encode(w, i)});
        if (!s.ok()) return s;
      }
    }
  }
  b_hat.Canonicalize();
  return b_hat;
}

Query CanonicalQuery(const Structure& a) {
  Query q;
  for (uint32_t v = 0; v < a.universe_size(); ++v) {
    std::string name = "u";
    name += std::to_string(v);
    q.AddVariable(name);
  }
  q.SetNumFree(static_cast<int>(a.universe_size()));
  for (const std::string& name : a.RelationNames()) {
    for (TupleView t : a.relation(name)) {
      Atom atom;
      atom.relation = name;
      for (Value v : t) atom.vars.push_back(static_cast<int>(v));
      q.AddAtom(std::move(atom));
    }
  }
  return q;
}

}  // namespace cqcount
