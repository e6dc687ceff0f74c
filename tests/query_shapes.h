#ifndef FMMSW_TESTS_QUERY_SHAPES_H_
#define FMMSW_TESTS_QUERY_SHAPES_H_

// The query shapes the Boolean ladder chooser is tested on: acyclic
// paths and stars, the cyclic paper families, a triangle with a path
// hanging off it, and three edge cases (one edge; two components; a
// triangle whose vertices a fourth edge covers, which makes it acyclic).
// Also the negative instances of bench_exponents' pendant, 4-cycle and
// pyramid families: each leaves every variable a candidate, so the
// generic join meets the obstruction only below its first level.
// Shared by hypergraph_test (ear removal against a tree-decomposition
// reference), recovery_test (the public path's answers and winning
// rungs), wcoj_order_test (the instances against the nested-loop oracle)
// and bench_exponents.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "relation/generators.h"
#include "relation/relation.h"
#include "util/random.h"
#include "util/varset.h"

namespace fmmsw {

struct QueryShape {
  std::string name;
  Hypergraph h;
  bool acyclic;
};

inline Hypergraph FromEdges(int k, std::initializer_list<VarSet> edges) {
  Hypergraph h(k);
  for (VarSet e : edges) h.AddEdge(e);
  return h;
}

/// k binary edges {i, i+1} over k+1 variables.
inline Hypergraph PathQuery(int k) {
  Hypergraph h(k + 1);
  for (int i = 0; i < k; ++i) h.AddEdge({i, i + 1});
  return h;
}

/// k binary edges {0, i}: centre variable 0.
inline Hypergraph StarQuery(int k) {
  Hypergraph h(k + 1);
  for (int i = 1; i <= k; ++i) h.AddEdge({0, i});
  return h;
}

/// Hypergraph::Triangle()'s edges, then the path Z - X3 - X4 off Z.
inline Hypergraph TrianglePendantQuery() {
  return FromEdges(5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}});
}

/// A negative instance of TrianglePendantQuery(): n triangles (i, i, 0)
/// through Z = 0, then U(Z,X3) = {(0, 2i), (1, 2i+1)} and
/// V(X3,X4) = {(2i+1, 0)}. Every variable has a candidate (X3 the odd
/// values U and V share), but only Z = 1 reaches them, and no triangle
/// passes Z = 1. A join that reaches X3 through the triangles pairs each
/// of them with all of U(0, .): n^2 work, where semijoining V into U and
/// U into the triangle answers in O(n).
inline QueryInput TrianglePendantNegative(int64_t n) {
  std::vector<Relation> rels = {Relation(VarSet{0, 1}), Relation(VarSet{1, 2}),
                                Relation(VarSet{0, 2}), Relation(VarSet{2, 3}),
                                Relation(VarSet{3, 4})};
  for (Value i = 0; i < n; ++i) {
    rels[0].Add({i, i});
    rels[1].Add({i, 0});
    rels[2].Add({i, 0});
    rels[3].Add({0, 2 * i});
    rels[3].Add({1, 2 * i + 1});
    rels[4].Add({2 * i + 1, 0});
  }
  QueryInput db;
  for (Relation& r : rels) {
    r.SortAndDedupe();
    db.relations.push_back(std::move(r));
  }
  return db;
}

/// A negative 4-cycle instance on Hypergraph::Cycle(4), R(X,Y), S(Y,Z),
/// T(Z,W), U(X,W). Section 1.1.1's motivation for data partitioning: half
/// of R and S meets a single heavy y* (the single-TD plan materializes
/// their join), half lives on a sqrt(n) dense square (real work for the
/// light side); T and U mirror this on w*. Each drawn pair (a, b) is
/// stored as (2a + p, 2b + q) for a random bit p: q = p in R, S and T and
/// q = 1 - p in U, so X, Y, Z and W share one parity around R, S, T while
/// U needs X and W to differ. No cycle closes, yet every value of both
/// parities is a candidate.
inline QueryInput FourCycleInstance(int64_t n) {
  const int64_t d = std::max<int64_t>(
      4, static_cast<int64_t>(std::sqrt(static_cast<double>(n))));
  Rng rng(23);
  auto side = [&](VarSet schema, int star_col, Value star_value,
                  bool differ) {
    Relation out(schema);
    const auto add = [&](Value a, Value b) {
      const Value p = static_cast<Value>(rng.Uniform(0, 1));
      out.Add({2 * a + p, 2 * b + (differ ? 1 - p : p)});
    };
    for (int64_t i = 0; i < n / 2; ++i) {  // star half
      const Value a = static_cast<Value>(rng.Uniform(0, d - 1));
      if (star_col == 0) {
        add(star_value, a);
      } else {
        add(a, star_value);
      }
    }
    for (int64_t i = 0; i < n / 2; ++i) {  // dense-square half
      add(static_cast<Value>(rng.Uniform(0, d - 1)),
          static_cast<Value>(rng.Uniform(0, d - 1)));
    }
    out.SortAndDedupe();
    return out;
  };
  const Value star_y = static_cast<Value>(d + 1);
  const Value star_w = static_cast<Value>(d + 2);
  QueryInput db;
  // R(X,Y) and S(Y,Z): stars on y*. T(Z,W) and U(X,W): stars on w*.
  db.relations.push_back(side(VarSet{0, 1}, 1, star_y, false));
  db.relations.push_back(side(VarSet{1, 2}, 0, star_y, false));
  db.relations.push_back(side(VarSet{2, 3}, 1, star_w, false));
  db.relations.push_back(side(VarSet{0, 3}, 1, star_w, true));
  return db;
}

/// A negative instance of Hypergraph::Pyramid(3) in Lemma C.13's heavy
/// regime: apex X0 over R1(X0,X1), R2(X0,X2), R3(X0,X3), base B(X1,X2,X3),
/// each drawn uniformly over d = n^0.4 values, so the MM elimination
/// (case 3) carries the work. R1, R2 and R3 keep the pairs of equal
/// parity and B the triples whose X1 and X3 differ in parity, so no
/// pyramid closes, while every value of every variable stays a candidate.
/// The generic join meets the obstruction once X0, X1 and X2 are bound.
inline QueryInput PyramidInstance(int64_t n) {
  const int64_t d = std::max<int64_t>(
      4, static_cast<int64_t>(std::pow(static_cast<double>(n), 0.4)));
  Rng rng(37);
  // Keeps the rows whose columns `a` and `b` have parities that differ
  // (or agree).
  const auto keep = [](const Relation& raw, int a, int b, bool differ) {
    Relation out(raw.schema());
    for (size_t i = 0; i < raw.size(); ++i) {
      if ((((raw.Row(i)[a] + raw.Row(i)[b]) & 1) == 1) == differ) {
        out.AddRow(raw.Row(i));
      }
    }
    return out;
  };
  QueryInput db;
  for (VarSet schema : {VarSet{0, 1}, VarSet{0, 2}, VarSet{0, 3}}) {
    db.relations.push_back(
        keep(UniformRelation(schema, n, d, &rng), 0, 1, false));
  }
  db.relations.push_back(
      keep(UniformRelation(VarSet{1, 2, 3}, n, d, &rng), 0, 2, true));
  return db;
}

inline std::vector<QueryShape> QueryShapeTable() {
  return {
      {"path3", PathQuery(3), true},
      {"path4", PathQuery(4), true},
      {"star4", StarQuery(4), true},
      {"one_edge", FromEdges(2, {{0, 1}}), true},
      {"covered_triangle", FromEdges(3, {{0, 1}, {1, 2}, {0, 2}, {0, 1, 2}}),
       true},
      {"cycle4", Hypergraph::Cycle(4), false},
      {"cycle5", Hypergraph::Cycle(5), false},
      {"clique4", Hypergraph::Clique(4), false},
      {"pyramid3", Hypergraph::Pyramid(3), false},
      {"double_triangle", Hypergraph::DoubleTriangle(), false},
      {"lemma_c15", Hypergraph::LemmaC15(), false},
      {"triangle_pendant", TrianglePendantQuery(), false},
      {"two_components", FromEdges(4, {{0, 1}, {2, 3}}), true},
  };
}

}  // namespace fmmsw

#endif  // FMMSW_TESTS_QUERY_SHAPES_H_
