#ifndef FMMSW_TESTS_QUERY_SHAPES_H_
#define FMMSW_TESTS_QUERY_SHAPES_H_

// The query shapes the Boolean ladder chooser is tested on: acyclic
// paths and stars, the cyclic paper families, a triangle with a path
// hanging off it, and three edge cases (one edge; two components; a
// triangle whose vertices a fourth edge covers, which makes it acyclic).
// Shared by hypergraph_test (ear removal against a tree-decomposition
// reference), recovery_test (the public path's answers and winning
// rungs) and bench_exponents (the pendant family's instance).

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "relation/relation.h"
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
/// through Z = 0, then U(Z,X3) = {(0, 2i)} and V(X3,X4) = {(2i+1, 0)}.
/// No X3 value of U is in V, yet a join that reaches X3 through the
/// triangles pairs each of them with all of U: n^2 work, where
/// semijoining V into U answers in O(n).
inline QueryInput TrianglePendantNegative(int64_t n) {
  std::vector<Relation> rels = {Relation(VarSet{0, 1}), Relation(VarSet{1, 2}),
                                Relation(VarSet{0, 2}), Relation(VarSet{2, 3}),
                                Relation(VarSet{3, 4})};
  for (Value i = 0; i < n; ++i) {
    rels[0].Add({i, i});
    rels[1].Add({i, 0});
    rels[2].Add({i, 0});
    rels[3].Add({0, 2 * i});
    rels[4].Add({2 * i + 1, 0});
  }
  QueryInput db;
  for (Relation& r : rels) {
    r.SortAndDedupe();
    db.relations.push_back(std::move(r));
  }
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
