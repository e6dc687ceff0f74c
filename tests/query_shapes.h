#ifndef FMMSW_TESTS_QUERY_SHAPES_H_
#define FMMSW_TESTS_QUERY_SHAPES_H_

// The query shapes the Boolean ladder chooser is tested on: acyclic
// paths and stars, the cyclic paper families, and two edge cases (one
// edge; a triangle whose vertices a fourth edge covers, which makes it
// acyclic). Shared by hypergraph_test (IsAcyclic against a
// tree-decomposition reference) and recovery_test (the public path's
// answers and winning rungs).

#include <initializer_list>
#include <string>
#include <vector>

#include "hypergraph/hypergraph.h"
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
  };
}

}  // namespace fmmsw

#endif  // FMMSW_TESTS_QUERY_SHAPES_H_
