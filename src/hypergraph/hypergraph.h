#ifndef FMMSW_HYPERGRAPH_HYPERGRAPH_H_
#define FMMSW_HYPERGRAPH_HYPERGRAPH_H_

/// \file
/// Query hypergraphs (paper Section 3).
///
/// A Boolean conjunctive query Q maps to the hypergraph H = (V, E) with
/// V = vars(Q) and one hyperedge per atom. All width notions (rho*, fhtw,
/// subw, w-subw) and the evaluation engine operate on this type. During
/// variable elimination (Definition 4.1), hypergraphs over a shrinking
/// vertex set arise; `vertices()` tracks the active set while variable
/// indices stay stable, so polymatroids and relations indexed by the
/// original variables remain valid throughout a plan.

#include <string>
#include <vector>

#include "util/varset.h"

namespace fmmsw {

class Hypergraph {
 public:
  Hypergraph() = default;

  /// A hypergraph with `k` vertices named by `names` (optional) and no edges.
  explicit Hypergraph(int k, std::vector<std::string> names = {});

  int num_vars() const { return num_vars_; }
  VarSet vertices() const { return vertices_; }
  const std::vector<VarSet>& edges() const { return edges_; }
  const std::vector<std::string>& names() const { return names_; }

  /// Adds a hyperedge (duplicates are ignored).
  void AddEdge(VarSet e);

  /// \name Neighborhood operators of Section 3 / 4.1.
  /// @{
  /// Indices of hyperedges that intersect X (the set "del_H(X)").
  std::vector<int> IncidentEdges(VarSet x) const;
  /// Union of all hyperedges intersecting X ("U_H(X)").
  VarSet U(VarSet x) const;
  /// U_H(X) minus X ("N_H(X)").
  VarSet N(VarSet x) const;
  /// @}

  /// The hypergraph after eliminating the variable set X (Definition 4.1):
  /// vertices lose X; edges touching X are replaced by the single edge
  /// N_H(X). Vertex indices are preserved.
  Hypergraph Eliminate(VarSet x) const;

  /// True if every pair of active vertices co-occurs in some hyperedge
  /// (Definition C.11 "clustered"); cliques and pyramids qualify, and for
  /// these the w-submodular width reduces to the first elimination (Eq. 40).
  bool IsClustered() const;

  /// One GYO step, in edges() numbering: ear `edge` leaves, and `witness`
  /// holds every vertex it shares with the edges left (-1: it shares none).
  struct Ear {
    int edge;
    int witness;
  };

  /// GYO ear removal, lowest index first, until no ear or one edge is
  /// left. Ears raise no width, so the edges left (Core()) set the cost
  /// of the query; at most one is left iff it is alpha-acyclic (fhtw = 1).
  std::vector<Ear> EarOrder() const;

  /// The edges EarOrder() leaves, in their order, over their vertex union.
  Hypergraph Core() const;

  /// Drops edges strictly contained in other edges (does not change any
  /// width; shrinks EMM enumeration).
  Hypergraph WithoutSubsumedEdges() const;

  std::string ToString() const;

  /// \name The paper's example query classes.
  /// @{
  /// Triangle query, Eq. (2): R(X,Y), S(Y,Z), T(X,Z).
  static Hypergraph Triangle();
  /// The two-triangle query Q_double-triangle, Eq. (3).
  static Hypergraph DoubleTriangle();
  /// k-clique, Eq. (29).
  static Hypergraph Clique(int k);
  /// k-cycle, Eq. (30); Cycle(4) is the 4-cycle query Q_square, Eq. (4).
  static Hypergraph Cycle(int k);
  /// k-pyramid, Eq. (31): edges {Y,X_i} for i in [k] plus {X_1..X_k}.
  /// Variable 0 is the apex Y.
  static Hypergraph Pyramid(int k);
  /// The 5-variable hypergraph of Lemma C.15.
  static Hypergraph LemmaC15();
  /// @}

 private:
  int num_vars_ = 0;
  VarSet vertices_;
  std::vector<VarSet> edges_;
  std::vector<std::string> names_;
};

}  // namespace fmmsw

#endif  // FMMSW_HYPERGRAPH_HYPERGRAPH_H_
