#ifndef FMMSW_HYPERGRAPH_DECOMPOSITION_H_
#define FMMSW_HYPERGRAPH_DECOMPOSITION_H_

/// \file
/// Variable elimination orders, generalized elimination orders (GVEOs,
/// Definition 4.1) and tree decompositions (Section 3), plus the
/// enumeration routines the width calculators are built on.

#include <vector>

#include "hypergraph/hypergraph.h"
#include "util/varset.h"

namespace fmmsw {

/// A generalized variable elimination order: an ordered partition
/// (X_1, ..., X_p) of the hypergraph's active vertices. Plain VEOs are the
/// special case of all-singleton blocks.
struct Gveo {
  std::vector<VarSet> blocks;
};

/// One step of the generalized elimination hypergraph sequence: the
/// hypergraph H_i^sigma *before* eliminating block X_i, together with the
/// derived sets of Definition 4.1 and whether Proposition 4.11 requires the
/// step to be costed (U_i not contained in any earlier U_j).
struct EliminationStep {
  Hypergraph before;  ///< H_i^sigma
  VarSet block;       ///< X_i
  VarSet u;           ///< U_i^sigma = union of edges meeting X_i
  VarSet n;           ///< N_i^sigma = U_i minus X_i
  bool required;      ///< false if U_i is contained in some earlier U_j
};

/// Expands a GVEO into its elimination hypergraph sequence.
std::vector<EliminationStep> EliminationSequence(const Hypergraph& h,
                                                 const Gveo& gveo);

/// All plain VEOs (permutations of the active vertices). k! entries.
std::vector<Gveo> AllVeos(const Hypergraph& h);

/// Safety cap on AllGveos: a CHECK fails on overflow, so a truncated
/// enumeration can never silently produce a wrong width.
inline constexpr int kMaxGveos = 1000000;

/// All GVEOs (ordered set partitions of the active vertices). These grow as
/// the Fubini numbers (75 for k=4, 541 for k=5, 4683 for k=6), at most
/// kMaxGveos of them.
std::vector<Gveo> AllGveos(const Hypergraph& h);

/// A tree decomposition represented by its bag sets. For width computation
/// only the bags matter; `TreeEdges` recovers a join tree when one is
/// needed for evaluation.
struct TreeDecomposition {
  std::vector<VarSet> bags;
};

/// Returns a join-tree edge list (pairs of bag indices) realizing the
/// running-intersection property, built as a maximum spanning tree on bag
/// intersections (valid for every TD produced by EnumerateTds).
std::vector<std::pair<int, int>> TreeEdges(const TreeDecomposition& td);

/// Checks the TD axioms: edge coverage and running intersection (via the
/// maximum-spanning-tree characterization of junction trees).
bool IsValidTd(const Hypergraph& h, const TreeDecomposition& td);

/// Enumerates the non-redundant tree decompositions arising from all VEOs
/// (by Proposition 3.1 these dominate all TDs for width purposes), then
/// prunes decompositions dominated bag-wise by another. The result is the
/// small canonical set used by the subw LPs (e.g. the two TDs of the
/// 4-cycle, Example A.2).
std::vector<TreeDecomposition> EnumerateTds(const Hypergraph& h);

}  // namespace fmmsw

#endif  // FMMSW_HYPERGRAPH_DECOMPOSITION_H_
