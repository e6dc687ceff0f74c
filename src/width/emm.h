#ifndef FMMSW_WIDTH_EMM_H_
#define FMMSW_WIDTH_EMM_H_

/// \file
/// Enumeration of the matrix-multiplication options for eliminating a
/// variable set (Definition 4.5):
///
///   EMM_H(X) = min over { MM((A\B)\G ; (B\A)\G ; X | G) :
///                A, B subsets of del(X) with A union B = del(X),
///                X inside VA and VB,
///                (VA cap VB) \ X  <=  G  <=  (VA cup VB) \ X },
///
/// where VA/VB are the vertex unions of the hyperedge families A/B.
/// Trivial options (an empty matrix dimension) are excluded, exactly as the
/// paper notes after Definition 4.5.

#include <vector>

#include "hypergraph/hypergraph.h"
#include "width/mm_expr.h"

namespace fmmsw {

/// Hard cap on |del(X)| before enumerating the 3^m covers; incident edge
/// lists are first shrunk by subsumption. A CHECK fires on overflow so a
/// truncated enumeration can never silently change a width.
inline constexpr int kMaxIncidentEdges = 14;

/// All distinct non-trivial MM options for eliminating X from H. The EMM
/// measure is the minimum of MmExpr::Evaluate over this list.
std::vector<MmExpr> EnumerateMmOptions(const Hypergraph& h, VarSet x);

/// EMM_H(X) evaluated on a concrete polymatroid: min over options of the
/// MM measure. Returns false in *defined if there are no options (then X
/// can only be eliminated with for-loops).
Rational EvaluateEmm(const Hypergraph& h, VarSet x, const SetFn<Rational>& hfn,
                     const Rational& gamma, bool* defined);

}  // namespace fmmsw

#endif  // FMMSW_WIDTH_EMM_H_
