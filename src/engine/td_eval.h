#ifndef FMMSW_ENGINE_TD_EVAL_H_
#define FMMSW_ENGINE_TD_EVAL_H_

/// \file
/// Yannakakis' semijoin pass along GYO ear removal (ReduceEars), O(N) on
/// an alpha-acyclic query, and tree-decomposition evaluation (Section
/// 1.1.1): TdBoolean solves each bag with the worst-case optimal join and
/// reduces the bags' ears, in O(N^{fhtw}) for the best TD; the
/// submodular-width algorithms run one TD per degree configuration instead.

#include "hypergraph/decomposition.h"
#include "hypergraph/hypergraph.h"
#include "relation/relation.h"

namespace fmmsw {

class ExecContext;

/// Semijoins every ear of Hypergraph::EarOrder() into its witness, in
/// that order, polling FaultSite::kOps once per ear. Returns false as
/// soon as a relation is empty: the query is then false. Otherwise
/// `*core` is h.Core() and `*core_db` its relations, reduced and shared
/// by pointer (a query with no ears passes through unchanged), and a
/// core of at most one edge answers true. An alpha-acyclic query's last
/// ear only probes its witness for one match and leaves no edge.
bool ReduceEars(const Hypergraph& h, const QueryInput& db, Hypergraph* core,
                QueryInput* core_db, ExecContext* ctx = nullptr);

/// Evaluates the Boolean query along the given TD: materializes each bag
/// via WCOJ (using only relations intersecting the bag, semijoin-reduced to
/// it), then runs ReduceEars over the bags, which reduce to one edge.
bool TdBoolean(const Hypergraph& h, const QueryInput& db,
               const TreeDecomposition& td, ExecContext* ctx = nullptr);

/// Picks the minimum-fhtw TD and evaluates along it.
bool TdBooleanBest(const Hypergraph& h, const QueryInput& db,
                   ExecContext* ctx = nullptr);

}  // namespace fmmsw

#endif  // FMMSW_ENGINE_TD_EVAL_H_
