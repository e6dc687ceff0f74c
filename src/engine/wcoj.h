#ifndef FMMSW_ENGINE_WCOJ_H_
#define FMMSW_ENGINE_WCOJ_H_

/// \file
/// Worst-case optimal join ("for-loops", Section 1.1.1): a GenericJoin-
/// style backtracking search that instantiates variables one at a time,
/// intersecting the candidate values from every relation covering the
/// variable. Runs in O(N^{rho*(Q)}) data complexity and is the
/// combinatorial building block for bag evaluation inside TD plans.
///
/// Variable order: a run given no explicit order takes WcojOrder's, read
/// from the relations' per-column value sets (Relation::value_sets; each
/// catalog version keeps its own, and a relation that arrives without
/// them gets per-query sets, charged before allocation and freed before
/// the tries are built). A variable's candidate count is the popcount of
/// the AND of its columns' sets. If some variable has none, the run ends
/// before any trie is built (false / 0 / an empty relation); otherwise
/// variables are bound fewest candidates first. The order depends on the
/// data alone, so results stay identical for every thread count.
///
/// Parallel execution: when the context's pool has more than one thread,
/// the first variable's candidate runs are expanded into tasks and
/// partitioned across the pool. Each worker recurses with its own range
/// stacks over the shared read-only tries; outputs are merged in task
/// order (and WcojJoin canonically sorts), so results are identical for
/// every thread count.
///
/// Candidate bitmaps: a relation whose prefix runs (rows agreeing on all
/// but the last column) satisfy runs x words <= rows, over its last
/// variable's value window, gets one bitmap per run (charged to the
/// query's memory budget with the tries). Each binding that completes
/// such a relation's prefix ANDs the run's bitmap into the last
/// variable's candidate mask, one mask frame per depth, and is pruned at
/// once if a mask empties; at the variable's own depth the mask's set
/// bits are its candidates, in the ascending order the sorted levels
/// give, so results and emission order are unchanged.
///
/// Dense top level: a relation whose first variable is not the first of
/// the order, and whose first-column window [lo, hi] has
/// hi - lo + 1 <= rows, gets an offset array (at most 4 bytes per row
/// plus 4, charged with the tries before allocation), so each top-level
/// probe is one array read instead of a gallop from row 0. Relations
/// holding the first variable are walked once per value by a forward
/// cursor, which is already linear, and keep their sorted top level.

#include "hypergraph/hypergraph.h"
#include "relation/relation.h"

namespace fmmsw {

class ExecContext;

/// The order a run given no explicit order binds `h`'s variables in: the
/// variable with the fewest candidates first, then, repeatedly, the
/// unbound variable with the fewest candidates among those sharing a
/// relation with a bound one (among all unbound ones if none does), ties
/// going to the lower index. A variable no kept value set covers counts
/// as unconstrained, after every finite count. A variable with no
/// candidate therefore comes first, and the runs stop there.
std::vector<int> WcojOrder(const Hypergraph& h, const QueryInput& db,
                           ExecContext* ctx = nullptr);

/// Evaluates the Boolean query: is the full natural join non-empty?
bool WcojBoolean(const Hypergraph& h, const QueryInput& db,
                 ExecContext* ctx = nullptr);

/// Computes the full join result projected onto `output_vars` (pass the
/// full vertex set for the complete join). Variables are instantiated in
/// WcojOrder's order, or exactly in `order` when it is given (no
/// candidate check then). Output is canonically sorted and deduplicated.
Relation WcojJoin(const Hypergraph& h, const QueryInput& db, VarSet output_vars,
                  const std::vector<int>* order = nullptr,
                  ExecContext* ctx = nullptr);

/// Counts the tuples of the full join without materializing projections.
int64_t WcojCount(const Hypergraph& h, const QueryInput& db,
                  ExecContext* ctx = nullptr);

/// Adds `rel` as the relation of edge `schema` to a query being assembled
/// edge by edge (`rels` aligned with `h->edges()`). Hypergraph::AddEdge
/// drops duplicate edges, so a schema already present is instead
/// Intersected into that edge's relation. A linear scan over the edges.
void AddBySchema(Hypergraph* h, RelationList* rels, VarSet schema,
                 RelationPtr rel, ExecContext* ctx);

}  // namespace fmmsw

#endif  // FMMSW_ENGINE_WCOJ_H_
