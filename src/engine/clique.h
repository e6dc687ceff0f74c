#ifndef FMMSW_ENGINE_CLIQUE_H_
#define FMMSW_ENGINE_CLIQUE_H_

/// \file
/// k-clique detection (Table 1 rows 2-5; Lemmas C.6-C.8): the vertex set is
/// split into three groups A, B, C of sizes ceil(k/3), ceil((k-1)/3),
/// floor(k/3); group sub-cliques are enumerated with the combinatorial
/// join (WcojBoolean(Hypergraph::Clique(k), ...) is the O(N^{k/2})
/// baseline), and a matrix product over (A-cliques) x (B-cliques) x (C-cliques)
/// detects a full clique — the Nesetril-Poljak / Eisenbrand-Grandoni
/// scheme realized through square MM, matching the paper's exponent
/// ceil(k/3)/2 + ceil((k-1)/3)/2 + floor(k/3)/2 * (w - 2).
///
/// The database layout follows Hypergraph::Clique(k): one relation per
/// vertex pair (i, j), i < j, in lexicographic order.

#include "relation/relation.h"

namespace fmmsw {

class ExecContext;

struct CliqueStats {
  int64_t group_cliques[3] = {0, 0, 0};  ///< matrix dimensions
};

/// MM-based detection via the 3-group split.
bool CliqueMm(int k, const QueryInput& db, CliqueStats* stats = nullptr,
              ExecContext* ctx = nullptr);

}  // namespace fmmsw

#endif  // FMMSW_ENGINE_CLIQUE_H_
