#ifndef FMMSW_PANDA_EXECUTOR_H_
#define FMMSW_PANDA_EXECUTOR_H_

/// \file
/// The proof-sequence -> database-operation executor (Theorem E.10 /
/// Figure 1): decompositions become degree partitions (heavy unary table +
/// light table), compositions become joins, monotonicities projections,
/// submodularities re-conditionings; terminal plain-LHS tables are checked
/// against the atoms and the terminal MM group is executed as a matrix
/// multiplication over the heavy tables.
///
/// Scope: the executor runs sequences over binary atoms whose MM groups
/// align with atoms (the class covering the paper's worked examples —
/// Figure 1 in particular). PandaTriangleBoolean is the end-to-end
/// instantiation: it *derives* the Figure-1 algorithm from
/// TriangleInequality + TriangleProofSequence instead of hard-coding it.
///
/// Tables are shared relation versions: the input atoms and re-conditioned
/// (submodularity) tables are held by pointer, and only partitions, joins
/// and projections build new relations.

#include "hypergraph/hypergraph.h"
#include "panda/proof.h"
#include "relation/relation.h"

namespace fmmsw {

class ExecContext;

struct PandaStats {
  int64_t partitions = 0;
  int64_t joins = 0;
  int64_t plain_tables = 0;
  int64_t mm_executed = 0;
};

/// Executes the proof sequence for the inequality on the database.
/// `threshold` is the heavy/light degree threshold Delta (Figure 1 uses
/// Delta = N^{(w-1)/(w+1)}). Returns the Boolean query answer.
bool ExecuteProofSequence(const Hypergraph& h, const QueryInput& db,
                          const OmegaShannonInequality& ineq,
                          const ProofSequence& seq, int64_t threshold,
                          PandaStats* stats = nullptr,
                          ExecContext* ctx = nullptr);

/// End-to-end: the Figure-1 triangle algorithm derived from its proof
/// sequence.
bool PandaTriangleBoolean(const QueryInput& db, double omega,
                          PandaStats* stats = nullptr,
                          ExecContext* ctx = nullptr);

}  // namespace fmmsw

#endif  // FMMSW_PANDA_EXECUTOR_H_
