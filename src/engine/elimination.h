#ifndef FMMSW_ENGINE_ELIMINATION_H_
#define FMMSW_ENGINE_ELIMINATION_H_

/// \file
/// The w-query-plan interpreter (Definition E.12): executes a generalized
/// variable elimination order where each block is eliminated either by a
/// for-loop join (WCOJ over the incident relations, then projecting the
/// block away) or by a matrix multiplication MM((A\B)\G; (B\A)\G; X | G)
/// over a chosen cover of the incident relations (Definition 4.5, executed
/// as in Appendix E.6: group by G, multiply Boolean matrices indexed by the
/// block values, keep non-zero entries). The state holds relation
/// versions by pointer, starting from the input's own: a step shares the
/// edges it does not touch and never copies an input.

#include <string>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "relation/relation.h"
#include "width/mm_expr.h"

namespace fmmsw {

class ExecContext;

enum class StepMethod {
  kForLoop,  ///< join incident relations, project the block away
  kMm,       ///< matrix multiplication per the step's MmExpr
};

struct PlanStep {
  VarSet block;
  StepMethod method = StepMethod::kForLoop;
  /// For kMm: the option to execute; mm.z must equal `block`.
  MmExpr mm;
};

struct EliminationPlan {
  std::vector<PlanStep> steps;
};

/// Empty: every MM step runs the one Boolean IndicatorProduct, so there is
/// nothing left to choose. The struct stays only because callers outside
/// the library pass `{}` in ExecutePlan's options position.
struct EliminationOptions {};

struct EliminationStats {
  int64_t forloop_steps = 0;
  int64_t mm_steps = 0;
  int64_t mm_cells = 0;         ///< total matrix cells multiplied
  int64_t intermediate_tuples = 0;
};

/// Builds the all-singleton for-loop plan (equivalent to plain variable
/// elimination, i.e. a TD plan).
EliminationPlan ForLoopPlan(const Hypergraph& h,
                            const std::vector<int>* order = nullptr);

/// Executes the plan on the database; returns the Boolean answer. The plan
/// must eliminate every vertex of `h`. CHECKs that each MM step's
/// expression is valid for the hypergraph state it executes against.
bool ExecutePlan(const Hypergraph& h, const QueryInput& db,
                 const EliminationPlan& plan,
                 const EliminationOptions& opts = {},
                 EliminationStats* stats = nullptr,
                 ExecContext* ctx = nullptr);

}  // namespace fmmsw

#endif  // FMMSW_ENGINE_ELIMINATION_H_
