#ifndef FMMSW_CORE_API_H_
#define FMMSW_CORE_API_H_

/// \file
/// Public facade of the fmmsw library. A downstream user needs three
/// things: (1) define a Boolean conjunctive query as a hypergraph plus a
/// database, (2) ask for its widths (subw / w-subw, Tables 1-2), and
/// (3) evaluate it, through the status-returning entry points below or
/// by calling an engine directly (engine/wcoj.h, engine/td_eval.h,
/// engine/triangle.h, ...). See examples/quickstart.cpp.

#include <string>

#include "core/exec_context.h"
#include "core/recovery.h"
#include "hypergraph/hypergraph.h"
#include "relation/relation.h"
#include "util/rational.h"
#include "width/omega_subw.h"
#include "width/subw.h"

namespace fmmsw {

/// Width report for a query at a given MM exponent.
struct WidthReport {
  Rational rho_star;
  Rational fhtw;
  Rational subw;
  Rational omega_subw_lower;
  Rational omega_subw_upper;
  bool omega_subw_exact = false;
  int num_mm_terms = 0;
  long lps_solved = 0;
  long lp_warm_starts = 0;   ///< LPs that replayed a previous basis
  long lp_pivots = 0;        ///< total simplex pivots across all width LPs
  int64_t plan_ns = 0;       ///< wall time spent planning (all widths)
  bool from_cache = false;   ///< w-subw served by the process WidthCache
};

/// Computes every width of the query hypergraph at the given omega.
/// For clustered hypergraphs (cliques, pyramids, Lemma C.15) the w-subw is
/// exact; otherwise certified bounds are returned (add witnesses via
/// OmegaSubwOptions to tighten the lower bound).
/// `ctx` (nullptr = process default) supplies the planner thread pool,
/// the guardrail polled between LP solves, and the planner ExecStats
/// counters; results are identical at every thread count.
WidthReport ComputeWidths(const Hypergraph& h, const Rational& omega,
                          const OmegaSubwOptions& opts = {},
                          ExecContext* ctx = nullptr);

/// Renders the report as a human-readable table.
std::string FormatWidthReport(const Hypergraph& h, const Rational& omega,
                              const WidthReport& report);

/// Structural validation of a (query, database) pair: one relation per
/// hyperedge, each relation's schema equal to its edge's variable set,
/// and every edge variable inside the hypergraph's vertex range. Returns
/// kOk or kInvalidArgument with a message naming the first mismatch.
/// The status-returning entry points below run this before touching the
/// engines; call it directly to validate inputs without evaluating.
ExecResult ValidateQuery(const Hypergraph& h, const QueryInput& db);

/// \name Status-returning evaluation
/// The one status-returning evaluation path: ValidateQuery (on failure
/// nothing runs), then RunWithRecovery (core/recovery.h) over the
/// query's degradation ladder from the engine/strategy.h cards — for the
/// canonical triangle, one MM rung then WCOJ: the bit-sliced counting
/// product (count) or the Figure-1 split over the bit-packed Boolean
/// product (Boolean). Each Boolean rung first removes the query's ears
/// (ReduceEars, a linear semijoin pass that answers an alpha-acyclic
/// query outright), and the ladder follows the shape of the cyclic core
/// left (BooleanLadderFor): the triangle ladder above for a triangle
/// core, WCOJ alone otherwise. Count and join run WCOJ alone (join onto
/// `output_vars`, canonically sorted).
/// Each rung runs under `limits` via RunGuarded; a retryable abort falls
/// through to the next rung, a terminal one is returned. The answer is
/// bit-identical to a clean run of the winning rung at every thread
/// count. On any non-kOk status the output is untouched and the context
/// immediately reusable. `report`, when non-null, records the walk. To
/// guard one engine without a ladder, wrap it in RunGuarded.
/// @{
ExecResult EvaluateBooleanWithRecovery(
    const Hypergraph& h, const QueryInput& db, bool* result,
    ExecContext* ctx = nullptr, const QueryLimits& limits = {},
    const RetryPolicy& policy = {}, RecoveryReport* report = nullptr);
ExecResult EvaluateCountWithRecovery(
    const Hypergraph& h, const QueryInput& db, int64_t* count,
    ExecContext* ctx = nullptr, const QueryLimits& limits = {},
    const RetryPolicy& policy = {}, RecoveryReport* report = nullptr);
ExecResult EvaluateJoinWithRecovery(
    const Hypergraph& h, const QueryInput& db, VarSet output_vars,
    Relation* result, ExecContext* ctx = nullptr,
    const QueryLimits& limits = {}, const RetryPolicy& policy = {},
    RecoveryReport* report = nullptr);
/// @}

}  // namespace fmmsw

#endif  // FMMSW_CORE_API_H_
