#include "core/api.h"

#include <chrono>
#include <utility>

#include "engine/strategy.h"
#include "engine/td_eval.h"
#include "engine/triangle.h"
#include "engine/wcoj.h"

namespace fmmsw {

WidthReport ComputeWidths(const Hypergraph& h, const Rational& omega,
                          const OmegaSubwOptions& opts, ExecContext* ctx) {
  ExecContext& ec = ExecContext::Resolve(ctx);
  const auto t0 = std::chrono::steady_clock::now();
  WidthReport out;
  out.rho_star = RhoStar(h, &ec);
  out.fhtw = Fhtw(h, &ec);
  auto subw = SubmodularWidth(h, &ec);
  out.subw = subw.value;
  out.lps_solved += subw.lps_solved;
  out.lp_warm_starts += subw.lp_warm_starts;
  out.lp_pivots += subw.lp_pivots;
  auto osubw = OmegaSubw(h, omega, opts, &ec);
  out.omega_subw_lower = osubw.lower;
  out.omega_subw_upper = osubw.upper;
  out.omega_subw_exact = osubw.exact;
  out.num_mm_terms = osubw.num_mm_terms;
  out.lps_solved += osubw.lps_solved;
  out.lp_warm_starts += osubw.lp_warm_starts;
  out.lp_pivots += osubw.lp_pivots;
  out.from_cache = osubw.from_cache;
  out.plan_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return out;
}

std::string FormatWidthReport(const Hypergraph& h, const Rational& omega,
                              const WidthReport& r) {
  std::string out;
  out += "query      : " + h.ToString() + "\n";
  out += "omega      : " + omega.ToString() + " (~" +
         std::to_string(omega.ToDouble()) + ")\n";
  out += "rho*       : " + r.rho_star.ToString() + " (~" +
         std::to_string(r.rho_star.ToDouble()) + ")\n";
  out += "fhtw       : " + r.fhtw.ToString() + " (~" +
         std::to_string(r.fhtw.ToDouble()) + ")\n";
  out += "subw       : " + r.subw.ToString() + " (~" +
         std::to_string(r.subw.ToDouble()) + ")\n";
  if (r.omega_subw_exact) {
    out += "w-subw     : " + r.omega_subw_upper.ToString() + " (~" +
           std::to_string(r.omega_subw_upper.ToDouble()) + ", exact)\n";
  } else {
    out += "w-subw     : in [" + r.omega_subw_lower.ToString() + ", " +
           r.omega_subw_upper.ToString() + "] (~" +
           std::to_string(r.omega_subw_lower.ToDouble()) + " .. ~" +
           std::to_string(r.omega_subw_upper.ToDouble()) + ")\n";
  }
  return out;
}

ExecResult ValidateQuery(const Hypergraph& h, const QueryInput& db) {
  const auto invalid = [](std::string msg) {
    return ExecResult{ExecStatus::kInvalidArgument, std::move(msg)};
  };
  if (h.edges().empty()) {
    return invalid("query has no hyperedges");
  }
  if (db.relations.size() != h.edges().size()) {
    return invalid("database has " + std::to_string(db.relations.size()) +
                   " relations for " + std::to_string(h.edges().size()) +
                   " hyperedges");
  }
  for (size_t i = 0; i < h.edges().size(); ++i) {
    const VarSet edge = h.edges()[i];
    if (!h.vertices().ContainsAll(edge)) {
      return invalid("edge " + std::to_string(i) +
                     " uses variables outside the hypergraph's vertex set");
    }
    if (db.relations[i].schema() != edge) {
      return invalid("relation " + std::to_string(i) +
                     " schema does not match its hyperedge's variable set");
    }
  }
  return {};
}

namespace {

/// Maps each card of the query's Boolean ladder to ReduceEars, then the
/// card's engine on the core. `*result` is only written on normal return
/// (an abort unwinds first), so a failed rung never leaks a partial answer.
std::vector<PlanRung> BooleanLadder(const Hypergraph& h, const QueryInput& db,
                                    bool* result) {
  std::vector<PlanRung> ladder;
  for (const StrategyCard& card : BooleanLadderFor(h)) {
    ladder.push_back({card.name, [&h, &db, card, result](ExecContext& ec) {
                        Hypergraph core;
                        QueryInput core_db;
                        *result =
                            ReduceEars(h, db, &core, &core_db, &ec) &&
                            (core.edges().size() <= 1 ||
                             (card.uses_mm
                                  ? TriangleMm(core_db, card.omega,
                                               card.kernel, nullptr, &ec)
                                  : WcojBoolean(core, core_db, &ec)));
                      }});
  }
  return ladder;
}

std::vector<PlanRung> CountLadder(const Hypergraph& h, const QueryInput& db,
                                  int64_t* count) {
  std::vector<PlanRung> ladder;
  if (IsTriangleQuery(h)) {
    for (const StrategyCard& card : TriangleCountLadder()) {
      if (card.uses_mm) {
        ladder.push_back({card.name, [&db, card, count](ExecContext& ec) {
                            *count = TriangleCountMm(db, card.kernel, &ec);
                          }});
      } else {
        ladder.push_back({card.name, [&h, &db, count](ExecContext& ec) {
                            *count = WcojCount(h, db, &ec);
                          }});
      }
    }
    return ladder;
  }
  ladder.push_back({"wcoj", [&h, &db, count](ExecContext& ec) {
                      *count = WcojCount(h, db, &ec);
                    }});
  return ladder;
}

/// One rung today: WcojJoin is already the memory-lightest strategy that
/// materializes the full join. The ladder shape still buys the shared
/// deadline and uniform reporting.
std::vector<PlanRung> JoinLadder(const Hypergraph& h, const QueryInput& db,
                                 VarSet output_vars, Relation* result) {
  std::vector<PlanRung> ladder;
  ladder.push_back({"wcoj", [&h, &db, output_vars, result](ExecContext& ec) {
                      *result = WcojJoin(h, db, output_vars, nullptr, &ec);
                    }});
  return ladder;
}

/// Shared body of the *WithRecovery entry points: validate, then walk
/// the ladder `make_ladder` builds over a scratch output, copying the
/// answer out only on kOk.
template <typename T, typename MakeLadder>
ExecResult EvaluateWithRecovery(const Hypergraph& h, const QueryInput& db,
                                T* out, ExecContext* ctx,
                                const QueryLimits& limits,
                                const RetryPolicy& policy,
                                RecoveryReport* report,
                                MakeLadder make_ladder) {
  ExecResult valid = ValidateQuery(h, db);
  if (!valid.ok()) return valid;
  ExecContext& ec = ExecContext::Resolve(ctx);
  T scratch{};
  const ExecResult r =
      RunWithRecovery(ec, limits, policy, make_ladder(&scratch), report);
  if (r.ok()) *out = std::move(scratch);
  return r;
}

}  // namespace

ExecResult EvaluateBooleanWithRecovery(const Hypergraph& h, const QueryInput& db,
                                       bool* result, ExecContext* ctx,
                                       const QueryLimits& limits,
                                       const RetryPolicy& policy,
                                       RecoveryReport* report) {
  return EvaluateWithRecovery(
      h, db, result, ctx, limits, policy, report,
      [&](bool* scratch) { return BooleanLadder(h, db, scratch); });
}

ExecResult EvaluateCountWithRecovery(const Hypergraph& h, const QueryInput& db,
                                     int64_t* count, ExecContext* ctx,
                                     const QueryLimits& limits,
                                     const RetryPolicy& policy,
                                     RecoveryReport* report) {
  return EvaluateWithRecovery(
      h, db, count, ctx, limits, policy, report,
      [&](int64_t* scratch) { return CountLadder(h, db, scratch); });
}

ExecResult EvaluateJoinWithRecovery(const Hypergraph& h, const QueryInput& db,
                                    VarSet output_vars, Relation* result,
                                    ExecContext* ctx,
                                    const QueryLimits& limits,
                                    const RetryPolicy& policy,
                                    RecoveryReport* report) {
  return EvaluateWithRecovery(
      h, db, result, ctx, limits, policy, report, [&](Relation* scratch) {
        return JoinLadder(h, db, output_vars, scratch);
      });
}

}  // namespace fmmsw
