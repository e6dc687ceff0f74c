#ifndef FMMSW_CORE_RECOVERY_H_
#define FMMSW_CORE_RECOVERY_H_

/// \file
/// Degraded-plan retry above the guardrails (RunGuarded): when a guarded
/// execution aborts for a *retryable* reason — it tripped its memory
/// budget, or a structural capacity cap like the planner's pivot limit
/// — re-execute the query down a deterministic degradation ladder of
/// successively cheaper strategies instead of surfacing the failure.
///
/// The ladder is a list of PlanRungs ordered by descending memory
/// appetite (built from the engine/strategy.h capability cards by the
/// core/api.h *WithRecovery entry points; callers can also hand-build
/// one). RunWithRecovery arms the caller's limits for each attempt —
/// always re-deriving the wall-clock deadline from what *remains* of the
/// original budget, so retries never extend the caller's deadline — and
/// returns the first rung's result that completes, or:
///   - the terminal failure, unchanged in status, the moment any rung
///     fails for a non-retryable reason (kCancelled, kDeadlineExceeded,
///     kInvalidArgument — retrying cannot fix those), or
///   - kRetryExhausted when every rung (or the attempt budget) failed
///     retryably.
///
/// Determinism contract: each rung is itself bit-deterministic (the
/// repo's standing contract), and the ladder walk is a serial loop over
/// a fixed list, so a recovered run returns results bit-identical to a
/// clean run of the winning rung — at every thread count. Observability
/// flows through the `retries` / `degraded_runs` ExecStats counters and
/// the optional RecoveryReport.

#include <functional>
#include <string>
#include <vector>

#include "core/exec_context.h"
#include "core/exec_status.h"

namespace fmmsw {

/// Classification driving the retry decision: true for statuses caused
/// by resource pressure a cheaper plan can dodge (kMemoryLimitExceeded,
/// kCapacityExceeded — e.g. the planner LP's pivot budget), false for
/// everything a retry cannot fix.
bool IsRetryable(ExecStatus status);

/// One ladder rung: a named strategy closure. `run` must fully produce
/// the rung's answer into caller-owned storage (it only commits on
/// normal return — an abort unwinds before the caller reads anything).
struct PlanRung {
  std::string name;
  std::function<void(ExecContext&)> run;
};

/// Retry knobs.
struct RetryPolicy {
  /// Total attempt cap across the ladder (safety net; the ladder length
  /// is the natural bound).
  int max_attempts = 4;
  /// Give up (kDeadlineExceeded) instead of launching an attempt with
  /// less than this much wall-clock budget left.
  int64_t min_remaining_ms = 1;
};

/// What happened during one RunWithRecovery call.
struct RecoveryReport {
  int attempts = 0;           ///< rung executions launched
  int degraded_runs = 0;      ///< attempts below the top rung
  std::string winning_rung;   ///< name of the rung that completed (if any)
  std::vector<ExecResult> failures;  ///< per-failed-attempt results, in order
};

/// Walks `ladder` under `policy`, arming `limits` (deadline re-derived
/// per attempt) on `ec`'s guard around each rung. See the file comment
/// for the result contract. `report`, when non-null, is overwritten
/// with the walk's trace on every path.
ExecResult RunWithRecovery(ExecContext& ec, const QueryLimits& limits,
                           const RetryPolicy& policy,
                           const std::vector<PlanRung>& ladder,
                           RecoveryReport* report = nullptr);

}  // namespace fmmsw

#endif  // FMMSW_CORE_RECOVERY_H_
