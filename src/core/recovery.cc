#include "core/recovery.h"

#include <chrono>

namespace fmmsw {

bool IsRetryable(ExecStatus status) {
  switch (status) {
    case ExecStatus::kMemoryLimitExceeded:
    case ExecStatus::kCapacityExceeded:
      return true;
    case ExecStatus::kOk:
    case ExecStatus::kCancelled:
    case ExecStatus::kDeadlineExceeded:
    case ExecStatus::kInvalidArgument:
    case ExecStatus::kRejected:
    case ExecStatus::kRetryExhausted:
      return false;
  }
  return false;
}

ExecResult RunWithRecovery(ExecContext& ec, const QueryLimits& limits,
                           const RetryPolicy& policy,
                           const std::vector<PlanRung>& ladder,
                           RecoveryReport* report) {
  RecoveryReport rep;
  const auto finish = [&](ExecResult r) {
    if (report != nullptr) *report = std::move(rep);
    return r;
  };
  if (ladder.empty()) {
    return finish({ExecStatus::kInvalidArgument,
                   "RunWithRecovery needs a non-empty ladder"});
  }
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < ladder.size(); ++i) {
    if (rep.attempts >= policy.max_attempts) {
      return finish(
          {ExecStatus::kRetryExhausted,
           "retry budget exhausted after " + std::to_string(rep.attempts) +
               " attempts (next rung would have been '" + ladder[i].name +
               "'): " +
               (rep.failures.empty() ? std::string("no failures recorded")
                                     : rep.failures.back().message)});
    }
    QueryLimits attempt = limits;
    if (limits.deadline_ms > 0) {
      const int64_t elapsed_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      const int64_t remaining = limits.deadline_ms - elapsed_ms;
      if (remaining < policy.min_remaining_ms) {
        return finish(
            {ExecStatus::kDeadlineExceeded,
             "deadline budget exhausted before rung '" + ladder[i].name +
                 "' (" + std::to_string(remaining) + "ms of " +
                 std::to_string(limits.deadline_ms) + "ms left)"});
      }
      attempt.deadline_ms = remaining;
    }
    ++rep.attempts;
    if (i > 0) {
      ++rep.degraded_runs;
      Bump(ec.stats().degraded_runs);
    }
    ExecResult r =
        RunGuarded(ec, attempt, [&] { ladder[i].run(ec); });
    if (r.ok()) {
      rep.winning_rung = ladder[i].name;
      return finish(r);
    }
    rep.failures.push_back(r);
    if (!IsRetryable(r.status)) {
      r.message = "rung '" + ladder[i].name + "': " + r.message;
      return finish(r);
    }
    Bump(ec.stats().retries);
  }
  return finish({ExecStatus::kRetryExhausted,
                 "every ladder rung failed retryably; last: " +
                     rep.failures.back().message});
}

}  // namespace fmmsw
