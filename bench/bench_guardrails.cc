// Execution guardrails on the triangle sweep's instance: the same WCOJ
// evaluation unguarded vs armed with generous limits (the armed delta
// bounds what guarded production runs pay), then deadline- and
// memory-bounded runs that must terminate early with the matching status.
// --max-n caps the instance's total tuple count N.

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "core/api.h"
#include "engine/wcoj.h"
#include "util/stopwatch.h"

namespace fmmsw {
namespace {

/// Guardrail A/B at the largest enabled N of the triangle sweep: unguarded,
/// every Poll() is one relaxed load; armed, every poll takes the slow path.
void RunGuardrails() {
  bench::Header("Execution guardrails (same instance, largest enabled N)");
  const Hypergraph h = Hypergraph::Triangle();
  QueryInput db;
  int64_t n = 0;
  for (int64_t step : {4000, 8000, 16000, 32000, 64000, 128000}) {
    QueryInput next = bench::TriangleInstance(step);
    if (!bench::StepEnabled(static_cast<long long>(next.TotalSize()))) break;
    db = std::move(next);
    n = step;
  }
  if (n == 0) return;
  const long long total = static_cast<long long>(db.TotalSize());
  ExecContext ec;
  const int reps = n <= 32000 ? 9 : 3;
  QueryLimits generous;
  generous.deadline_ms = 3600 * 1000;
  generous.memory_budget_bytes = int64_t{1} << 40;
  // Warm-up (arena growth, index caches) outside the timed pairs, then
  // interleave A/B reps and keep the per-variant minimum: back-to-back
  // block timing is hopeless against scheduler drift at small N, while
  // min-of-k pairs cancels it.
  bool negative = !WcojBoolean(h, db, &ec);
  bool ans = false;
  const auto run_wcoj = [&] { ans = WcojBoolean(h, db, &ec); };
  double unguarded = 1e100, armed = 1e100;
  Stopwatch sw;
  for (int i = 0; i < reps; ++i) {
    sw.Reset();
    negative &= !WcojBoolean(h, db, &ec);
    unguarded = std::min(unguarded, sw.Seconds());
    sw.Reset();
    const ExecResult r = RunGuarded(ec, generous, run_wcoj);
    armed = std::min(armed, sw.Seconds());
    negative &= r.ok() && !ans;
  }
  const double overhead = (armed - unguarded) / unguarded * 100.0;
  std::printf("  instance: negative=%d  N=%lld\n", negative ? 1 : 0, total);
  std::printf("  wcoj unguarded  : %10.5f s\n", unguarded);
  std::printf("  wcoj armed      : %10.5f s   (%+.2f%%, target < 2%%)\n",
              armed, overhead);
  bench::Json("triangle_guard", total, "unguarded", unguarded * 1e3);
  bench::Json("triangle_guard", total, "armed", armed * 1e3);
  // Deadline-bounded: a fraction of the full runtime must terminate the
  // query early with deadline_exceeded.
  QueryLimits tight_deadline;
  tight_deadline.deadline_ms = std::max<int64_t>(
      1, static_cast<int64_t>(unguarded * 1e3 * 0.2));
  sw.Reset();
  const ExecResult dl = RunGuarded(ec, tight_deadline, run_wcoj);
  const double dl_wall = sw.Seconds();
  std::printf("  deadline %4lld ms: %10.5f s   status=%s\n",
              static_cast<long long>(tight_deadline.deadline_ms), dl_wall,
              StatusString(dl.status));
  bench::Json("triangle_guard", total, "deadline_bounded", dl_wall * 1e3);
  // Memory-bounded: a budget far below the trie/index working set must
  // abort during the build phase.
  QueryLimits tight_mem;
  tight_mem.memory_budget_bytes = 64 * 1024;
  sw.Reset();
  const ExecResult mb = RunGuarded(ec, tight_mem, run_wcoj);
  const double mb_wall = sw.Seconds();
  std::printf("  mem budget 64KiB: %10.5f s   status=%s\n", mb_wall,
              StatusString(mb.status));
  bench::Json("triangle_guard", total, "memory_bounded", mb_wall * 1e3);
  bench::Row("armed-guard overhead", "<2%", bench::Fmt(overhead) + "%",
             "armed generous limits vs unguarded");
  bench::Row("deadline-bounded status", "deadline_exceeded",
             StatusString(dl.status),
             "20% of full runtime, early termination");
  bench::Row("memory-bounded status", "memory_limit_exceeded",
             StatusString(mb.status), "64KiB budget");
}

}  // namespace
}  // namespace fmmsw

int main(int argc, char** argv) {
  fmmsw::bench::Init(argc, argv);
  fmmsw::RunGuardrails();
  return 0;
}
