// E4 — triangle runtime shape: combinatorial WCOJ (N^{3/2}) vs the
// Figure-1 MM hybrid at several omegas, over an N-sweep of triangle-free
// dense-square instances (every value heavy — the Lemma C.5 hard regime).
// Reports fitted log-log exponents; expect the MM hybrid's fit at or below
// the combinatorial one's 1.5. The hybrid picks its degree threshold from
// each instance's degree profile, so the paper's 2w/(w+1) (the bound at
// the worst-case threshold N^{(w-1)/(w+1)}) is an upper bound its fit must
// not exceed; the JSON rows report the chosen and worst-case thresholds.

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>

#include "bench_util.h"
#include "core/api.h"
#include "core/database.h"
#include "engine/triangle.h"
#include "engine/wcoj.h"
#include "panda/executor.h"
#include "relation/generators.h"
#include "util/stopwatch.h"

namespace fmmsw {
namespace {


/// The hard regime of Lemma C.5's witness: all three variables live on a
/// domain of size ~sqrt(N), so every value is heavy (degree ~sqrt(N)) and
/// the worst-case-optimal join must do N^{3/2} intersection work while the
/// MM hybrid multiplies sqrt(N)-square matrices. Z is remapped to even
/// values in S and odd values in T, so no triangle ever closes — every
/// algorithm does its full work and the fitted slope is the exponent.
QueryInput MakeNegativeInstance(int64_t n) {
  const int64_t d = std::max<int64_t>(
      4, static_cast<int64_t>(std::sqrt(static_cast<double>(n))));
  Rng rng(19);
  QueryInput db;
  db.relations.push_back(UniformRelation(VarSet{0, 1}, n, d, &rng));
  Relation raw_s = UniformRelation(VarSet{1, 2}, n, d, &rng);
  Relation raw_t = UniformRelation(VarSet{0, 2}, n, d, &rng);
  Relation s(VarSet{1, 2}), t(VarSet{0, 2});
  for (size_t i = 0; i < raw_s.size(); ++i) {
    s.Add({raw_s.Row(i)[0], 2 * raw_s.Row(i)[1]});
  }
  for (size_t i = 0; i < raw_t.size(); ++i) {
    t.Add({raw_t.Row(i)[0], 2 * raw_t.Row(i)[1] + 1});
  }
  db.relations.push_back(std::move(s));
  db.relations.push_back(std::move(t));
  return db;
}

/// The JSON fields naming the threshold a TriangleMm run chose.
std::string SplitFields(const TriangleStats& st) {
  return "\"delta\":" + std::to_string(st.delta) +
         ",\"delta_worst_case\":" + std::to_string(st.delta_worst_case);
}

void Run() {
  bench::Header(
      "Triangle detection: runtime shape (dense-square, triangle-free)");
  std::vector<double> ns, t_wcoj, t_mm2, t_mmstr, t_panda;
  std::printf("%10s %12s %12s %12s %12s\n", "N", "wcoj(s)", "mm w=2.37",
              "mm strassen", "panda-derived");
  ExecContext ec;
  for (int64_t n : {4000, 8000, 16000, 32000, 64000, 128000}) {
    if (!bench::StepEnabled(n)) continue;
    QueryInput db = MakeNegativeInstance(n);
    const int reps = n <= 8000 ? 3 : 1;
    double a_ib, b_ib, c_ib, d_ib;
    TriangleStats b_st, c_st;
    double a_sort, b_sort, c_sort, d_sort;
    const double a = bench::TimeWithPhases(
        ec, [&] { return WcojBoolean(Hypergraph::Triangle(), db, &ec); },
        reps, &a_ib, &a_sort);
    const double b = bench::TimeWithPhases(
        ec,
        [&] {
          return TriangleMm(db, 2.371552, MmKernel::kBoolean, &b_st, &ec);
        },
        reps, &b_ib, &b_sort);
    const double c = bench::TimeWithPhases(
        ec,
        [&] {
          return TriangleMm(db, 2.8073549, MmKernel::kStrassen, &c_st, &ec);
        },
        reps, &c_ib, &c_sort);
    const double d = bench::TimeWithPhases(
        ec,
        [&] {
          return PandaTriangleBoolean(db, 2.371552, MmKernel::kBoolean,
                                      nullptr, &ec);
        },
        reps, &d_ib, &d_sort);
    ns.push_back(static_cast<double>(db.TotalSize()));
    t_wcoj.push_back(a);
    t_mm2.push_back(b);
    t_mmstr.push_back(c);
    t_panda.push_back(d);
    const long long total = static_cast<long long>(db.TotalSize());
    std::printf("%10lld %12.5f %12.5f %12.5f %12.5f\n", total, a, b, c, d);
    bench::Json("triangle", total, "wcoj", a * 1e3, a_ib, a_sort);
    bench::Json("triangle", total, "mm_w2.37", b * 1e3, b_ib, b_sort,
                SplitFields(b_st));
    bench::Json("triangle", total, "mm_strassen", c * 1e3, c_ib, c_sort,
                SplitFields(c_st));
    bench::Json("triangle", total, "panda", d * 1e3, d_ib, d_sort);
  }
  std::printf("\n");
  bench::Row("combinatorial exponent", "1.5000",
             bench::Fmt(bench::FitSlope(ns, t_wcoj)), "fitted");
  bench::Row("MM hybrid exponent (w=2.3716)", "1.4068",
             bench::Fmt(bench::FitSlope(ns, t_mm2)),
             "fitted; 2w/(w+1) bounds it");
  bench::Row("MM hybrid exponent (Strassen)", "1.4750",
             bench::Fmt(bench::FitSlope(ns, t_mmstr)),
             "fitted; 2w/(w+1) at w=log2 7 bounds it");
  bench::Row("proof-seq-derived exponent", "1.4068",
             bench::Fmt(bench::FitSlope(ns, t_panda)), "fitted");
}

/// Guardrail A/B at the largest enabled N of the sweep: the same WCOJ
/// evaluation unguarded (every Poll() is one relaxed load) vs armed with
/// generous limits (every poll takes the slow path) — the armed delta
/// bounds what guarded production runs pay. Then deadline- and
/// memory-bounded runs of the same instance, showing early termination
/// with the matching status.
void RunGuardrails() {
  bench::Header("Execution guardrails (same instance, largest enabled N)");
  const Hypergraph h = Hypergraph::Triangle();
  int64_t n = 0;
  for (int64_t step : {4000, 8000, 16000, 32000, 64000, 128000}) {
    if (bench::StepEnabled(step)) n = step;
  }
  if (n == 0) return;
  QueryInput db = MakeNegativeInstance(n);
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

/// Recovery plane on the same instance: (1) the no-fault cost of running
/// through RunWithRecovery — guard armed, ladder machinery engaged, zero
/// retries — vs the same strategy called directly (target < 2%);
/// (2) a degradation demo: the memory-hungry MM count rung trips a
/// budget chosen between the two strategies' measured peaks and the
/// ladder falls through to WCOJ, with both timings reported.
void RunRecovery() {
  bench::Header("Recovery plane (same instance, largest enabled N)");
  const Hypergraph h = Hypergraph::Triangle();
  int64_t n = 0;
  for (int64_t step : {4000, 8000, 16000, 32000, 64000, 128000}) {
    if (bench::StepEnabled(step)) n = step;
  }
  if (n == 0) return;
  QueryInput db = MakeNegativeInstance(n);
  const long long total = static_cast<long long>(db.TotalSize());
  ExecContext ec;
  const int reps = n <= 32000 ? 9 : 5;

  // --- A/B: recovery-armed (no fault) vs unguarded, same strategy. ---
  bool ans = false;
  std::vector<PlanRung> wcoj_only;
  wcoj_only.push_back({"wcoj", [&h, &db, &ans](ExecContext& e) {
                         ans = WcojBoolean(h, db, &e);
                       }});
  bool negative = !WcojBoolean(h, db, &ec);  // warm-up
  double unguarded = 1e100, armed = 1e100;
  Stopwatch sw;
  for (int i = 0; i < reps; ++i) {
    sw.Reset();
    negative &= !WcojBoolean(h, db, &ec);
    unguarded = std::min(unguarded, sw.Seconds());
    sw.Reset();
    const ExecResult r = RunWithRecovery(ec, {}, {}, wcoj_only);
    armed = std::min(armed, sw.Seconds());
    negative &= r.ok() && !ans;
  }
  const double overhead = (armed - unguarded) / unguarded * 100.0;
  std::printf("  instance: negative=%d  N=%lld\n", negative ? 1 : 0, total);
  std::printf("  wcoj direct          : %10.5f s\n", unguarded);
  std::printf("  wcoj recovery-armed  : %10.5f s   (%+.2f%%, target < 2%%)\n",
              armed, overhead);
  bench::Json("triangle_recovery", total, "unguarded", unguarded * 1e3);
  bench::Json("triangle_recovery", total, "recovery_armed", armed * 1e3);
  bench::Row("recovery-armed overhead", "<2%", bench::Fmt(overhead) + "%",
             "RunWithRecovery, no fault, vs direct call");

  // --- Degradation demos. Two pressure sources: ---
  // (a) a real memory budget between the measured Strassen and WCOJ
  //     peaks — the pow2-padded top rung trips it and the ladder settles
  //     on the hungriest strategy that fits (on this dense-square shape
  //     that is blocked GEMM, whose slab charges are tiny);
  // (b) the deterministic mm:1 fault plan — simulated memory pressure on
  //     the whole MM plane, so every MM rung aborts retryably and the
  //     ladder falls all the way to WCOJ.
  ec.stats().Reset();
  sw.Reset();
  const int64_t mm_count = TriangleCountMm(db, MmKernel::kStrassen, &ec);
  const double t_mm = sw.Seconds();
  const int64_t mm_peak = ec.stats().mem_peak_bytes.load();
  ec.stats().Reset();
  sw.Reset();
  const int64_t wcoj_count = WcojCount(h, db, &ec);
  const double t_wcoj = sw.Seconds();
  const int64_t wcoj_peak = ec.stats().mem_peak_bytes.load();
  std::printf("  mm count clean       : %10.5f s   peak %lld bytes\n", t_mm,
              static_cast<long long>(mm_peak));
  std::printf("  wcoj count clean     : %10.5f s   peak %lld bytes\n", t_wcoj,
              static_cast<long long>(wcoj_peak));
  bench::Json("triangle_recovery", total, "mm_clean", t_mm * 1e3);
  bench::Json("triangle_recovery", total, "wcoj_clean", t_wcoj * 1e3);
  if (mm_peak > wcoj_peak) {
    ec.stats().Reset();
    QueryLimits budgeted;
    budgeted.memory_budget_bytes = wcoj_peak + (mm_peak - wcoj_peak) / 2;
    int64_t budget_count = -1;
    RecoveryReport budget_report;
    sw.Reset();
    const ExecResult rb = EvaluateCountWithRecovery(
        h, db, &budget_count, &ec, budgeted, {}, &budget_report);
    const double t_budget = sw.Seconds();
    std::printf("  budget-degraded      : %10.5f s   status=%s rung=%s "
                "retries=%lld (budget between peaks)\n",
                t_budget, StatusString(rb.status),
                budget_report.winning_rung.c_str(),
                static_cast<long long>(ec.stats().retries.load()));
    bench::Json("triangle_recovery", total, "recovered_budget",
                t_budget * 1e3);
    bench::Row("budget-degraded status", "ok", StatusString(rb.status),
               "real budget between peaks, rung " + budget_report.winning_rung);
    bench::Row("budget-degraded count matches", "yes",
               budget_count == wcoj_count ? "yes" : "no",
               "recovered == clean wcoj count");
  } else {
    std::printf("  budget-degraded      : skipped (mm peak <= wcoj peak "
                "on this shape)\n");
  }
  ec.stats().Reset();
  FaultPlan plan;
  std::string plan_err;
  ParseFaultPlan("mm:1", &plan, &plan_err);
  ec.guard().SetFaultPlan(plan);
  int64_t recovered_count = -1;
  RecoveryReport report;
  sw.Reset();
  const ExecResult r =
      EvaluateCountWithRecovery(h, db, &recovered_count, &ec, {}, {}, &report);
  const double t_recovered = sw.Seconds();
  ec.guard().SetFaultPlan(FaultPlan{});
  std::printf("  mm-fault degraded    : %10.5f s   status=%s rung=%s "
              "retries=%lld (fault plan mm:1)\n",
              t_recovered, StatusString(r.status), report.winning_rung.c_str(),
              static_cast<long long>(ec.stats().retries.load()));
  bench::Json("triangle_recovery", total, "recovered_degraded",
              t_recovered * 1e3);
  bench::Row("degraded run status", "ok", StatusString(r.status),
             "MM rungs abort retryably, ladder falls to WCOJ");
  bench::Row("degraded winning rung", "wcoj", report.winning_rung,
             "answer bit-identical to clean WCOJ run");
  bench::Row("degraded count matches", "yes",
             recovered_count == wcoj_count && mm_count == wcoj_count ? "yes"
                                                                    : "no",
             "recovered == clean wcoj == clean mm");
}

/// Catalog service layer A/B at the largest enabled N: the same count
/// query routed through Database::QueryCount (snapshot pin + name
/// binding + admission ticket + recovery ladder) vs the identical
/// direct EvaluateCountWithRecovery call on a pre-bound QueryInput.
/// The delta is exactly what production pays per query for snapshot
/// isolation and admission control — target < 2%.
void RunService() {
  bench::Header("Catalog service layer (same instance, largest enabled N)");
  const Hypergraph h = Hypergraph::Triangle();
  int64_t n = 0;
  for (int64_t step : {4000, 8000, 16000, 32000, 64000, 128000}) {
    if (bench::StepEnabled(step)) n = step;
  }
  if (n == 0) return;
  QueryInput bound = MakeNegativeInstance(n);
  const long long total = static_cast<long long>(bound.TotalSize());
  ExecContext ec;
  Database db;
  {
    Database::Transaction txn = db.Begin(&ec);
    txn.Replace("R", Relation(bound.relations[0]));
    txn.Replace("S", Relation(bound.relations[1]));
    txn.Replace("T", Relation(bound.relations[2]));
    txn.Commit();
  }
  const std::vector<std::string> atoms = {"R", "S", "T"};
  const int reps = n <= 32000 ? 9 : 5;
  QueryOptions opts;  // recovery on: both sides walk the same ladder

  int64_t direct_count = -1, routed_count = -2;
  bool agree = true;
  double direct = 1e100, routed = 1e100;
  // Warm-up outside the timed pairs, then interleave and keep per-variant
  // minima (same protocol as the guardrail A/B above).
  (void)EvaluateCountWithRecovery(h, bound, &direct_count, &ec, opts.limits,
                                  opts.retry);
  Stopwatch sw;
  for (int i = 0; i < reps; ++i) {
    sw.Reset();
    const ExecResult rd = EvaluateCountWithRecovery(
        h, bound, &direct_count, &ec, opts.limits, opts.retry);
    direct = std::min(direct, sw.Seconds());
    sw.Reset();
    Snapshot snap = db.snapshot(&ec);
    const ExecResult rr = db.QueryCount(snap, h, atoms, &routed_count, opts,
                                        &ec);
    routed = std::min(routed, sw.Seconds());
    agree &= rd.ok() && rr.ok() && direct_count == routed_count;
  }
  const double overhead = (routed - direct) / direct * 100.0;
  std::printf("  instance: N=%lld  counts agree=%d\n", total, agree ? 1 : 0);
  std::printf("  count direct         : %10.5f s\n", direct);
  std::printf("  count via Database   : %10.5f s   (%+.2f%%, target < 2%%)\n",
              routed, overhead);
  bench::Json("triangle_service", total, "direct", direct * 1e3);
  bench::Json("triangle_service", total, "routed", routed * 1e3);
  bench::Row("service-layer overhead", "<2%", bench::Fmt(overhead) + "%",
             "Database::QueryCount vs direct EvaluateCountWithRecovery");
  bench::Row("service count matches", "yes", agree ? "yes" : "no",
             "snapshot-bound == pre-bound input");
}

}  // namespace
}  // namespace fmmsw

int main(int argc, char** argv) {
  fmmsw::bench::Init(argc, argv);
  fmmsw::Run();
  fmmsw::RunGuardrails();
  fmmsw::RunRecovery();
  fmmsw::RunService();
  return 0;
}
