// E5 — 4-cycle runtime shape: the O(N^2) single-TD plan vs the
// degree-partitioned O(N^{3/2}) combinatorial algorithm vs the MM hybrid
// (~N^{(4w-1)/(2w+1)}). The paper's Section 1.1 story: partitioning beats
// any single TD; MM improves the partitioned algorithm further.

#include <cmath>
#include <cstdio>
#include <functional>

#include "bench_util.h"
#include "engine/four_cycle.h"
#include "relation/generators.h"
#include "util/stopwatch.h"

namespace fmmsw {
namespace {

void Run() {
  bench::Header(
      "4-cycle detection: runtime shape (star + dense-square, cycle-free)");
  ExecContext ec;
  std::vector<double> ns, ns_td, t_td, t_comb, t_mm;
  std::printf("%10s %12s %12s %12s\n", "N", "td O(N^2)", "partitioned",
              "mm hybrid");
  for (int64_t n : {1000, 2000, 4000, 8000, 16000, 32000}) {
    if (!bench::StepEnabled(n)) continue;
    // Hard composite instance (Section 1.1.1's motivation for data
    // partitioning): half of R and S share a single super-heavy y* (their
    // join alone is ~(N/4)^2 — the fhtw plan's downfall), half lives on a
    // sqrt(N) dense square (real work for the light side); T, U mirror
    // this on w*. X is odd in R and even in U, so no cycle ever closes.
    const int64_t d = std::max<int64_t>(
        4, static_cast<int64_t>(std::sqrt(static_cast<double>(n))));
    Rng rng(23);
    auto side = [&](VarSet schema, int star_col, Value star_value,
                    bool odd_x, bool even_x) {
      Relation out(schema);
      for (int64_t i = 0; i < n / 2; ++i) {  // star half
        Value a = static_cast<Value>(rng.Uniform(0, d - 1));
        Value pair[2];
        pair[star_col] = star_value;
        pair[1 - star_col] = a;
        if (odd_x) pair[0] = 2 * pair[0] + 1;
        if (even_x) pair[0] = 2 * pair[0];
        out.Add({pair[0], pair[1]});
      }
      for (int64_t i = 0; i < n / 2; ++i) {  // dense-square half
        Value a = static_cast<Value>(rng.Uniform(0, d - 1));
        Value b = static_cast<Value>(rng.Uniform(0, d - 1));
        Value pair[2] = {a, b};
        if (odd_x) pair[0] = 2 * pair[0] + 1;
        if (even_x) pair[0] = 2 * pair[0];
        out.Add({pair[0], pair[1]});
      }
      out.SortAndDedupe();
      return out;
    };
    const Value star_y = static_cast<Value>(d + 1);
    const Value star_w = static_cast<Value>(d + 2);
    QueryInput db;
    // R(X,Y): star on y*, odd X. S(Y,Z): star on y*.
    db.relations.push_back(side(VarSet{0, 1}, 1, star_y, true, false));
    db.relations.push_back(side(VarSet{1, 2}, 0, star_y, false, false));
    // T(Z,W): star on w*. U(W,X): star on w*, even X.
    db.relations.push_back(side(VarSet{2, 3}, 1, star_w, false, false));
    db.relations.push_back(side(VarSet{0, 3}, 1, star_w, false, true));
    const int reps = n <= 4000 ? 3 : 1;
    // The quadratic TD plan materializes R join S; cap its sweep so the
    // bench stays within laptop memory (its slope is fitted on the prefix).
    const bool run_td = n <= 4000;
    double a_ib = -1.0, b_ib, c_ib;
    const double a =
        run_td ? bench::TimeWithPhases(
                     ec, [&] { return FourCycleTd(db, &ec); }, reps, &a_ib)
               : -1.0;
    const double b = bench::TimeWithPhases(
        ec, [&] { return FourCycleCombinatorial(db, nullptr, &ec); }, reps,
        &b_ib);
    const double c = bench::TimeWithPhases(
        ec,
        [&] {
          return FourCycleMm(db, 2.371552, MmKernel::kBoolean, nullptr,
                             &ec);
        },
        reps, &c_ib);
    ns.push_back(static_cast<double>(db.TotalSize()));
    if (run_td) {
      ns_td.push_back(static_cast<double>(db.TotalSize()));
      t_td.push_back(a);
    }
    t_comb.push_back(b);
    t_mm.push_back(c);
    const long long total = static_cast<long long>(db.TotalSize());
    std::printf("%10lld %12.5f %12.5f %12.5f\n", total, a, b, c);
    if (run_td) bench::Json("four_cycle", total, "td", a * 1e3, a_ib);
    bench::Json("four_cycle", total, "partitioned", b * 1e3, b_ib);
    bench::Json("four_cycle", total, "mm_w2.37", c * 1e3, c_ib);
  }
  std::printf("\n");
  bench::Row("single-TD exponent", "2.0000",
             bench::Fmt(bench::FitSlope(ns_td, t_td)), "fitted; fhtw = 2");
  bench::Row("partitioned exponent", "1.5000",
             bench::Fmt(bench::FitSlope(ns, t_comb)), "fitted; subw = 3/2");
  bench::Row("MM hybrid exponent (w=2.3716)", "1.4776",
             bench::Fmt(bench::FitSlope(ns, t_mm)),
             "fitted; 2 - 3/(2w+1)");
}

}  // namespace
}  // namespace fmmsw

int main(int argc, char** argv) {
  fmmsw::bench::Init(argc, argv);
  fmmsw::Run();
  return 0;
}
