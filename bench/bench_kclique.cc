// E6 — k-clique detection (Table 1 rows 2-5): combinatorial WCOJ
// (exponent k/2) vs the 3-group MM scheme (exponent
// ceil(k/3)/2 + ceil((k-1)/3)/2 + floor(k/3)/2 (w-2)) on dense
// small-domain instances — the regime where every value is heavy and MM
// dominates.

#include <cstdio>
#include <functional>

#include "bench_util.h"
#include "engine/clique.h"
#include "engine/wcoj.h"
#include "relation/generators.h"
#include "util/stopwatch.h"
#include "width/closed_forms.h"

namespace fmmsw {
namespace {

void RunK(int k) {
  std::printf("\n-- k = %d --\n", k);
  ExecContext ec;
  std::vector<double> ns, t_comb, t_mm;
  std::printf("%10s %12s %12s %12s\n", "N", "wcoj", "mm boolean",
              "mm strassen");
  std::vector<int64_t> domains =
      k <= 4 ? std::vector<int64_t>{24, 36, 54, 80, 120}
             : std::vector<int64_t>{12, 18, 27, 40};
  for (int64_t d : domains) {
    WorkloadOptions opts;
    opts.kind = WorkloadKind::kDense;
    opts.domain = d;
    opts.dense_density = 0.9;
    opts.seed = 29;
    QueryInput db = MakeWorkload(Hypergraph::Clique(k), opts);
    {
      // Clique-free instance via a parity obstruction that only fires at
      // the *last* join level: every pair relation keeps even-sum pairs
      // (all clique vertices would share one parity) except R_{0,k-1},
      // which keeps odd-sum pairs — contradiction, so no clique exists,
      // yet both algorithms must do their full work before discovering it.
      auto filter = [](const Relation& r, int want_parity) {
        Relation out(r.schema());
        for (size_t i = 0; i < r.size(); ++i) {
          if (((r.Row(i)[0] + r.Row(i)[1]) & 1) == want_parity) {
            out.Add({r.Row(i)[0], r.Row(i)[1]});
          }
        }
        return out;
      };
      for (size_t e = 0; e < db.relations.size(); ++e) {
        // Edge (0, k-1) has index k-2 in Hypergraph::Clique's order.
        const int parity = (static_cast<int>(e) == k - 2) ? 1 : 0;
        db.relations.Set(e, filter(db.relations[e], parity));
      }
    }
    if (!bench::StepEnabled(static_cast<long long>(db.TotalSize()))) {
      continue;
    }
    const int reps = 2;
    double a_ib, b_ib, c_ib;
    const double a = bench::TimeWithPhases(
        ec, [&] { return WcojBoolean(Hypergraph::Clique(k), db, &ec); },
        reps, &a_ib);
    const double b = bench::TimeWithPhases(
        ec,
        [&] {
          return CliqueMm(k, db, MmKernel::kBoolean, nullptr, &ec);
        },
        reps, &b_ib);
    const double c = bench::TimeWithPhases(
        ec,
        [&] {
          return CliqueMm(k, db, MmKernel::kStrassen, nullptr, &ec);
        },
        reps, &c_ib);
    ns.push_back(static_cast<double>(db.TotalSize()));
    t_comb.push_back(a);
    t_mm.push_back(b);
    const long long total = static_cast<long long>(db.TotalSize());
    std::printf("%10lld %12.5f %12.5f %12.5f\n", total, a, b, c);
    const std::string name = "clique_k" + std::to_string(k);
    bench::Json(name, total, "wcoj", a * 1e3, a_ib);
    bench::Json(name, total, "mm_boolean", b * 1e3, b_ib);
    bench::Json(name, total, "mm_strassen", c * 1e3, c_ib);
  }
  const Rational omega(2371552, 1000000);
  bench::Row("combinatorial exponent",
             bench::Fmt(closed_forms::SubwClique(k).ToDouble()),
             bench::Fmt(bench::FitSlope(ns, t_comb)), "fitted vs k/2");
  bench::Row(
      "MM exponent",
      bench::Fmt(closed_forms::OmegaSubwClique(k, omega).ToDouble()),
      bench::Fmt(bench::FitSlope(ns, t_mm)), "fitted vs Lemma C.8 value");
}

}  // namespace
}  // namespace fmmsw

int main(int argc, char** argv) {
  fmmsw::bench::Init(argc, argv);
  fmmsw::bench::Header("k-clique detection: combinatorial vs MM (dense)");
  for (int k : {3, 4, 5, 6}) fmmsw::RunK(k);
  return 0;
}
