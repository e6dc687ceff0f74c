// E7 — 3-pyramid (the paper's *new algorithm* class, Lemma C.13):
// combinatorial join (PANDA exponent 2 - 1/k = 5/3) vs the
// MM(X2;X3;Y|X1) elimination (2 - 1/w < 5/3 for w < 3).

#include <cmath>
#include <cstdio>
#include <functional>

#include "bench_util.h"
#include "engine/pyramid.h"
#include "engine/wcoj.h"
#include "relation/generators.h"
#include "util/stopwatch.h"

namespace fmmsw {
namespace {

void Run() {
  bench::Header("3-pyramid: combinatorial vs MM elimination (heavy regime)");
  ExecContext ec;
  std::vector<double> ns, t_comb, t_mm;
  std::printf("%10s %12s %12s\n", "N", "wcoj", "mm w=2.37");
  for (int64_t n : {1000, 2000, 4000, 8000, 16000}) {
    if (!bench::StepEnabled(n)) continue;
    // Lemma C.13's heavy regime: apex degrees N/d ~ N^{0.6} exceed the
    // Delta = N^{1-1/w} threshold, so the MM elimination (case 3) carries
    // the work. X3 is odd in R3 and even in the base: pyramid-free, no
    // early exits.
    const int64_t d = std::max<int64_t>(
        4, static_cast<int64_t>(std::pow(static_cast<double>(n), 0.4)));
    Rng rng(37);
    QueryInput db;
    db.relations.push_back(UniformRelation(VarSet{0, 1}, n, d, &rng));
    db.relations.push_back(UniformRelation(VarSet{0, 2}, n, d, &rng));
    {
      Relation raw = UniformRelation(VarSet{0, 3}, n, d, &rng);
      Relation r3(VarSet{0, 3});
      for (size_t i = 0; i < raw.size(); ++i) {
        r3.Add({raw.Row(i)[0], 2 * raw.Row(i)[1] + 1});
      }
      db.relations.push_back(std::move(r3));
    }
    {
      Relation raw = UniformRelation(VarSet{1, 2, 3}, n, d, &rng);
      Relation base(VarSet{1, 2, 3});
      for (size_t i = 0; i < raw.size(); ++i) {
        base.Add({raw.Row(i)[0], raw.Row(i)[1], 2 * raw.Row(i)[2]});
      }
      db.relations.push_back(std::move(base));
    }
    const int reps = n <= 4000 ? 3 : 1;
    double a_ib, b_ib;
    const double a = bench::TimeWithPhases(
        ec, [&] { return WcojBoolean(Hypergraph::Pyramid(3), db, &ec); },
        reps, &a_ib);
    const double b = bench::TimeWithPhases(
        ec,
        [&] {
          return Pyramid3Mm(db, 2.371552, MmKernel::kBoolean, nullptr, &ec);
        },
        reps, &b_ib);
    ns.push_back(static_cast<double>(db.TotalSize()));
    t_comb.push_back(a);
    t_mm.push_back(b);
    const long long total = static_cast<long long>(db.TotalSize());
    std::printf("%10lld %12.5f %12.5f\n", total, a, b);
    bench::Json("pyramid", total, "wcoj", a * 1e3, a_ib);
    bench::Json("pyramid", total, "mm_w2.37", b * 1e3, b_ib);
  }
  std::printf("\n");
  bench::Row("combinatorial exponent", "1.6667 (subw 5/3)",
             bench::Fmt(bench::FitSlope(ns, t_comb)), "fitted");
  bench::Row("MM exponent (w=2.3716)", "1.5783 (2 - 1/w)",
             bench::Fmt(bench::FitSlope(ns, t_mm)), "fitted");
}

}  // namespace
}  // namespace fmmsw

int main(int argc, char** argv) {
  fmmsw::bench::Init(argc, argv);
  fmmsw::Run();
  return 0;
}
