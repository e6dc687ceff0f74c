// E12 — ablations of the reproduction's main design choices:
//   (1) LP backend: double simplex vs exact rational (value agreement and
//       cost of exactness);
//   (2) MM off (omega = 3) vs on: w-subw collapses to subw (Prop. 4.10);
//   (3) branch-and-bound vs coordinate-ascent-only on the width search.

#include <cstdio>
#include <functional>

#include "bench_util.h"
#include "entropy/polymatroid.h"
#include "hypergraph/hypergraph.h"
#include "lp/simplex.h"
#include "util/stopwatch.h"
#include "width/omega_subw.h"
#include "width/subw.h"

namespace fmmsw {
namespace {

void LpBackendAblation() {
  bench::Header("Ablation 1: LP backend (double vs exact rational)");
  for (const Hypergraph& h : {Hypergraph::Triangle(), Hypergraph::Clique(4),
                              Hypergraph::Pyramid(3)}) {
    // Exact path (what the library does).
    Stopwatch sw;
    auto r = OmegaSubw(h, Rational(2371552, 1000000));
    const double exact_s = sw.Seconds();
    bench::Row(h.ToString().substr(0, 30), "exact rational",
               r.value.ToString(),
               bench::Fmt(exact_s) + " s, " + std::to_string(r.lps_solved) +
                   " LPs (double search + 1 exact certify)");
  }
}

void OmegaThreeCollapse() {
  std::printf("\n");
  bench::Header("Ablation 2: MM off (omega=3) — Prop. 4.10 collapse");
  for (const Hypergraph& h : {Hypergraph::Triangle(), Hypergraph::Clique(4),
                              Hypergraph::Pyramid(3),
                              Hypergraph::LemmaC15()}) {
    auto subw = SubmodularWidth(h);
    auto osubw = OmegaSubw(h, Rational(3));
    bench::Row(h.ToString().substr(0, 30), subw.value.ToString(),
               osubw.value.ToString(),
               subw.value == osubw.value ? "EQUAL" : "DIFFER");
  }
}

void SearchAblation() {
  std::printf("\n");
  bench::Header("Ablation 3: width search strategy (4-clique, w=2.3716)");
  const Rational omega(2371552, 1000000);
  {
    Stopwatch sw;
    OmegaSubwOptions full;
    full.full_enumeration = true;
    auto r = OmegaSubwClustered(Hypergraph::Clique(4), omega, full);
    bench::Row("full enumeration", "59049 LPs",
               std::to_string(r.lps_solved) + " LPs",
               bench::Fmt(sw.Seconds()) + " s");
  }
  {
    Stopwatch sw;
    auto r = OmegaSubwClustered(Hypergraph::Clique(4), omega);
    bench::Row("coord-ascent + B&B", "same value",
               std::to_string(r.lps_solved) + " LPs",
               bench::Fmt(sw.Seconds()) + " s");
  }
}

}  // namespace
}  // namespace fmmsw

int main() {
  fmmsw::LpBackendAblation();
  fmmsw::OmegaThreeCollapse();
  fmmsw::SearchAblation();
  return 0;
}
