// E4-E7 — the runtime exponent table: for each query family, every plan's
// fitted log-log slope over an N-sweep of negative instances, next to the
// exponent the plan's closed form (width/closed_forms.h) predicts at the
// omega its kernel actually realizes. Both kernels (bit-packed Boolean,
// bit-sliced counting) are cubic, so that omega is 3 for every plan, and
// at omega = 3 omega-subw equals subw (Prop. 4.10). The engines' omega
// arguments only tune their thresholds, so a plan may pass 2.3716 to its
// engine and still be predicted at 3.
//
// Every (plan, N) is timed under bench::Sample's protocol. Every instance
// is negative by construction, so every call must answer false; every
// Figure-1 row must run the full split (TriangleStats::solo_corner == -1),
// not one light corner; no `wcoj` row may end before building a trie
// (ExecStats::wcoj_empty_candidates: a variable with no candidate would
// make the row an O(N) scan, so every instance leaves each variable one);
// the triangle and 4-clique `wcoj` rows must give some relation a
// direct-addressed top level (ExecStats::wcoj_top_index), and the
// 4-clique and pyramid `wcoj` rows some relation last-level bitmaps
// (ExecStats::wcoj_bitmap_relations).
// The binary exits non-zero if any check fails. --max-n caps the
// instances' total tuple count N.

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/api.h"
#include "engine/clique.h"
#include "engine/four_cycle.h"
#include "engine/pyramid.h"
#include "engine/strategy.h"
#include "engine/triangle.h"
#include "engine/wcoj.h"
#include "mm/kernel.h"
#include "panda/executor.h"
#include "query_shapes.h"
#include "relation/generators.h"
#include "width/closed_forms.h"

namespace fmmsw {
namespace {

namespace cf = closed_forms;

/// The omega every plan realizes: both MM kernels are cubic.
const Rational kCubicOmega(3);

/// One row of the table: a plan of its family's query.
struct Plan {
  std::string name;
  std::function<bool(const QueryInput&, ExecContext*, TriangleStats*)> run;
  Rational predicted;  ///< the plan's closed form at kCubicOmega
  /// Instances above this total N are skipped (0: no cap).
  int64_t max_total = 0;
  /// A TriangleMm run: its split must not degenerate to one solo corner.
  bool figure1 = false;
  /// A generic-join run: it must not end before building a trie.
  bool generic = false;
  /// A generic-join run that must give some relation a direct top level.
  bool top_index = false;
  /// A generic-join run that must give some relation last-level bitmaps.
  bool bitmaps = false;
};

/// A query family: the instance builder its sweep steps through, and the
/// plans timed on every instance.
struct Family {
  std::string name;
  std::vector<int64_t> steps;  ///< the builder's size parameter
  std::function<QueryInput(int64_t)> build;
  std::vector<Plan> plans;
};

/// A dense k-clique instance on `domain` values, clique-free via a parity
/// obstruction: every pair relation keeps even-sum pairs (all clique
/// vertices would share one parity) except R_{0,k-1}, which keeps odd-sum
/// pairs — contradiction, so no clique exists. A plan that joins pairwise
/// meets the obstruction only at the last join level, but the generic
/// join's candidate masks catch it well before the last level
/// (ExecStats::wcoj_pruned_bindings), so the `wcoj` rows stop far short
/// of their full work. Every value stays a candidate of every variable,
/// so WcojOrder keeps the index order and no run ends before its tries.
QueryInput CliqueInstance(int k, int64_t domain) {
  WorkloadOptions opts;
  opts.kind = WorkloadKind::kDense;
  opts.domain = domain;
  opts.dense_density = 0.9;
  opts.seed = 29;
  QueryInput db = MakeWorkload(Hypergraph::Clique(k), opts);
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
  return db;
}

Plan Wcoj(const Hypergraph& h, const Rational& predicted,
          int64_t max_total = 0, bool top_index = false,
          bool bitmaps = false) {
  return {"wcoj",
          [h](const QueryInput& db, ExecContext* ec, TriangleStats*) {
            return WcojBoolean(h, db, ec);
          },
          predicted, max_total, false, true, top_index, bitmaps};
}

/// The public path, EvaluateBooleanWithRecovery with default limits; a
/// failed evaluation reads as a wrong answer.
Plan Public(const Hypergraph& h, const Rational& predicted) {
  return {"public",
          [h](const QueryInput& db, ExecContext* ec, TriangleStats*) {
            bool answer = true;
            return !EvaluateBooleanWithRecovery(h, db, &answer, ec).ok() ||
                   answer;
          },
          predicted};
}

/// The Figure-1 triangle split on the Boolean kernel; the engine's omega
/// sets the split's worst-case threshold and prices its product.
Plan Figure1() {
  return {"mm_boolean",
          [](const QueryInput& db, ExecContext* ec, TriangleStats* st) {
            return TriangleMm(db, 2.371552, MmKernel::kBoolean, st, ec);
          },
          cf::OmegaSubwTriangle(kCubicOmega), 0, true};
}

Plan CliqueMmPlan(int k) {
  return {"mm_boolean",
          [k](const QueryInput& db, ExecContext* ec, TriangleStats*) {
            return CliqueMm(k, db, nullptr, ec);
          },
          cf::OmegaSubwClique(k, kCubicOmega)};
}

std::vector<Family> Table() {
  const Rational& w3 = kCubicOmega;
  std::vector<Family> t;
  t.push_back(
      {"triangle",
       {4000, 8000, 16000, 32000, 64000, 128000},
       bench::TriangleInstance,
       {Public(Hypergraph::Triangle(), cf::OmegaSubwTriangle(w3)),
        Wcoj(Hypergraph::Triangle(), cf::SubwTriangle(), 0, true),
        Figure1(),
        {"panda",
         [](const QueryInput& db, ExecContext* ec, TriangleStats*) {
           return PandaTriangleBoolean(db, 2.371552, nullptr, ec);
         },
         cf::OmegaSubwTriangle(w3)}}});
  t.push_back(
      {"four_cycle",
       {1000, 2000, 4000, 8000, 16000, 32000},
       FourCycleInstance,
       // The TD plan materializes R join S; its cap keeps the sweep within
       // laptop memory (its slope is fitted on the prefix). fhtw = 2 has
       // no closed form of its own.
       {Public(Hypergraph::Cycle(4), cf::SubwCycle(4)),
        Wcoj(Hypergraph::Cycle(4), cf::SubwCycle(4)),
        {"td",
         [](const QueryInput& db, ExecContext* ec, TriangleStats*) {
           return FourCycleTd(db, ec);
         },
         Rational(2), 8000},
        {"partitioned",
         [](const QueryInput& db, ExecContext* ec, TriangleStats*) {
           return FourCycleCombinatorial(db, nullptr, ec);
         },
         cf::SubwCycle(4)},
        {"mm",
         [](const QueryInput& db, ExecContext* ec, TriangleStats*) {
           return FourCycleMm(db, 2.371552, nullptr, ec);
         },
         cf::PriorCycle4(w3)}}});
  t.push_back(
      {"pyramid",
       {1000, 2000, 4000, 8000, 16000},
       PyramidInstance,
       {Public(Hypergraph::Pyramid(3), cf::SubwPyramid(3)),
        Wcoj(Hypergraph::Pyramid(3), cf::SubwPyramid(3), 0, false, true),
        {"mm",
         [](const QueryInput& db, ExecContext* ec, TriangleStats*) {
           return Pyramid3Mm(db, 2.371552, nullptr, ec);
         },
         cf::OmegaSubwPyramid3(w3)}}});
  // Ears raise no width: the public path, which reduces them first,
  // should follow the triangle core's closed form, while WCOJ alone pays
  // rho* = 5/2 (quadratic on this instance; capped to keep the sweep
  // short).
  const Hypergraph pendant = TrianglePendantQuery();
  t.push_back({"triangle_pendant",
               {500, 1000, 2000, 4000, 8000, 16000, 32000},
               TrianglePendantNegative,
               {Public(pendant, cf::OmegaSubwTriangle(w3)),
                Wcoj(pendant, Rational(5, 2), 20000)}});
  for (int k : {3, 4, 5, 6}) {
    t.push_back({"clique_k" + std::to_string(k),
                 k <= 4 ? std::vector<int64_t>{24, 36, 54, 80, 120}
                        : std::vector<int64_t>{12, 18, 27, 40},
                 [k](int64_t domain) { return CliqueInstance(k, domain); },
                 {Public(Hypergraph::Clique(k), cf::SubwClique(k)),
                  Wcoj(Hypergraph::Clique(k), cf::SubwClique(k), 0, k == 4,
                       k == 4),
                  CliqueMmPlan(k)}});
  }
  return t;
}

/// Sweeps one family; returns false if any call answered true, any
/// Figure-1 row ran a solo corner, a generic-join row ended before
/// building a trie, a `top_index` row took no direct top level or a
/// `bitmaps` row gave no relation bitmaps.
bool Run(const Family& family, ExecContext& ec) {
  bench::Header(family.name + ": fitted exponent per plan (negative "
                "instances)");
  const size_t plans = family.plans.size();
  std::vector<std::vector<double>> ns(plans), ts(plans);
  bool ok = true;
  for (int64_t step : family.steps) {
    const QueryInput db = family.build(step);
    const long long total = static_cast<long long>(db.TotalSize());
    if (!bench::StepEnabled(total)) continue;
    for (size_t p = 0; p < plans; ++p) {
      const Plan& plan = family.plans[p];
      if (plan.max_total > 0 && total > plan.max_total) continue;
      bool answered_true = false, solo = false;
      TriangleStats st;
      const bench::Timing t = bench::Sample(ec, [&] {
        answered_true |= plan.run(db, &ec, &st);
        solo |= plan.figure1 && st.solo_corner != -1;
      });
      const bool empty = plan.generic && t.wcoj_empty_candidates > 0;
      const bool no_top = plan.top_index && t.wcoj_top_index == 0;
      const bool no_bitmaps = plan.bitmaps && t.wcoj_bitmap_relations == 0;
      ns[p].push_back(static_cast<double>(total));
      ts[p].push_back(t.median_ms);
      std::string extra;
      if (plan.figure1) {
        extra = "\"solo_corner\":" + std::to_string(st.solo_corner) +
                ",\"delta\":" + std::to_string(st.delta) +
                ",\"delta_worst_case\":" + std::to_string(st.delta_worst_case);
      }
      bench::Json(family.name, total, plan.name, t, extra);
      std::printf(
          "  N=%-8lld %-14s median %10.3f ms  iqr %8.3f ms%s%s%s%s%s\n",
          total, plan.name.c_str(), t.median_ms, t.q3_ms - t.q1_ms,
          answered_true ? "  ANSWERED TRUE" : "",
          solo ? "  SOLO CORNER" : "", empty ? "  EMPTY CANDIDATES" : "",
          no_top ? "  NO TOP INDEX" : "", no_bitmaps ? "  NO BITMAPS" : "");
      ok &= !answered_true && !solo && !empty && !no_top && !no_bitmaps;
    }
  }
  for (size_t p = 0; p < plans; ++p) {
    const Plan& plan = family.plans[p];
    const bench::Fit fit = bench::FitSlope(ns[p], ts[p]);
    const std::string slope = bench::FmtOrNa(fit.slope);
    const std::string ci95 = bench::FmtOrNa(fit.ci95);
    bench::Row(family.name + " " + plan.name,
               bench::Fmt(plan.predicted.ToDouble()) + " (w=" +
                   bench::Fmt(kCubicOmega.ToDouble()) + ")",
               std::isnan(fit.slope) ? slope : slope + " +/- " + ci95,
               "fitted over " + std::to_string(fit.points) + " N");
    if (!bench::json_mode) continue;
    const auto quoted = [](double v, const std::string& s) {
      return std::isnan(v) ? "\"" + s + "\"" : s;
    };
    std::printf(
        "{\"name\":\"%s\",\"kernel\":\"%s\",\"points\":%d,\"slope\":%s,"
        "\"ci95\":%s,\"predicted\":%.6f,\"omega\":%.6f,\"threads\":%d,"
        "\"nproc\":%u}\n",
        family.name.c_str(), plan.name.c_str(), fit.points,
        quoted(fit.slope, slope).c_str(), quoted(fit.ci95, ci95).c_str(),
        plan.predicted.ToDouble(), kCubicOmega.ToDouble(), ec.threads(),
        std::thread::hardware_concurrency());
  }
  std::printf("\n");
  return ok;
}

}  // namespace
}  // namespace fmmsw

int main(int argc, char** argv) {
  fmmsw::bench::Init(argc, argv);
  fmmsw::ExecContext ec;
  bool ok = true;
  for (const fmmsw::Family& family : fmmsw::Table()) {
    ok &= fmmsw::Run(family, ec);
  }
  if (!ok) {
    std::fprintf(stderr, "bench_exponents: a negative instance answered "
                         "true, a Figure-1 row ran a solo corner or a "
                         "wcoj row ended before building a trie, took no "
                         "direct top level or no bitmaps\n");
  }
  return ok ? 0 : 1;
}
