#ifndef FMMSW_BENCH_BENCH_UTIL_H_
#define FMMSW_BENCH_BENCH_UTIL_H_

/// \file
/// Shared helpers for the table/figure reproduction binaries: uniform
/// "paper=... ours=..." rows (the paper's value next to the measured one),
/// one timing protocol (Sample), log-log slope fitting with a confidence
/// interval for runtime shape checks, the triangle sweeps' instance, and a
/// --json mode that emits one machine-readable line per measurement for
/// BENCH_*.json trajectories.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/exec_context.h"
#include "relation/generators.h"
#include "util/stopwatch.h"

namespace fmmsw {
namespace bench {

/// Set by Init when the binary is invoked with --json.
inline bool json_mode = false;

/// Upper bound on a sweep step's size: for a query sweep, the instance's
/// total tuple count N (QueryInput::TotalSize); sweep loops skip larger
/// steps. Set with --max-n <N> (CI runs the benches at a small fixed N to
/// record BENCH_*.json trajectories without paying full-sweep time).
inline long long max_n = (1LL << 62);

/// Parses shared benchmark flags (call at the top of main).
inline void Init(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_mode = true;
    if (std::strcmp(argv[i], "--max-n") == 0 && i + 1 < argc) {
      max_n = std::atoll(argv[++i]);
    }
  }
}

/// True if a sweep step of size n should run under the --max-n cap.
inline bool StepEnabled(long long n) { return n <= max_n; }

/// One machine-readable measurement line:
///   {"name":"triangle","n":242323,"kernel":"wcoj","wall_ms":293.1,
///    "index_build_ms":12.4,"sort_ms":3.1}
/// index_build_ms (aggregate flat-index construction time, from the
/// ExecStats::index_build_ns delta) and sort_ms (aggregate wide-key
/// sort-layer time, from the ExecStats::sort_ns delta) are each summed
/// across workers, so they can exceed wall_ms when the phases run
/// concurrently inside parallel regions; each is emitted when the caller
/// passes a non-negative value. `extra`, when non-empty, is a raw JSON
/// fragment (e.g. "\"lps_solved\":12") spliced in before the closing
/// brace — the planner benches use it for LP counters. Emitted only in
/// --json mode; human-readable output stays as-is, so consumers should
/// filter for lines starting with '{'.
inline void Json(const std::string& name, long long n,
                 const std::string& kernel, double wall_ms,
                 double index_build_ms = -1.0, double sort_ms = -1.0,
                 const std::string& extra = "") {
  if (!json_mode) return;
  std::string line = "{\"name\":\"" + name + "\",\"n\":" + std::to_string(n) +
                     ",\"kernel\":\"" + kernel + "\"";
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"wall_ms\":%.6f", wall_ms);
  line += buf;
  if (index_build_ms >= 0) {
    std::snprintf(buf, sizeof(buf), ",\"index_build_ms\":%.6f",
                  index_build_ms);
    line += buf;
  }
  if (sort_ms >= 0) {
    std::snprintf(buf, sizeof(buf), ",\"sort_ms\":%.6f", sort_ms);
    line += buf;
  }
  if (!extra.empty()) line += "," + extra;
  std::printf("%s}\n", line.c_str());
}

/// One sampled measurement: the median and quartiles of the timed calls'
/// wall milliseconds, the median per-call aggregate phase milliseconds
/// (the context's index_build_ns / sort_ns deltas; see Json above for the
/// summed-across-workers caveat), the median per-call counts of
/// relations the generic join gave a direct top level and last-level
/// bitmaps (the ExecStats::wcoj_top_index / wcoj_bitmap_relations deltas),
/// and the most generic-join runs any call ended before building a trie
/// (the ExecStats::wcoj_empty_candidates delta).
struct Timing {
  double median_ms = 0, q1_ms = 0, q3_ms = 0;
  double index_build_ms = 0, sort_ms = 0;
  int64_t wcoj_top_index = 0;
  int64_t wcoj_bitmap_relations = 0;
  int64_t wcoj_empty_candidates = 0;
};

/// The one timing protocol: kWarmups untimed calls (arena growth, index
/// caches, first-touch pages), then kSamples timed ones.
constexpr int kWarmups = 1;
constexpr int kSamples = 5;

/// Linear-interpolated p-quantile of `v` (sorted in place).
inline double Quantile(std::vector<double>& v, double p) {
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Runs f under the protocol above against `ec`.
inline Timing Sample(ExecContext& ec, const std::function<void()>& f) {
  for (int i = 0; i < kWarmups; ++i) f();
  std::vector<double> wall, index_build, sort, top_index, bitmaps;
  int64_t empty = 0;
  for (int i = 0; i < kSamples; ++i) {
    const int64_t ib0 = ec.stats().index_build_ns.load();
    const int64_t sort0 = ec.stats().sort_ns.load();
    const int64_t top0 = ec.stats().wcoj_top_index.load();
    const int64_t bitmaps0 = ec.stats().wcoj_bitmap_relations.load();
    const int64_t empty0 = ec.stats().wcoj_empty_candidates.load();
    Stopwatch sw;
    f();
    wall.push_back(sw.Millis());
    index_build.push_back(
        static_cast<double>(ec.stats().index_build_ns.load() - ib0) * 1e-6);
    sort.push_back(static_cast<double>(ec.stats().sort_ns.load() - sort0) *
                   1e-6);
    top_index.push_back(
        static_cast<double>(ec.stats().wcoj_top_index.load() - top0));
    bitmaps.push_back(static_cast<double>(
        ec.stats().wcoj_bitmap_relations.load() - bitmaps0));
    empty = std::max(empty, ec.stats().wcoj_empty_candidates.load() - empty0);
  }
  Timing t;
  t.wcoj_empty_candidates = empty;
  t.q1_ms = Quantile(wall, 0.25);
  t.median_ms = Quantile(wall, 0.5);
  t.q3_ms = Quantile(wall, 0.75);
  t.index_build_ms = Quantile(index_build, 0.5);
  t.sort_ms = Quantile(sort, 0.5);
  t.wcoj_top_index = static_cast<int64_t>(Quantile(top_index, 0.5));
  t.wcoj_bitmap_relations = static_cast<int64_t>(Quantile(bitmaps, 0.5));
  return t;
}

/// A measurement line for a sampled Timing: wall_ms is the median,
/// iqr_ms = q3 - q1 its spread, wcoj_top_index / wcoj_bitmap_relations
/// the per-call counts of relations that took the direct top level and
/// last-level bitmaps, and wcoj_empty_candidates the runs that ended
/// before building a trie.
inline void Json(const std::string& name, long long n,
                 const std::string& kernel, const Timing& t,
                 const std::string& extra = "") {
  char sampled[192];
  std::snprintf(sampled, sizeof(sampled),
                "\"iqr_ms\":%.6f,\"wcoj_top_index\":%lld,"
                "\"wcoj_bitmap_relations\":%lld,"
                "\"wcoj_empty_candidates\":%lld",
                t.q3_ms - t.q1_ms, static_cast<long long>(t.wcoj_top_index),
                static_cast<long long>(t.wcoj_bitmap_relations),
                static_cast<long long>(t.wcoj_empty_candidates));
  Json(name, n, kernel, t.median_ms, t.index_build_ms, t.sort_ms,
       extra.empty() ? std::string(sampled)
                     : std::string(sampled) + "," + extra);
}

inline void Header(const std::string& title) {
  std::printf("==== %s ====\n", title.c_str());
}

inline void Row(const std::string& label, const std::string& paper,
                const std::string& ours, const std::string& note = "") {
  std::printf("%-34s paper=%-18s ours=%-18s %s\n", label.c_str(),
              paper.c_str(), ours.c_str(), note.c_str());
}

inline std::string Fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

/// A fitted log-log slope — the measured exponent — with the half-width
/// of its 95% confidence interval. Both are NaN below 3 points, where the
/// interval has no degrees of freedom.
struct Fit {
  double slope = NAN, ci95 = NAN;
  int points = 0;
};

/// Least-squares slope of log(time) vs log(n), with ci95 = t(0.975, n-2)
/// times the slope's standard error.
inline Fit FitSlope(const std::vector<double>& ns,
                    const std::vector<double>& ts) {
  Fit fit;
  fit.points = static_cast<int>(ns.size());
  const int n = fit.points;
  if (n < 3) return fit;
  double mx = 0, my = 0;
  for (int i = 0; i < n; ++i) {
    mx += std::log(ns[i]) / n;
    my += std::log(ts[i]) / n;
  }
  double sxx = 0, sxy = 0;
  for (int i = 0; i < n; ++i) {
    const double dx = std::log(ns[i]) - mx, dy = std::log(ts[i]) - my;
    sxx += dx * dx;
    sxy += dx * dy;
  }
  fit.slope = sxy / sxx;
  double ssr = 0;
  for (int i = 0; i < n; ++i) {
    const double r = std::log(ts[i]) - my -
                     fit.slope * (std::log(ns[i]) - mx);
    ssr += r * r;
  }
  // Two-sided 97.5% Student t quantiles for 1..10 degrees of freedom;
  // past that 1.96 + 2.5/df is within 1%.
  static constexpr double kT975[] = {12.706, 4.303, 3.182, 2.776, 2.571,
                                     2.447,  2.365, 2.306, 2.262, 2.228};
  const int df = n - 2;
  const double t = df <= 10 ? kT975[df - 1] : 1.96 + 2.5 / df;
  fit.ci95 = t * std::sqrt(ssr / df / sxx);
  return fit;
}

/// `v` as Fmt does, or "n/a" when it is NaN.
inline std::string FmtOrNa(double v) { return std::isnan(v) ? "n/a" : Fmt(v); }

/// The triangle sweeps' instance: Lemma C.5's hard regime. R(X,Y),
/// S(Y,Z) and T(X,Z) are ~n uniform draws from a sqrt(n) x sqrt(n) dense
/// square, so every value is heavy (degree ~sqrt(n)). Sum parity makes
/// the instance triangle-free: R keeps x + y even, S keeps y + z even and
/// T keeps x + z odd. Every variable keeps both parities in both of its
/// relations, so no light corner of the Figure-1 split is empty and none
/// answers alone (a parity split of one variable between its two
/// relations would empty that variable's corner).
inline QueryInput TriangleInstance(int64_t n) {
  const int64_t d = std::max<int64_t>(
      4, static_cast<int64_t>(std::sqrt(static_cast<double>(n))));
  Rng rng(19);
  QueryInput db;
  for (VarSet schema : {VarSet{0, 1}, VarSet{1, 2}, VarSet{0, 2}}) {
    const Relation raw = UniformRelation(schema, n, d, &rng);
    const int parity = schema == VarSet{0, 2} ? 1 : 0;
    Relation rel(schema);
    for (size_t i = 0; i < raw.size(); ++i) {
      if ((raw.Row(i)[0] + raw.Row(i)[1]) % 2 == parity) {
        rel.AddRow(raw.Row(i));
      }
    }
    db.relations.push_back(std::move(rel));
  }
  return db;
}

}  // namespace bench
}  // namespace fmmsw

#endif  // FMMSW_BENCH_BENCH_UTIL_H_
