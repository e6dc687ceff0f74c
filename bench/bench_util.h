#ifndef FMMSW_BENCH_BENCH_UTIL_H_
#define FMMSW_BENCH_BENCH_UTIL_H_

/// \file
/// Shared helpers for the table/figure reproduction binaries: uniform
/// "paper=... ours=..." rows (consumed by EXPERIMENTS.md), log-log slope
/// fitting for runtime shape checks, and a --json mode that emits one
/// machine-readable line per measurement for BENCH_*.json trajectories.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/exec_context.h"
#include "util/stopwatch.h"

namespace fmmsw {
namespace bench {

/// Set by Init when the binary is invoked with --json.
inline bool json_mode = false;

/// Upper bound on the per-step instance size N; sweep loops skip larger
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

/// Times `reps` runs of f against `ec`, returning mean wall seconds and
/// storing the mean per-rep aggregate phase milliseconds (the context's
/// index_build_ns / sort_ns deltas; see Json above for the
/// summed-across-workers caveat) in the non-null out-params — how the
/// per-phase index-construction and sort-layer times are split out of the
/// end-to-end numbers.
inline double TimeWithPhases(ExecContext& ec, const std::function<bool()>& f,
                             int reps, double* index_build_ms,
                             double* sort_ms = nullptr) {
  const int64_t ns0 = ec.stats().index_build_ns.load();
  const int64_t sort0 = ec.stats().sort_ns.load();
  Stopwatch sw;
  bool sink = false;
  for (int i = 0; i < reps; ++i) sink ^= f();
  (void)sink;
  const double wall = sw.Seconds() / reps;
  if (index_build_ms != nullptr) {
    *index_build_ms =
        static_cast<double>(ec.stats().index_build_ns.load() - ns0) * 1e-6 /
        reps;
  }
  if (sort_ms != nullptr) {
    *sort_ms =
        static_cast<double>(ec.stats().sort_ns.load() - sort0) * 1e-6 / reps;
  }
  return wall;
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

/// Least-squares slope of log(time) vs log(n) — the measured exponent.
inline double FitSlope(const std::vector<double>& ns,
                       const std::vector<double>& ts) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const int n = static_cast<int>(ns.size());
  for (int i = 0; i < n; ++i) {
    const double x = std::log(ns[i]), y = std::log(ts[i]);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

}  // namespace bench
}  // namespace fmmsw

#endif  // FMMSW_BENCH_BENCH_UTIL_H_
