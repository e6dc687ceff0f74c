// Domain example: triangle counting in a skewed "who-follows-whom" social
// graph — the workload the paper's introduction motivates. Power-law
// degree distributions create exactly the heavy/light split that the
// Figure-1 algorithm exploits: celebrity accounts (heavy) go through the
// matrix product, the long tail (light) through cheap joins. The engine
// places the split where its cost prediction on this graph's degrees is
// least, and reports it next to the worst-case threshold. The exact count
// reads the bit-sliced counts at the cells of T only. Exits 1 if the MM
// and WCOJ answers differ (ctest runs it as social_triangles_smoke).
//
//   $ ./build/social_triangles [num_edges]

#include <cstdio>
#include <cstdlib>

#include "core/exec_context.h"
#include "engine/triangle.h"
#include "engine/wcoj.h"
#include "relation/degree.h"
#include "relation/generators.h"
#include "util/stopwatch.h"

int main(int argc, char** argv) {
  using namespace fmmsw;
  const int64_t edges = argc > 1 ? std::atoll(argv[1]) : 50000;
  const double omega = 2.371552;
  ExecContext ctx;  // pool + arenas + stats for every call below

  // One Zipf edge relation, used tripartitely (R, S, T are copies over
  // different variable pairs — the standard encoding of graph triangle
  // counting as the Q_triangle join).
  Rng rng(2026);
  Relation graph_r = ZipfRelation(VarSet{0, 1}, edges, edges / 8, 1.3, &rng);
  Relation graph_s(VarSet{1, 2});
  Relation graph_t(VarSet{0, 2});
  for (size_t i = 0; i < graph_r.size(); ++i) {
    graph_s.Add({graph_r.Row(i)[0], graph_r.Row(i)[1]});
    graph_t.Add({graph_r.Row(i)[0], graph_r.Row(i)[1]});
  }
  graph_s.SortAndDedupe();
  graph_t.SortAndDedupe();
  QueryInput db;
  db.relations = {graph_r, graph_s, graph_t};
  std::printf("social graph: %zu follow edges (Zipf 1.3)\n", graph_r.size());
  std::printf("max out-degree deg(Y|X) = %lld\n",
              static_cast<long long>(Degree(graph_r, VarSet{1}, VarSet{0})));

  Stopwatch sw;
  const bool any = TriangleMm(db, omega, MmKernel::kBoolean, nullptr, &ctx);
  const double mm_s = sw.Seconds();
  // Counters accumulate across runs on one context; snapshot before the
  // stats run so the printed probe count covers that run alone.
  const int64_t probed_before = ctx.stats().fused_probe_tuples.load();
  TriangleStats stats;
  TriangleMm(db, omega, MmKernel::kBoolean, &stats, &ctx);
  std::printf("\nMM hybrid: triangle %s in %.4f s\n",
              any ? "found" : "absent", mm_s);
  std::printf("  degree threshold: chosen %lld, worst-case %lld\n",
              static_cast<long long>(stats.delta),
              static_cast<long long>(stats.delta_worst_case));
  std::printf("  predicted probes: %lld light + %.0f MM (worst case %.0f)\n",
              static_cast<long long>(stats.predicted_light_pairs),
              stats.predicted_mm_ops, stats.predicted_ops_worst_case);
  std::printf("  heavy accounts: |Xh|=%lld |Yh|=%lld |Zh|=%lld\n",
              static_cast<long long>(stats.heavy_x),
              static_cast<long long>(stats.heavy_y),
              static_cast<long long>(stats.heavy_z));
  std::printf("  light-path candidates probed (not materialized): %lld\n",
              static_cast<long long>(ctx.stats().fused_probe_tuples.load() -
                                     probed_before));

  sw.Reset();
  const bool base = WcojBoolean(Hypergraph::Triangle(), db, &ctx);
  std::printf("combinatorial WCOJ: %s in %.4f s\n",
              base ? "found" : "absent", sw.Seconds());

  // Nothing is held between runs, so after a reset the tracked peak is
  // the count's own: its bit-packed operands.
  ctx.stats().Reset();
  sw.Reset();
  const int64_t count = TriangleCountMm(db, MmKernel::kBitSliced, &ctx);
  std::printf("exact triangle count (counting MM): %lld in %.4f s\n",
              static_cast<long long>(count), sw.Seconds());
  std::printf("  tracked memory peak: %.1f MB\n",
              static_cast<double>(ctx.stats().mem_peak_bytes.load()) / 1e6);
  sw.Reset();
  const int64_t wcoj_count = WcojCount(Hypergraph::Triangle(), db, &ctx);
  std::printf("combinatorial WCOJ count: %lld in %.4f s\n",
              static_cast<long long>(wcoj_count), sw.Seconds());
  return any == base && count == wcoj_count ? 0 : 1;
}
