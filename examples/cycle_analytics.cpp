// Domain example: 4-cycle detection across a star-schema-ish pipeline —
// "customers who bought a product also reviewed by a customer in the same
// city" style chains close into 4-cycles. Compares the three plans the
// paper discusses for Q_square: the single tree decomposition (N^2), the
// degree-partitioned combinatorial plan (N^{3/2}, the submodular-width
// story of Section 1.1.1), and the MM hybrid.
//
//   $ ./build/examples/cycle_analytics [tuples_per_relation]

#include <cstdio>
#include <cstdlib>

#include "core/exec_context.h"
#include "engine/four_cycle.h"
#include "relation/generators.h"
#include "util/stopwatch.h"

int main(int argc, char** argv) {
  using namespace fmmsw;
  const int64_t n = argc > 1 ? std::atoll(argv[1]) : 20000;

  WorkloadOptions opts;
  opts.kind = WorkloadKind::kZipf;
  opts.tuples_per_relation = n;
  opts.domain = n / 4;
  opts.zipf_alpha = 1.3;
  opts.seed = 99;
  Hypergraph q = Hypergraph::Cycle(4);
  QueryInput db = MakeWorkload(q, opts);
  std::printf("4-cycle query %s\n", q.ToString().c_str());
  std::printf("instance: N = %zu tuples (Zipf)\n\n", db.TotalSize());
  ExecContext ctx;

  Stopwatch sw;
  const bool a = FourCycleTd(db, &ctx);
  std::printf("%-34s %-6s %.4f s\n", "single TD (fhtw plan, N^2):",
              a ? "true" : "false", sw.Seconds());

  sw.Reset();
  FourCycleStats cstats;
  const bool b = FourCycleCombinatorial(db, &cstats, &ctx);
  std::printf("%-34s %-6s %.4f s  (heavy probes %lld, light pairs %lld)\n",
              "degree-partitioned (subw, N^1.5):", b ? "true" : "false",
              sw.Seconds(), static_cast<long long>(cstats.heavy_probes),
              static_cast<long long>(cstats.light_pairs));

  sw.Reset();
  FourCycleStats mstats;
  const bool c = FourCycleMm(db, 2.371552, &mstats, &ctx);
  std::printf("%-34s %-6s %.4f s  (mm dims %lldx%lldx%lld)\n",
              "MM hybrid (w-subw):", c ? "true" : "false", sw.Seconds(),
              static_cast<long long>(mstats.mm_dims[0]),
              static_cast<long long>(mstats.mm_dims[1]),
              static_cast<long long>(mstats.mm_dims[2]));

  std::printf("\nexecution stats:\n%s", ctx.stats().ToString().c_str());
  return (a == b && b == c) ? 0 : 1;
}
