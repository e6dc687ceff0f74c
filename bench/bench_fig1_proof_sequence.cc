// E3 — Figure 1: the proof sequence for the Shannon inequality (13) and
// the triangle algorithm derived from it. Prints the inequality, verifies
// it by LP over the Shannon cone, replays the proof sequence symbolically,
// then executes the derived algorithm and cross-checks it against the
// combinatorial join on three workload regimes.

#include <cstdio>

#include "bench_util.h"
#include "engine/triangle.h"
#include "engine/wcoj.h"
#include "panda/executor.h"
#include "panda/inequality.h"
#include "panda/proof.h"
#include "relation/generators.h"

namespace fmmsw {
namespace {

const char* StepName(ProofStepKind k) {
  switch (k) {
    case ProofStepKind::kDecomposition:
      return "decomposition";
    case ProofStepKind::kComposition:
      return "composition  ";
    case ProofStepKind::kMonotonicity:
      return "monotonicity ";
    case ProofStepKind::kSubmodularity:
      return "submodularity";
  }
  return "?";
}

void Run() {
  const Rational omega(2371552, 1000000);
  bench::Header("Figure 1: proof sequence for inequality (13)");
  auto ineq = TriangleInequality(omega);
  std::printf("inequality (13) at w = %s:\n", omega.ToString().c_str());
  std::printf("  w h(XYZ) + [h(X) + h(Y) + (w-2) h(Z)]\n");
  std::printf("    <= 2 h(XY) + (w-1) h(YZ) + (w-1) h(XZ)\n");
  bench::Row("w-dominance (Def E.1/E.3)", "holds",
             CheckDominance(ineq, omega) ? "holds" : "VIOLATED");
  // Run the Shannon-cone LP on a private context so the planner counters
  // (lps_solved / lp_warm_starts / plan time) are this check's alone.
  ExecContext ec;
  Stopwatch plan_sw;
  const bool shannon_ok = VerifyShannon(ineq, VarSet::Full(3), &ec);
  const double plan_ms = plan_sw.Seconds() * 1000.0;
  bench::Row("Shannon validity (LP over cone)", "valid",
             shannon_ok ? "valid" : "INVALID");
  char planner[128];
  std::snprintf(planner, sizeof(planner),
                "lps_solved=%lld lp_warm_starts=%lld plan_ms=%.2f",
                static_cast<long long>(ec.stats().lp_solves.load()),
                static_cast<long long>(ec.stats().lp_warm_starts.load()),
                plan_ms);
  bench::Row("planner counters (LP verify)", "-", planner);

  auto seq = TriangleProofSequence(omega);
  std::printf("\nproof sequence (%zu primitive steps; Figure 1 rows are\n"
              "submodularity+composition pairs):\n",
              seq.steps.size());
  const std::vector<std::string> names = {"X", "Y", "Z"};
  for (const ProofStep& s : seq.steps) {
    std::printf("  %s  x=%-6s y=%-6s z=%-6s c=%-6s weight=%s\n",
                StepName(s.kind), s.x.ToString(&names).c_str(),
                s.y.ToString(&names).c_str(), s.z.ToString(&names).c_str(),
                s.c.ToString(&names).c_str(), s.weight.ToString().c_str());
  }
  bench::Row("sequence replays RHS -> LHS", "verified",
             VerifyProofSequence(ineq, seq, omega) ? "verified" : "FAILED");

  std::printf("\nderived algorithm vs combinatorial join:\n");
  for (WorkloadKind kind : {WorkloadKind::kUniform, WorkloadKind::kZipf,
                            WorkloadKind::kDense}) {
    const char* kname = kind == WorkloadKind::kUniform ? "uniform"
                        : kind == WorkloadKind::kZipf  ? "zipf"
                                                       : "dense";
    int agree = 0, total = 0;
    for (uint64_t seed = 0; seed < 10; ++seed) {
      WorkloadOptions opts;
      opts.kind = kind;
      opts.tuples_per_relation = 400;
      opts.domain = kind == WorkloadKind::kDense ? 25 : 60;
      opts.seed = seed;
      opts.plant_witness = seed % 2 == 0;
      QueryInput db = MakeWorkload(Hypergraph::Triangle(), opts);
      PandaStats stats;
      const bool derived =
          PandaTriangleBoolean(db, 2.371552, &stats);
      const bool baseline = WcojBoolean(Hypergraph::Triangle(), db);
      ++total;
      if (derived == baseline) ++agree;
    }
    bench::Row(std::string("agreement (") + kname + ")",
               "10/10", std::to_string(agree) + "/" + std::to_string(total));
  }
}

}  // namespace
}  // namespace fmmsw

int main() {
  fmmsw::Run();
  return 0;
}
