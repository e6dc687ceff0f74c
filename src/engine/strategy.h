#ifndef FMMSW_ENGINE_STRATEGY_H_
#define FMMSW_ENGINE_STRATEGY_H_

/// \file
/// Capability metadata for the evaluation strategies — the raw material
/// of the recovery plane's degradation ladders (core/recovery.h).
///
/// A ladder lists the rungs RunWithRecovery tries in order: the first
/// rung is the plan picked for the query, and a rung that trips its
/// memory budget falls through to the next one, which always has a
/// strictly lower `memory_rank`. The last rung is plain WCOJ, which
/// streams over sorted tries and needs essentially no transient memory
/// beyond its input indexes. Higher memory appetite does not imply
/// higher speed, so the first rung is chosen per query shape rather
/// than by appetite (BooleanLadderFor): every Boolean rung removes ears
/// first (ReduceEars), the triangle's MM hybrid leads when the cyclic
/// core left is the triangle, and every other core runs WCOJ alone.
/// Each triangle ladder holds one MM rung: a rung that wins no measured
/// row is deleted.
///
/// Everything here is pure metadata — no ExecContext flows through, and
/// these functions never touch a database — so the ctx-threading lint
/// exempts them by name.

#include <string>
#include <vector>

#include "mm/kernel.h"

namespace fmmsw {

class Hypergraph;

/// One evaluation strategy's capability card. `memory_rank` is a
/// coarse, dimensionless ordering key (higher = hungrier); ladders sort
/// descending on it.
struct StrategyCard {
  std::string name;    ///< stable rung name (logs, RecoveryReport, tests)
  bool uses_mm = false;
  /// The MM operator the rung runs (meaningful iff uses_mm): kBoolean for
  /// TriangleMm's IndicatorProduct, kBitSliced for TriangleCountMm's
  /// IndicatorCounts. Each engine CHECKs that it gets its own.
  MmKernel kernel = MmKernel::kBoolean;
  /// The threshold exponent of the degree-split hybrids (meaningful iff
  /// uses_mm): TriangleMm prices its heavy core's product with it and
  /// takes Delta0 = N^{(omega-1)/(omega+1)} as the worst-case candidate
  /// among the thresholds it chooses from. It need not be the exponent
  /// the kernel realizes: the Boolean rung prices at log2 7 while its
  /// bit-packed kernel realizes 3, because priced at 3 its split picks a
  /// Delta > 0 that runs 1.6-2.3x slower than the Delta = 0 that log2 7
  /// picks (bench::TriangleInstance, N = 3.8k to 121k).
  double omega = 3.0;
  int memory_rank = 0;
};

/// Degradation ladder for triangle *counting*: bit-sliced 0/1 counts at
/// the cells T holds (TriangleCountMm) -> plain WCOJ count.
const std::vector<StrategyCard>& TriangleCountLadder();

/// Degradation ladder for the *Boolean* triangle query: the Figure-1
/// split over the bit-packed Boolean product, thresholded at log2 7
/// (TriangleMm) -> plain WCOJ.
const std::vector<StrategyCard>& TriangleBooleanLadder();

/// The Boolean query's ladder, picked from the shape of its cyclic core
/// (Hypergraph::Core, what ear removal leaves; no width rises in the
/// removal): the canonical triangle gets TriangleBooleanLadder(), and
/// every other core, an acyclic query's single edge included, gets
/// "wcoj" alone, the worst-case-optimal join.
const std::vector<StrategyCard>& BooleanLadderFor(const Hypergraph& h);

/// True iff `h` is exactly the paper's triangle query in its canonical
/// layout (Hypergraph::Triangle(): vertices {X,Y,Z}, edges [XY, YZ, XZ]
/// in that order) — the layout the engine/triangle.h specializations
/// assume of their database argument.
bool IsTriangleQuery(const Hypergraph& h);

}  // namespace fmmsw

#endif  // FMMSW_ENGINE_STRATEGY_H_
