#ifndef FMMSW_ENGINE_STRATEGY_H_
#define FMMSW_ENGINE_STRATEGY_H_

/// \file
/// Capability metadata for the evaluation strategies — the raw material
/// of the recovery plane's degradation ladders (core/recovery.h).
///
/// The paper's central observation is that one query admits a spectrum
/// of strategies with very different memory/time profiles: the
/// MM-hybrids materialize dense matrices and packed panels (fast, but
/// memory-hungry), while the plain worst-case-optimal join streams over
/// sorted tries with only per-worker stacks. A StrategyCard records
/// where each strategy sits on that spectrum; the ladders below order
/// them by *descending* memory appetite, so a query that trips its
/// memory budget on one rung retries on the next-cheaper rung and the
/// last rung (plain WCOJ) needs essentially no transient memory beyond
/// its input indexes.
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
  /// Counting/boolean kernel the rung dispatches (meaningful iff uses_mm).
  MmKernel kernel = MmKernel::kBoolean;
  /// The kernel's exponent, for the degree-split hybrids (meaningful iff
  /// uses_mm): TriangleMm prices its heavy core's product with it and
  /// takes Delta0 = N^{(omega-1)/(omega+1)} as the worst-case candidate
  /// among the thresholds it chooses from.
  double omega = 3.0;
  int memory_rank = 0;
};

/// Degradation ladder for triangle *counting*:
/// Strassen counting product -> blocked cubic GEMM -> bit-sliced 0/1
/// product -> plain WCOJ count. Ordered by descending memory appetite.
const std::vector<StrategyCard>& TriangleCountLadder();

/// Degradation ladder for the *Boolean* triangle query:
/// Strassen-thresholded hybrid -> bit-packed Boolean product hybrid ->
/// plain WCOJ.
const std::vector<StrategyCard>& TriangleBooleanLadder();

/// Degradation ladder for a generic Boolean query, by EvalStrategy name
/// ("elimination" -> "best-td" -> "wcoj"): the GVEO interpreter and TD
/// plans materialize bags, the WCOJ streams.
const std::vector<StrategyCard>& GenericBooleanLadder();

/// True iff `h` is exactly the paper's triangle query in its canonical
/// layout (Hypergraph::Triangle(): vertices {X,Y,Z}, edges [XY, YZ, XZ]
/// in that order) — the layout the engine/triangle.h specializations
/// assume of their database argument.
bool IsTriangleQuery(const Hypergraph& h);

}  // namespace fmmsw

#endif  // FMMSW_ENGINE_STRATEGY_H_
