#ifndef FMMSW_ENGINE_TRIANGLE_H_
#define FMMSW_ENGINE_TRIANGLE_H_

/// \file
/// The triangle query Q_triangle (Eq. 2) by the paper's Figure-1 algorithm,
/// running in ~O(N^{2w/(w+1)}) (the combinatorial O(N^{3/2}) baseline is
/// WcojBoolean(Hypergraph::Triangle(), ...)):
///
///   partition R on deg(Y|X), S on deg(Z|Y), T on deg(X|Z) at a threshold
///   Delta; triangles with a light corner are found by three N*Delta
///   joins; the all-heavy core (at most N/Delta values per corner) is
///   detected by one matrix multiplication.
///
/// The split is correct at any Delta (Theorem E.10). Delta0 =
/// N^{(w-1)/(w+1)} minimizes the worst-case bound 3 N Delta + (N/Delta)^w
/// and is where the exponent above comes from, but on a given input it can
/// be far from the cheapest. TriangleMm therefore reads each side's degree
/// profile (relation/degree.h) and predicts, for every candidate Delta
/// (Delta0, 0 and each degree that occurs), the light corners' probed pairs
/// plus the heavy core's fill and product (mm/cost_model.h). It runs the
/// least predicted candidate among those whose core operands fit Figure
/// 1's worst case, 2 (N/Delta0)^2 cells. Delta0 is always a candidate, so
/// the worst-case bound still holds; TriangleStats reports both thresholds
/// and the predictions.
///
/// A threshold at which some side has no heavy value empties the core,
/// and that side's light corner then holds every triangle (the degenerate
/// end of the heavy/light scheme: one binary join plus a semijoin). Such a
/// split is priced as the cheapest such corner's candidate pairs alone and
/// runs as one fused join on the unpartitioned relations, with no
/// partition and no product; TriangleStats::solo_corner names the corner.
/// Each side's largest degree is a candidate, so every solo corner is
/// priced.
///
/// The database layout follows Hypergraph::Triangle(): relations
/// [R(X,Y), S(Y,Z), T(X,Z)] with X=0, Y=1, Z=2.

#include "mm/kernel.h"
#include "relation/relation.h"

namespace fmmsw {

class ExecContext;

struct TriangleStats {
  /// The threshold the split ran at, and the worst-case one
  /// Delta0 = N^{(omega-1)/(omega+1)} it was chosen against.
  int64_t delta = 0, delta_worst_case = 0;
  /// The chosen split's predicted cost in fused-probe units: the light
  /// corners' candidate pairs (on a duplicate-free input exactly the
  /// fused_probe_tuples a negative instance runs), and the heavy core's
  /// fill plus product (0 when a heavy side is empty). A solo corner's
  /// light pairs are all of that corner's candidate pairs.
  int64_t predicted_light_pairs = 0;
  double predicted_mm_ops = 0;
  /// The same prediction, light plus MM, at Delta0. The chosen split's
  /// never exceeds it.
  double predicted_ops_worst_case = 0;
  /// Heavy values per side at delta, from the degree profiles (a solo
  /// corner partitions nothing, and its side's count is 0).
  int64_t heavy_x = 0, heavy_y = 0, heavy_z = 0;
  /// Surviving tuples of the fused light-corner joins (the filtered-away
  /// intermediate is never materialized; with limit 1 this is at most 1
  /// per corner).
  int64_t light_join_tuples = 0;
  int64_t mm_dim_x = 0, mm_dim_y = 0, mm_dim_z = 0;
  bool answer_from_light = false;
  /// 0, 1 or 2 when the X-, Y- or Z-side corner answered alone (its side
  /// had no heavy value at delta); -1 when the full split ran.
  int solo_corner = -1;
};

/// The Figure-1 algorithm. `omega` is the kernel's exponent: it sets the
/// worst-case threshold Delta0 = N^{(omega-1)/(omega+1)} and prices the
/// heavy core's product. Delta0 is one candidate; the engine runs the
/// split at the candidate with the least predicted cost on this input's
/// degree profiles (see the file comment). omega = 1 prices the product
/// near free and so favors an all-heavy core.
bool TriangleMm(const QueryInput& db, double omega,
                MmKernel kernel = MmKernel::kBoolean,
                TriangleStats* stats = nullptr, ExecContext* ctx = nullptr);

/// Triangle counting via integer matrix multiplication (trace of A^3 on
/// the heavy part is not enough for counts; this counts all triangles by
/// summing the entrywise product of (M1 x M2) with T). `kernel` must be
/// the counting kernel kBitSliced. The count ladder's MM rung; tests
/// cross-check it against WcojCount.
int64_t TriangleCountMm(const QueryInput& db, MmKernel kernel,
                        ExecContext* ctx = nullptr);

}  // namespace fmmsw

#endif  // FMMSW_ENGINE_TRIANGLE_H_
