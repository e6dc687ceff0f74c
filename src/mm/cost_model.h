#ifndef FMMSW_MM_COST_MODEL_H_
#define FMMSW_MM_COST_MODEL_H_

/// \file
/// The MM cost model used by the plan interpreter: omega-square(a,b,c)
/// (Eq. 6) on a log_N scale, plus concrete operation-count predictions for
/// choosing between a for-loop join and a matrix multiplication at
/// execution time (paper Section 1.1.2: low-degree parts favor
/// combinatorial processing, high-degree parts favor MM). It also drives
/// the triangle engine's degree split (engine/triangle.h): TriangleMm
/// weighs each candidate threshold's light-corner probes against its
/// heavy core's PredictedMmOps, converted by the weights below.

#include <cstdint>

namespace fmmsw {

/// Probe-to-MM-op weights: how many PredictedMmOps operations cost as much
/// as one fused light-corner probe (a hash lookup plus an existence check).
/// Measured on e2e_bench/CALIBRATION.md's tri_dense row: about 25 ns per
/// fused probe (the boolean rung) against about 0.11 ns per counting-MM
/// multiply-add (the count request's full-domain product), a ratio near
/// 230. The counting weight sits well below it, so the split under-credits
/// MM rather than over-credits it.
constexpr double kCountingMmOpsPerProbe = 32.0;
/// The bit-packed Boolean kernel does one word operation per 64 cells.
constexpr double kBooleanMmOpsPerProbe = 64.0 * kCountingMmOpsPerProbe;

/// Exponent of multiplying n^a x n^b by n^b x n^c via square blocking.
double OmegaSquareExponent(double a, double b, double c, double omega);

/// Predicted scalar-operation count for multiplying an (m x k) by (k x n)
/// matrix with the square-blocking Strassen kernel at the given omega.
double PredictedMmOps(int64_t m, int64_t k, int64_t n, double omega);

/// Predicted operation count for the combinatorial pairwise join with the
/// given input sizes and join selectivity-driven intermediate size.
double PredictedJoinOps(int64_t left, int64_t right, int64_t output);

}  // namespace fmmsw

#endif  // FMMSW_MM_COST_MODEL_H_
