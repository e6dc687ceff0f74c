#ifndef FMMSW_MM_COST_MODEL_H_
#define FMMSW_MM_COST_MODEL_H_

/// \file
/// The MM cost model: omega-square(a,b,c) (Eq. 6) on a log_N scale, and
/// the operation count of one concrete product. The triangle engine's
/// degree split (engine/triangle.h) reads it: TriangleMm weighs each
/// candidate threshold's light-corner probes against its heavy core's
/// Boolean PredictedMmOps, converted by the weight below (paper Section
/// 1.1.2: low-degree parts favor combinatorial processing, high-degree
/// parts favor MM).

#include <cstdint>

namespace fmmsw {

/// Probe-to-MM-op weight: how many PredictedMmOps operations cost as much
/// as one fused light-corner probe (a hash lookup plus an existence check).
/// Measured on e2e_bench/CALIBRATION.md's tri_dense row: about 25 ns per
/// fused probe (the boolean rung) against about 0.11 ns per counting-MM
/// multiply-add (the count request's full-domain product), a ratio near
/// 230. The bit-packed Boolean kernel does one word operation per 64
/// cells, so the weight is 64 x 32: the 32 sits well below that ratio,
/// and the split under-credits MM rather than over-credits it.
constexpr double kBooleanMmOpsPerProbe = 2048.0;

/// Exponent of multiplying n^a x n^b by n^b x n^c via square blocking.
double OmegaSquareExponent(double a, double b, double c, double omega);

/// Predicted scalar-operation count for multiplying an (m x k) by (k x n)
/// matrix by square blocking (Eq. 6): (m/d)(k/d)(n/d) blocks of d^omega
/// operations each, d the smallest dimension.
double PredictedMmOps(int64_t m, int64_t k, int64_t n, double omega);

}  // namespace fmmsw

#endif  // FMMSW_MM_COST_MODEL_H_
