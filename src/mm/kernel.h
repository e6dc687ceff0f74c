#ifndef FMMSW_MM_KERNEL_H_
#define FMMSW_MM_KERNEL_H_

/// \file
/// The matrix-multiply operator every engine calls, and the vectorized
/// micro-kernel layer under it.
///
/// Every non-combinatorial step of the paper's plans is one operation,
/// MM(X; Y; Z | G) (Section 2.5, Appendix E.6): multiply two 0/1 indicator
/// matrices built from relations and keep the non-zero cells.
/// IndicatorProduct is that operation. Engines mark operand cells, call
/// Multiply() once, and read cells of the product; the operator owns the
/// storage (bit-packed for kBoolean, int64 otherwise), charges it to the
/// memory budget, counts the product and picks the kernel. Below it:
///
///   - CountingProduct: the counting-kernel switch (Strassen, blocked
///     cubic, bit-sliced) — the only entry for a (+, x) product.
///   - GemmAddAt: a packed, register-blocked int64 panel product. A and B
///     are copied into contiguous tile-aligned scratch (MR x kc and
///     NR x kc strips, zero-padded edge tiles), then an unrolled micro
///     kernel accumulates MR x NR output tiles in registers. The inner
///     kernel is selected at runtime: AVX2 (64-bit lanes, the low-64 mul
///     emulated with three 32x32 vpmuludq products) when the CPU supports
///     it, a scalar strip kernel otherwise. Both accumulate with
///     well-defined mod-2^64 (unsigned) arithmetic, so every SIMD level
///     produces identical bits for any input, and all agree with
///     MultiplyNaive whenever its signed products and sums stay within
///     int64 (always true for indicator-derived matrices; naive's own
///     signed overflow would be UB).
///   - MultiplyBitSliced: a counting product for 0/1 indicator matrices.
///     Rows of A and columns of B are packed into bit-planes; out[i][j] is
///     the popcount of a word-AND, 64 multiply-adds per word op.
///
/// Dispatch: ActiveSimdLevel() probes the CPU once (cpuid via
/// __builtin_cpu_supports) and honors the FMMSW_SIMD environment variable
/// ("off"/"scalar" forces the scalar kernels, "avx2" requests AVX2,
/// clamped to what the hardware supports). Tests drive both paths
/// in-process through the explicit-level entry points.
///
/// MultiplyBlocked, the Strassen cutoff base case, and the
/// MultiplyRectangular block products (mm/matrix.h) all route through
/// GemmAddAt; products, kernel launches and packing time are accounted on
/// the ExecContext (mm_products, mm_base_calls, mm_simd_calls,
/// mm_bitsliced_calls, mm_pack_ns).

#include <cstdint>
#include <vector>

#include "core/exec_context.h"
#include "mm/matrix.h"

namespace fmmsw {

/// Inner-kernel instruction sets, in increasing order of capability.
enum class SimdLevel {
  kScalar = 0,  ///< portable strip kernel
  kAvx2 = 1,    ///< 4 x 64-bit lanes, emulated 64-bit multiply
};

/// Highest level this CPU (and build) can execute.
SimdLevel MaxSimdLevel();

/// Level selected for the process: FMMSW_SIMD ("off"/"scalar" -> scalar,
/// "avx2" -> AVX2 if supported, unset/"auto" -> MaxSimdLevel), cached on
/// first call.
SimdLevel ActiveSimdLevel();

/// Short human-readable name ("scalar", "avx2") for benches and traces.
const char* SimdLevelName(SimdLevel level);

/// Micro-kernel tile: MR output rows by NR output columns accumulate in
/// registers. Exposed so tests can target exact-multiple and edge shapes.
inline constexpr int kMmTileRows = 4;  // MR
inline constexpr int kMmTileCols = 8;  // NR

/// Reusable packing buffers for GemmAddAt. Callers that issue many panel
/// products sequentially (the Strassen recursion) pass one scratch so the
/// panels are allocated once; without it GemmAddAt borrows a free
/// ExecContext worker arena, or falls back to call-local buffers.
struct MmPackScratch {
  std::vector<uint64_t> a_pack, b_pack;
};

/// c (m x n, row stride ldc) += a (m x k, stride lda) * b (k x n, stride
/// ldb). Exact mod-2^64 int64 product; degenerate shapes (any dimension
/// <= 0) are no-ops. Single-threaded — callers parallelize over disjoint
/// row slabs of c. `level` picks the inner kernel: production callers
/// resolve ActiveSimdLevel() once per product, tests compare levels
/// in-process.
void GemmAddAt(SimdLevel level, const int64_t* a, int lda, const int64_t* b,
               int ldb, int64_t* c, int ldc, int m, int k, int n,
               ExecContext* ctx = nullptr, MmPackScratch* scratch = nullptr);

/// True if every entry of m is 0 or 1 (the engines' indicator matrices).
bool IsZeroOne(const Matrix& m);

/// Bit-sliced counting product for 0/1 matrices: packs rows of a and
/// columns of b into k-bit planes and accumulates popcount(word AND word),
/// so each 64-wide slice of the inner dimension costs one AND + popcount
/// instead of 64 int64 multiply-adds. Requires 0/1 inputs (DCHECKed;
/// CountingProduct verifies before choosing it). Row blocks run on the
/// context's pool. Exact: out == MultiplyNaive(a, b).
Matrix MultiplyBitSliced(const Matrix& a, const Matrix& b,
                         ExecContext* ctx = nullptr);

/// Kernel choice for the engines' matrix products.
enum class MmKernel {
  kBoolean,    ///< bit-packed (OR, AND) product (BitMatrix::Multiply)
  kStrassen,   ///< counting product via Strassen (omega = log2 7)
  kNaive,      ///< cubic counting product (blocked + micro-kernel)
  kBitSliced,  ///< 0/1 counting via bit-planes (falls back to cubic)
};

/// The counting product under a counting kernel: kStrassen ->
/// MultiplyRectangular, kNaive -> MultiplyBlocked, kBitSliced ->
/// MultiplyBitSliced when both inputs verify as 0/1 (MultiplyBlocked
/// otherwise). All choices return results bit-identical to
/// MultiplyNaive(a, b). kBoolean is not a counting kernel: CHECK failure.
Matrix CountingProduct(const Matrix& a, const Matrix& b, MmKernel kernel,
                       ExecContext* ctx = nullptr);

/// MM(X; Y; Z) over indicator operands: A is rows x inner, B is
/// inner x cols, both all-zero until marked. Usage: mark the cells the
/// relations hold with SetA/SetB, call Multiply() once, then read the
/// product with NonZero (any kernel) or Count (counting kernels).
///
/// The constructor charges the operand bytes to the context's memory
/// budget before allocating them (bit-packed for kBoolean, int64 for the
/// counting kernels); an armed budget below them aborts with
/// kMemoryLimitExceeded before any operand exists. Multiply() adds the
/// product's bytes once the kernel returns it. Both charges are held for
/// the operator's lifetime, as long as the matrices they cover.
///
/// SetA(i, k) writes only row i of A and SetB(k, j) only row k of B, so
/// fills partitioned by row may run concurrently.
class IndicatorProduct {
 public:
  IndicatorProduct(int rows, int inner, int cols, MmKernel kernel,
                   ExecContext& ec);

  void SetA(int i, int k) {
    if (kernel_ == MmKernel::kBoolean) {
      bit_a_.Set(i, k);
    } else {
      a_.At(i, k) = 1;
    }
  }
  void SetB(int k, int j) {
    if (kernel_ == MmKernel::kBoolean) {
      bit_b_.Set(k, j);
    } else {
      b_.At(k, j) = 1;
    }
  }

  /// Computes A * B (counts one mm_products): BitMatrix::Multiply for
  /// kBoolean, CountingProduct for every other kernel. Charges the
  /// product's bytes.
  void Multiply();

  /// True if some inner index k has A[i][k] = B[k][j] = 1.
  bool NonZero(int i, int j) const {
    return kernel_ == MmKernel::kBoolean ? bit_out_.Get(i, j)
                                         : out_.At(i, j) != 0;
  }
  /// The number of such k. CHECKs that the kernel counts.
  int64_t Count(int i, int j) const {
    FMMSW_CHECK(kernel_ != MmKernel::kBoolean);
    return out_.At(i, j);
  }

 private:
  ExecContext& ec_;
  MmKernel kernel_;
  int rows_, cols_;
  MemCharge charge_;  // declared before the matrices it covers
  BitMatrix bit_a_, bit_b_, bit_out_;
  Matrix a_, b_, out_;
};

}  // namespace fmmsw

#endif  // FMMSW_MM_KERNEL_H_
