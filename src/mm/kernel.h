#ifndef FMMSW_MM_KERNEL_H_
#define FMMSW_MM_KERNEL_H_

/// \file
/// The matrix-multiply operator every engine calls, and the counting
/// kernel under it.
///
/// Every non-combinatorial step of the paper's plans is one operation,
/// MM(X; Y; Z | G) (Section 2.5, Appendix E.6): multiply two 0/1 indicator
/// matrices built from relations and keep the non-zero cells.
/// IndicatorProduct is that operation. Engines mark operand cells, call
/// Multiply() once, and read cells of the product; the operator owns the
/// storage, charges it to the memory budget, counts the product and picks
/// the kernel. Both kernels take the same operands, a row-major BitMatrix
/// A (rows x inner) and B (inner x cols); only the product differs:
///
///   - BitMatrix::Multiply (mm/matrix.h): the word-parallel (OR, AND)
///     product, a BitMatrix, for Boolean decisions.
///   - MultiplyBitSlicedPacked: the counting product, an int64 Matrix.
///     A's rows are already its bit-planes; B is transposed into one plane
///     per column, and out[i][j] is the popcount of a word-AND, 64
///     multiply-adds per word op.
///
/// Both run row blocks on the context's pool. Products, bit-sliced calls
/// and B's transpose time are accounted on the ExecContext (mm_products,
/// mm_bitsliced_calls, mm_pack_ns).

#include <cstdint>

#include "core/exec_context.h"
#include "mm/matrix.h"

namespace fmmsw {

/// Instruction sets the host CPU offers, in increasing order of
/// capability.
enum class SimdLevel {
  kScalar = 0,
  kAvx2 = 1,
};

/// The host's level, probed once through cpuid. A report only: no kernel
/// dispatches on it.
SimdLevel ActiveSimdLevel();

/// Short human-readable name ("scalar", "avx2") for benches and traces.
const char* SimdLevelName(SimdLevel level);

/// True if every entry of m is 0 or 1 (the engines' indicator matrices).
bool IsZeroOne(const Matrix& m);

/// Bit-sliced counting product of bit-packed 0/1 matrices: accumulates
/// popcount(row word of a AND column-plane word of b), so each 64-wide
/// slice of the inner dimension costs one AND + popcount instead of 64
/// int64 multiply-adds. Charges b's column planes and the int64 output to
/// the memory budget before allocating them. Row blocks run on the
/// context's pool.
Matrix MultiplyBitSlicedPacked(const BitMatrix& a, const BitMatrix& b,
                               ExecContext* ctx = nullptr);

/// MultiplyBitSlicedPacked for int64 operands: CHECKs that both are 0/1
/// (one scan of each), packs them to bits (charged while held) and runs
/// the same kernel. Exact: out == MultiplyNaive(a, b).
Matrix MultiplyBitSliced(const Matrix& a, const Matrix& b,
                         ExecContext* ctx = nullptr);

/// Kernel choice for the engines' matrix products.
enum class MmKernel {
  kBoolean,    ///< bit-packed (OR, AND) product (BitMatrix::Multiply)
  kBitSliced,  ///< 0/1 counting via bit-planes (MultiplyBitSlicedPacked)
};

/// The counting product under a counting kernel: MultiplyBitSliced for
/// kBitSliced. kBoolean is not a counting kernel: CHECK failure.
Matrix CountingProduct(const Matrix& a, const Matrix& b, MmKernel kernel,
                       ExecContext* ctx = nullptr);

/// MM(X; Y; Z) over indicator operands: A is rows x inner, B is
/// inner x cols, both all-zero until marked. Usage: mark the cells the
/// relations hold with SetA/SetB, call Multiply() once, then read the
/// product with NonZero (either kernel) or Count (kBitSliced).
///
/// The constructor charges the bit-packed operand bytes to the context's
/// memory budget before allocating them; an armed budget below them
/// aborts with kMemoryLimitExceeded before any operand exists. Multiply()
/// adds the product's bytes (bit-packed for kBoolean, int64 for
/// kBitSliced) once the kernel returns it. Both charges are held for the
/// operator's lifetime, as long as the matrices they cover.
///
/// SetA(i, k) writes only row i of A and SetB(k, j) only row k of B, and
/// rows never share a word, so fills partitioned by row may run
/// concurrently.
class IndicatorProduct {
 public:
  IndicatorProduct(int rows, int inner, int cols, MmKernel kernel,
                   ExecContext& ec);

  void SetA(int i, int k) { a_.Set(i, k); }
  void SetB(int k, int j) { b_.Set(k, j); }

  /// Computes A * B (counts one mm_products): BitMatrix::Multiply for
  /// kBoolean, MultiplyBitSlicedPacked for kBitSliced. Charges the
  /// product's bytes.
  void Multiply();

  /// True if some inner index k has A[i][k] = B[k][j] = 1.
  bool NonZero(int i, int j) const {
    return kernel_ == MmKernel::kBoolean ? bits_out_.Get(i, j)
                                         : counts_.At(i, j) != 0;
  }
  /// The number of such k. CHECKs that the kernel counts.
  int64_t Count(int i, int j) const {
    FMMSW_CHECK(kernel_ != MmKernel::kBoolean);
    return counts_.At(i, j);
  }

 private:
  ExecContext& ec_;
  MmKernel kernel_;
  MemCharge charge_;  // declared before the matrices it covers
  BitMatrix a_, b_, bits_out_;
  Matrix counts_;
};

}  // namespace fmmsw

#endif  // FMMSW_MM_KERNEL_H_
