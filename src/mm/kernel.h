#ifndef FMMSW_MM_KERNEL_H_
#define FMMSW_MM_KERNEL_H_

/// \file
/// The matrix-multiply operators the engines call.
///
/// Every non-combinatorial step of the paper's plans is one operation,
/// MM(X; Y; Z | G) (Definition 4.5, Appendix E.6): multiply two 0/1
/// indicator matrices built from relations and keep the non-zero cells.
/// IndicatorProduct is that operation. Engines mark operand cells, call
/// Multiply() once, and read cells of the product; the operator owns the
/// storage, charges it to the memory budget and counts the product. Its
/// operands are row-major BitMatrix A (rows x inner) and B (inner x cols),
/// and its product is BitMatrix::Multiply's word-parallel (OR, AND)
/// product (mm/matrix.h).
///
/// Counting triangles needs the number of witnesses of a cell, not its
/// existence, and only at the cells the third relation holds.
/// IndicatorCounts computes exactly those: it keeps A's rows and B's
/// columns as bit-planes, and Count(i, j) is the popcount of the AND of
/// row i of A and column j of B, 64 multiply-adds per word op. No
/// product matrix is ever built. MultiplyBitSliced reads every cell
/// through the same operator, for callers that hold int64 operands.

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

/// The full counting product of int64 0/1 matrices: CHECKs that both are
/// 0/1 (one scan of each), packs A's rows and B's columns into an
/// IndicatorCounts (packing time in mm_pack_ns), charges the int64 output
/// before allocating it and fills it by row blocks on the context's pool.
/// Exact: out == MultiplyNaive(a, b).
Matrix MultiplyBitSliced(const Matrix& a, const Matrix& b,
                         ExecContext* ctx = nullptr);

/// Kernel names of the strategy cards (engine/strategy.h): the Boolean
/// rungs run IndicatorProduct, the counting rung IndicatorCounts.
enum class MmKernel {
  kBoolean,    ///< bit-packed (OR, AND) product (IndicatorProduct)
  kBitSliced,  ///< 0/1 counts via bit-planes (IndicatorCounts)
};

/// The counting product under a counting kernel: MultiplyBitSliced for
/// kBitSliced. kBoolean is not a counting kernel: CHECK failure.
Matrix CountingProduct(const Matrix& a, const Matrix& b, MmKernel kernel,
                       ExecContext* ctx = nullptr);

/// MM(X; Y; Z) over indicator operands: A is rows x inner, B is
/// inner x cols, both all-zero until marked. Usage: mark the cells the
/// relations hold with SetA/SetB, call Multiply() once, then read the
/// product with NonZero.
///
/// The constructor charges the bit-packed operand bytes to the context's
/// memory budget before allocating them; an armed budget below them
/// aborts with kMemoryLimitExceeded before any operand exists. Multiply()
/// adds the product's bytes once BitMatrix::Multiply returns it. Both
/// charges are held for the operator's lifetime, as long as the matrices
/// they cover.
///
/// SetA(i, k) writes only row i of A and SetB(k, j) only row k of B, and
/// rows never share a word, so fills partitioned by row may run
/// concurrently.
class IndicatorProduct {
 public:
  IndicatorProduct(int rows, int inner, int cols, ExecContext& ec);

  void SetA(int i, int k) { a_.Set(i, k); }
  void SetB(int k, int j) { b_.Set(k, j); }

  /// Computes A * B (counts one mm_products) and charges the product's
  /// bytes.
  void Multiply();

  /// True if some inner index k has A[i][k] = B[k][j] = 1.
  bool NonZero(int i, int j) const { return out_.Get(i, j); }

 private:
  ExecContext& ec_;
  MemCharge charge_;  // declared before the matrices it covers
  BitMatrix a_, b_, out_;
};

/// Cell counts of MM(X; Y; Z), computed only where the caller reads them:
/// A is rows x inner, B is inner x cols, both all-zero until marked.
/// Usage: mark cells with SetA/SetB, then read Count(i, j) for the cells
/// needed; each costs ceil(inner / 64) word ANDs and popcounts.
///
/// A is held as rows x inner bits and B as its transpose, cols x inner
/// bits, so SetB(k, j) marks bit k of row j of B^T directly. The
/// constructor charges both to the context's memory budget before
/// allocating them (held for the operator's lifetime) and counts one
/// mm_products and one mm_bitsliced_calls.
///
/// SetA(i, k) writes only row i of A and SetB(k, j) only row j of B^T, so
/// fills partitioned by i (for A) and by j (for B) may run concurrently.
/// Count is const and may be called from any number of threads once the
/// fill is done.
class IndicatorCounts {
 public:
  IndicatorCounts(int rows, int inner, int cols, ExecContext& ec);

  void SetA(int i, int k) { a_.Set(i, k); }
  void SetB(int k, int j) { bt_.Set(j, k); }

  /// The number of inner indices k with A[i][k] = B[k][j] = 1.
  int64_t Count(int i, int j) const;

 private:
  MemCharge charge_;  // declared before the matrices it covers
  BitMatrix a_, bt_;
};

}  // namespace fmmsw

#endif  // FMMSW_MM_KERNEL_H_
