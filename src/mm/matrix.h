#ifndef FMMSW_MM_MATRIX_H_
#define FMMSW_MM_MATRIX_H_

/// \file
/// Dense matrices and multiplication kernels.
///
/// The storage and kernels under IndicatorProduct (mm/kernel.h), the one
/// operator through which the engines reduce heavy-part joins to Boolean /
/// counting matrix products (paper Section 2.5 and Appendix E.6).
/// Kernels:
///   - MultiplyNaive: cubic reference, the differential baseline — the
///     only int64 kernel that does NOT route through the micro-kernel
///     layer, so tests can compare everything else against it,
///   - MultiplyBlocked: cache-blocked cubic product; row slabs run on the
///     context's pool, each slab through the packed micro-kernel of
///     mm/kernel.h (runtime AVX2 / scalar dispatch, FMMSW_SIMD override),
///   - MultiplyStrassen: Strassen recursion (omega = log2 7), the runnable
///     stand-in for the paper's fast MM (the omega < 2.372 algorithms have
///     no practical implementation); the cutoff base case is the packed
///     micro-kernel,
///   - MultiplyRectangular: the square-blocking scheme realizing
///     omega-square(a,b,c) from Eq. (6); blocks at or below the cutoff
///     multiply in place via the micro-kernel (no copy, no pow2 padding),
///     larger blocks recurse through Strassen,
///   - BitMatrix multiply: word-parallel Boolean product (the kBoolean
///     kernel),
///   - MultiplyBitSliced (mm/kernel.h): 0/1 counting product via
///     bit-planes + popcount, for the engines' indicator matrices.
/// Counting products use int64 (semiring (+, x)) and every kernel is
/// bit-identical to MultiplyNaive; Boolean products use the (OR, AND)
/// semiring, which suffices for Boolean CQ evaluation.
///
/// The int64 kernels take an optional ExecContext (nullptr = process
/// default) supplying the thread pool, reusable pack scratch, and the
/// mm_* stats counters (core/exec_context.h).

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace fmmsw {

class ExecContext;

/// Row-major dense int64 matrix.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * cols, 0) {}

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  int64_t& At(int r, int c) {
    FMMSW_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  int64_t At(int r, int c) const {
    FMMSW_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  const std::vector<int64_t>& data() const { return data_; }

  /// Raw row access for the multiplication kernels.
  int64_t* RowPtr(int r) { return &data_[static_cast<size_t>(r) * cols_]; }
  const int64_t* RowPtr(int r) const {
    return &data_[static_cast<size_t>(r) * cols_];
  }

  bool operator==(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_ && data_ == o.data_;
  }

  /// True if the matrix has no cells (0 rows and/or 0 columns).
  bool empty() const { return data_.empty(); }

  /// True if any entry is non-zero (false for degenerate 0 x n / n x 0
  /// shapes, which hold no cells).
  bool AnyNonZero() const;

 private:
  int rows_, cols_;
  std::vector<int64_t> data_;
};

/// Default Strassen recursion cutoff, shared by every caller that does
/// not pick its own (MultiplyStrassen/MultiplyRectangular defaults, the
/// engine counting products via CountingProduct).
inline constexpr int kMmDefaultCutoff = 256;

/// Reference O(n^3) product (single-threaded, used as the differential
/// baseline by tests; deliberately bypasses the micro-kernel layer).
Matrix MultiplyNaive(const Matrix& a, const Matrix& b);

/// Cache-blocked cubic product (the combinatorial baseline kernel). Row
/// slabs run on the context's pool, each slab through the packed
/// micro-kernel (mm/kernel.h).
Matrix MultiplyBlocked(const Matrix& a, const Matrix& b,
                       ExecContext* ctx = nullptr);

/// Strassen's algorithm (cutoff to the packed micro-kernel below
/// `cutoff`). Exact over int64; the realized exponent is log2 7 ~ 2.807.
/// The default cutoff moved 64 -> 256 with the micro-kernel base case:
/// each extra recursion level multiplies the add/accumulate passes by
/// 7/4 while the packed kernel beats that overhead comfortably up to a
/// few hundred, and 50x fewer leaf calls keep sparse operands cheap
/// (each leaf pays a packing scan).
Matrix MultiplyStrassen(const Matrix& a, const Matrix& b,
                        int cutoff = kMmDefaultCutoff,
                        ExecContext* ctx = nullptr);

/// Rectangular product via square blocking (Eq. 6): partitions both inputs
/// into d x d square blocks, d = min(rows_a, cols_a, cols_b), and
/// multiplies block pairs with Strassen — except blocks at or below the
/// cutoff, which run the packed micro-kernel directly on strided views
/// (no copy, no pow2 padding). Realizes n^{omega-square(a,b,c)}.
Matrix MultiplyRectangular(const Matrix& a, const Matrix& b,
                           int cutoff = kMmDefaultCutoff,
                           ExecContext* ctx = nullptr);

/// Bit-packed Boolean matrix ((OR, AND) semiring).
class BitMatrix {
 public:
  BitMatrix() : rows_(0), cols_(0), words_(0) {}
  BitMatrix(int rows, int cols)
      : rows_(rows), cols_(cols), words_((cols + 63) / 64),
        data_(static_cast<size_t>(rows) * words_, 0) {}

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  void Set(int r, int c) {
    FMMSW_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    data_[static_cast<size_t>(r) * words_ + (c >> 6)] |= 1ULL << (c & 63);
  }
  bool Get(int r, int c) const {
    FMMSW_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return (data_[static_cast<size_t>(r) * words_ + (c >> 6)] >>
            (c & 63)) & 1ULL;
  }

  bool AnyNonZero() const;

  /// Word-parallel Boolean product: out[i][j] = OR_k (a[i][k] AND b[k][j]).
  /// Skips zero words of `a`, visits set bits via ctz, and spreads row
  /// blocks over the context's pool (nullptr = process default).
  static BitMatrix Multiply(const BitMatrix& a, const BitMatrix& b,
                            ExecContext* ctx = nullptr);

 private:
  int rows_, cols_, words_;
  std::vector<uint64_t> data_;
};

}  // namespace fmmsw

#endif  // FMMSW_MM_MATRIX_H_
