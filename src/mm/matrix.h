#ifndef FMMSW_MM_MATRIX_H_
#define FMMSW_MM_MATRIX_H_

/// \file
/// Dense matrices and the reference product.
///
/// The storage under IndicatorProduct (mm/kernel.h), the one operator
/// through which the engines reduce heavy-part joins to Boolean /
/// counting matrix products (paper Section 2.5 and Appendix E.6):
///   - Matrix: row-major int64 cells, the counting operands and products
///     of MultiplyBitSliced (mm/kernel.h),
///   - MultiplyNaive: cubic (+, x) reference, the differential baseline
///     the tests compare every kernel against,
///   - BitMatrix: bit-packed cells; BitMatrix::Multiply is the
///     word-parallel (OR, AND) product (the kBoolean kernel), which
///     suffices for Boolean CQ evaluation.
/// BitMatrix::Multiply takes an optional ExecContext (nullptr = process
/// default) supplying the thread pool and the memory budget.

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

/// Reference O(n^3) product (single-threaded, the tests' differential
/// baseline).
Matrix MultiplyNaive(const Matrix& a, const Matrix& b);

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
