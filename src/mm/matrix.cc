#include "mm/matrix.h"

#include "core/exec_context.h"
#include "util/parallel.h"

namespace fmmsw {

bool Matrix::AnyNonZero() const {
  if (data_.empty()) return false;  // 0 x n / n x 0: no cells to scan
  for (int64_t v : data_) {
    if (v != 0) return true;
  }
  return false;
}

Matrix MultiplyNaive(const Matrix& a, const Matrix& b) {
  FMMSW_CHECK(a.cols() == b.rows());
  Matrix out(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int k = 0; k < a.cols(); ++k) {
      const int64_t aik = a.At(i, k);
      if (aik == 0) continue;
      for (int j = 0; j < b.cols(); ++j) {
        out.At(i, j) += aik * b.At(k, j);
      }
    }
  }
  return out;
}

BitMatrix::BitMatrix(const Matrix& m) : BitMatrix(m.rows(), m.cols()) {
  for (int i = 0; i < rows_; ++i) {
    for (int j = 0; j < cols_; ++j) {
      data_[static_cast<size_t>(i) * words_ + (j >> 6)] |=
          static_cast<uint64_t>(m.At(i, j) != 0) << (j & 63);
    }
  }
}

BitMatrix BitMatrix::Multiply(const BitMatrix& a, const BitMatrix& b,
                              ExecContext* ctx) {
  FMMSW_CHECK(a.cols() == b.rows());
  ExecContext& ec = ExecContext::Resolve(ctx);
  const int a_words = a.words_;
  const int b_words = b.words_;
  MemCharge charge(ec, static_cast<int64_t>(a.rows()) * b_words * 8);
  BitMatrix out(a.rows(), b.cols());
  // No output cells or no inner words: nothing to OR, and no row of a
  // zero-word matrix may be addressed.
  if (out.data_.empty() || a.data_.empty()) return out;
  ParallelFor(
      ec, FaultSite::kMm, a.rows(),
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t i = row_begin; i < row_end; ++i) {
          uint64_t* out_row = &out.data_[static_cast<size_t>(i) * b_words];
          const uint64_t* a_row = &a.data_[static_cast<size_t>(i) * a_words];
          for (int wa = 0; wa < a_words; ++wa) {
            uint64_t bits = a_row[wa];
            while (bits != 0) {
              const int k = (wa << 6) + __builtin_ctzll(bits);
              bits &= bits - 1;
              const uint64_t* b_row =
                  &b.data_[static_cast<size_t>(k) * b_words];
              for (int w = 0; w < b_words; ++w) out_row[w] |= b_row[w];
            }
          }
        }
      },
      /*grain=*/16);
  return out;
}

}  // namespace fmmsw
