#include "mm/kernel.h"

#include "core/exec_context.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace fmmsw {

SimdLevel ActiveSimdLevel() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  static const SimdLevel level = __builtin_cpu_supports("avx2")
                                     ? SimdLevel::kAvx2
                                     : SimdLevel::kScalar;
  return level;
#else
  return SimdLevel::kScalar;
#endif
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool IsZeroOne(const Matrix& m) {
  for (int64_t v : m.data()) {
    if (v != 0 && v != 1) return false;
  }
  return true;
}

Matrix MultiplyBitSlicedPacked(const BitMatrix& a, const BitMatrix& b,
                               ExecContext* ctx) {
  FMMSW_CHECK(a.cols() == b.rows());
  ExecContext& ec = ExecContext::Resolve(ctx);
  const int m = a.rows(), k = a.cols(), n = b.cols();
  const int words = (k + 63) / 64;
  // B's column planes + counting output, charged before they exist and
  // held until the product returns.
  MemCharge charge(ec, static_cast<int64_t>(n) * words * 8 +
                           static_cast<int64_t>(m) * n * 8);
  Matrix out(m, n);
  if (m == 0 || k == 0 || n == 0) return out;
  Bump(ec.stats().mm_bitsliced_calls);
  Stopwatch sw;
  const BitMatrix planes = b.Transpose();  // row j: column j of b
  Bump(ec.stats().mm_pack_ns, static_cast<int64_t>(sw.Seconds() * 1e9));
  ParallelFor(
      ec, FaultSite::kMm, m,
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t i = row_begin; i < row_end; ++i) {
          const uint64_t* arow = a.RowWords(i);
          int64_t* orow = out.RowPtr(i);
          for (int j = 0; j < n; ++j) {
            const uint64_t* bcol = planes.RowWords(j);
            int64_t count = 0;
            for (int w = 0; w < words; ++w) {
              count += __builtin_popcountll(arow[w] & bcol[w]);
            }
            orow[j] = count;
          }
        }
      },
      /*grain=*/8);
  return out;
}

namespace {

// Bytes of a rows x cols BitMatrix: whole 64-bit words per row.
int64_t BitBytes(int rows, int cols) {
  return static_cast<int64_t>(rows) * ((cols + 63) / 64) * 8;
}

}  // namespace

Matrix MultiplyBitSliced(const Matrix& a, const Matrix& b,
                         ExecContext* ctx) {
  FMMSW_CHECK(a.cols() == b.rows());
  FMMSW_CHECK(IsZeroOne(a) && IsZeroOne(b) &&
              "bit-sliced counting product requires 0/1 inputs");
  ExecContext& ec = ExecContext::Resolve(ctx);
  MemCharge charge(ec, BitBytes(a.rows(), a.cols()) +
                           BitBytes(b.rows(), b.cols()));
  Stopwatch sw;
  const BitMatrix abits(a), bbits(b);
  Bump(ec.stats().mm_pack_ns, static_cast<int64_t>(sw.Seconds() * 1e9));
  return MultiplyBitSlicedPacked(abits, bbits, &ec);
}

Matrix CountingProduct(const Matrix& a, const Matrix& b, MmKernel kernel,
                       ExecContext* ctx) {
  FMMSW_CHECK(kernel != MmKernel::kBoolean &&
              "kBoolean is not a counting kernel (IndicatorProduct runs it)");
  return MultiplyBitSliced(a, b, ctx);
}

IndicatorProduct::IndicatorProduct(int rows, int inner, int cols,
                                   MmKernel kernel, ExecContext& ec)
    : ec_(ec),
      kernel_(kernel),
      charge_(ec, BitBytes(rows, inner) + BitBytes(inner, cols)),
      a_(rows, inner),
      b_(inner, cols) {}

void IndicatorProduct::Multiply() {
  Bump(ec_.stats().mm_products);
  // The kernel's own charge for its output ended when it returned; the
  // product now lives as long as the operator, so its charge does too.
  if (kernel_ == MmKernel::kBoolean) {
    bits_out_ = BitMatrix::Multiply(a_, b_, &ec_);
    charge_.Add(BitBytes(a_.rows(), b_.cols()));
  } else {
    counts_ = MultiplyBitSlicedPacked(a_, b_, &ec_);
    charge_.Add(static_cast<int64_t>(a_.rows()) * b_.cols() * 8);
  }
}

}  // namespace fmmsw
