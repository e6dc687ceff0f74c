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
  const int m = a.rows(), k = a.cols(), n = b.cols();
  Stopwatch sw;
  IndicatorCounts counts(m, k, n, ec);
  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < k; ++c) {
      if (a.At(r, c) != 0) counts.SetA(r, c);
    }
  }
  for (int r = 0; r < k; ++r) {
    for (int c = 0; c < n; ++c) {
      if (b.At(r, c) != 0) counts.SetB(r, c);
    }
  }
  Bump(ec.stats().mm_pack_ns, static_cast<int64_t>(sw.Seconds() * 1e9));
  MemCharge charge(ec, static_cast<int64_t>(m) * n * 8);
  Matrix out(m, n);
  ParallelFor(
      ec, FaultSite::kMm, m,
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t i = row_begin; i < row_end; ++i) {
          for (int j = 0; j < n; ++j) out.At(i, j) = counts.Count(i, j);
        }
      },
      /*grain=*/8);
  return out;
}

Matrix CountingProduct(const Matrix& a, const Matrix& b, MmKernel kernel,
                       ExecContext* ctx) {
  FMMSW_CHECK(kernel != MmKernel::kBoolean &&
              "kBoolean is not a counting kernel (IndicatorProduct runs it)");
  return MultiplyBitSliced(a, b, ctx);
}

IndicatorProduct::IndicatorProduct(int rows, int inner, int cols,
                                   ExecContext& ec)
    : ec_(ec),
      charge_(ec, BitBytes(rows, inner) + BitBytes(inner, cols)),
      a_(rows, inner),
      b_(inner, cols) {}

void IndicatorProduct::Multiply() {
  Bump(ec_.stats().mm_products);
  // The kernel's own charge for its output ended when it returned; the
  // product now lives as long as the operator, so its charge does too.
  out_ = BitMatrix::Multiply(a_, b_, &ec_);
  charge_.Add(BitBytes(a_.rows(), b_.cols()));
}

IndicatorCounts::IndicatorCounts(int rows, int inner, int cols,
                                 ExecContext& ec)
    : charge_(ec, BitBytes(rows, inner) + BitBytes(cols, inner)),
      a_(rows, inner),
      bt_(cols, inner) {
  Bump(ec.stats().mm_products);
  Bump(ec.stats().mm_bitsliced_calls);
}

int64_t IndicatorCounts::Count(int i, int j) const {
  const uint64_t* arow = a_.RowWords(i);
  const uint64_t* bcol = bt_.RowWords(j);
  const int words = (a_.cols() + 63) / 64;
  int64_t count = 0;
  for (int w = 0; w < words; ++w) {
    count += __builtin_popcountll(arow[w] & bcol[w]);
  }
  return count;
}

}  // namespace fmmsw
