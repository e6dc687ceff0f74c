// E8 — the MM kernel substrate: measured runtime of the int64 kernels
// (micro-kernel blocked product at both SIMD levels, Strassen, the Eq. (6)
// rectangular square-blocking scheme), the bit-sliced 0/1 counting
// product, and the bit-packed Boolean product, across an n-sweep; plus the
// n^{w-square(a,b,c)} shape table at w = log2 7. Every timed kernel is
// verified against MultiplyNaive once per size before timing.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/exec_context.h"
#include "mm/cost_model.h"
#include "mm/kernel.h"
#include "mm/matrix.h"
#include "util/random.h"

namespace fmmsw {
namespace {

Matrix RandomMatrix(int rows, int cols, Rng* rng, int64_t lo = -3,
                    int64_t hi = 3) {
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) m.At(i, j) = rng->Uniform(lo, hi);
  }
  return m;
}

Matrix RandomIndicator(int rows, int cols, double density, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      if (rng->Flip(density)) m.At(i, j) = 1;
    }
  }
  return m;
}

/// Verifies f() against `expect` once, untimed, then samples it.
bench::Timing SampleVerified(ExecContext& ec, const std::function<Matrix()>& f,
                             const Matrix& expect) {
  FMMSW_CHECK(f() == expect);
  return bench::Sample(ec, [&] {
    Matrix m = f();
    if (m.rows() < 0) std::abort();  // keep the product alive
  });
}

/// Mean mm_pack_ns per call since `pack0`, in ms, over one SampleVerified
/// (the verification call plus the protocol's calls).
double PackMsPerCall(const ExecContext& ec, int64_t pack0) {
  return static_cast<double>(ec.stats().mm_pack_ns.load() - pack0) * 1e-6 /
         (1 + bench::kWarmups + bench::kSamples);
}

void Run() {
  bench::Header("MM kernels: micro-kernel / Strassen / rectangular / "
                "bit-sliced (verified vs naive)");
  ExecContext ec;
  std::printf("active SIMD level: %s (FMMSW_SIMD overrides)\n",
              SimdLevelName(ActiveSimdLevel()));
  std::printf("median ms per product:\n");
  std::printf("%6s %12s %12s %12s %12s %12s %12s\n", "n", "gemm_scalar",
              "gemm_simd", "strassen", "rect_wide", "bitsliced",
              "bitmatrix");
  for (int n : {128, 256, 512}) {
    if (!bench::StepEnabled(n)) continue;
    Rng rng(17);
    Matrix a = RandomMatrix(n, n, &rng), b = RandomMatrix(n, n, &rng);
    const Matrix ref = MultiplyNaive(a, b);

    // Micro-kernel base case at each level (the whole product as one
    // panel call — the shape the Strassen cutoff and rectangular blocks
    // see, scaled up). Scratch hoisted out of the timed lambda like
    // production callers, which reuse caller scratch or a worker arena.
    MmPackScratch pack;
    auto gemm_at = [&](SimdLevel level) {
      Matrix out(n, n);
      GemmAddAt(level, a.RowPtr(0), n, b.RowPtr(0), n, out.RowPtr(0), n, n,
                n, n, &ec, &pack);
      return out;
    };
    const bench::Timing t_scalar = SampleVerified(
        ec, [&] { return gemm_at(SimdLevel::kScalar); }, ref);
    const bool has_simd = MaxSimdLevel() != SimdLevel::kScalar;
    bench::Timing t_simd;
    if (has_simd) {
      t_simd = SampleVerified(
          ec, [&] { return gemm_at(SimdLevel::kAvx2); }, ref);
    }
    // Sub-n cutoff so the strassen column always exercises the recursion
    // (AddInto/Accumulate + pow2 embedding); with the production default
    // of kMmDefaultCutoff the n <= 256 sizes would collapse to a single
    // micro-kernel call and duplicate the gemm columns.
    const bench::Timing t_strassen = SampleVerified(
        ec, [&] { return MultiplyStrassen(a, b, 64, &ec); }, ref);

    // Rectangular n x sqrt(n) x n — the Eq. (6) wide shape.
    const int mid = static_cast<int>(std::sqrt(static_cast<double>(n)));
    Matrix wa = RandomMatrix(n, mid, &rng), wb = RandomMatrix(mid, n, &rng);
    const Matrix wref = MultiplyNaive(wa, wb);
    const bench::Timing t_rect = SampleVerified(
        ec, [&] { return MultiplyRectangular(wa, wb, kMmDefaultCutoff, &ec); },
        wref);

    // 0/1 counting product: bit-sliced vs the same product through the
    // int64 micro-kernel path (the cost it removes). The mm_pack_ns delta
    // splits out the bit-plane packing time (blocked transpose for B).
    Matrix ia = RandomIndicator(n, n, 0.3, &rng);
    Matrix ib = RandomIndicator(n, n, 0.3, &rng);
    const Matrix iref = MultiplyNaive(ia, ib);
    const int64_t pack0 = ec.stats().mm_pack_ns.load();
    const bench::Timing t_bits = SampleVerified(
        ec, [&] { return MultiplyBitSliced(ia, ib, &ec); }, iref);
    const double bits_pack_ms = PackMsPerCall(ec, pack0);
    BitMatrix ba(n, n), bb(n, n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (ia.At(i, j) != 0) ba.Set(i, j);
        if (ib.At(i, j) != 0) bb.Set(i, j);
      }
    }
    const bench::Timing t_bool = bench::Sample(ec, [&] {
      BitMatrix bm = BitMatrix::Multiply(ba, bb, &ec);
      if (bm.rows() < 0) std::abort();
    });

    char simd_col[16];
    if (has_simd) {
      std::snprintf(simd_col, sizeof(simd_col), "%12.3f", t_simd.median_ms);
    } else {
      std::snprintf(simd_col, sizeof(simd_col), "%12s", "n/a");
    }
    std::printf("%6d %12.3f %s %12.3f %12.3f %12.3f %12.3f\n", n,
                t_scalar.median_ms, simd_col, t_strassen.median_ms,
                t_rect.median_ms, t_bits.median_ms, t_bool.median_ms);
    bench::Json("mm", n, "gemm_scalar", t_scalar);
    if (has_simd) bench::Json("mm", n, "gemm_simd", t_simd);
    bench::Json("mm", n, "strassen", t_strassen);
    bench::Json("mm", n, "rect_wide", t_rect);
    bench::Json("mm", n, "bitsliced", t_bits);
    bench::Json("mm", n, "bitsliced_pack", bits_pack_ms);
    bench::Json("mm", n, "bitmatrix", t_bool);
  }

  // Pack-focused sweep at sizes where the B planes outgrow cache — the
  // regime the blocked transpose pack targets. Verified against the
  // micro-kernel blocked product (itself differentially tested vs naive)
  // so the largest size stays affordable.
  bench::Header("bit-sliced pack (blocked transpose) at larger n");
  for (int n : {1024, 2048}) {
    if (!bench::StepEnabled(n)) continue;
    Rng rng(23);
    Matrix ia = RandomIndicator(n, n, 0.3, &rng);
    Matrix ib = RandomIndicator(n, n, 0.3, &rng);
    const Matrix ref = MultiplyBlocked(ia, ib, &ec);
    const int64_t pack0 = ec.stats().mm_pack_ns.load();
    const bench::Timing t = SampleVerified(
        ec, [&] { return MultiplyBitSliced(ia, ib, &ec); }, ref);
    const double pack_ms = PackMsPerCall(ec, pack0);
    std::printf("%6d bitsliced %10.3f ms  pack %10.3f ms\n", n, t.median_ms,
                pack_ms);
    bench::Json("mm", n, "bitsliced_large", t);
    bench::Json("mm", n, "bitsliced_large_pack", pack_ms);
  }

  // Shape table: predicted block count * d^w vs Eq. (6) exponent.
  bench::Header("Eq. (6): w-square(a,b,c) predictions at w = log2 7");
  const double w = std::log2(7.0);
  struct Shape {
    double a, b, c;
  };
  for (const Shape& s : {Shape{1, 1, 1}, Shape{1, 0.5, 1}, Shape{1, 1, 0.5},
                         Shape{0.5, 1, 0.5}}) {
    const double pred = OmegaSquareExponent(s.a, s.b, s.c, w);
    std::printf("(a,b,c)=(%.1f,%.1f,%.1f)  paper=a+b+c-(3-w)min  ours=%s\n",
                s.a, s.b, s.c, bench::Fmt(pred).c_str());
  }
}

}  // namespace
}  // namespace fmmsw

int main(int argc, char** argv) {
  fmmsw::bench::Init(argc, argv);
  fmmsw::Run();
  return 0;
}
