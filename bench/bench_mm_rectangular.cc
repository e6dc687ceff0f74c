// E8 — the MM kernel substrate: measured runtime of the two kernels, the
// bit-sliced 0/1 counting product and the bit-packed Boolean product,
// across an n-sweep; plus the n^{w-square(a,b,c)} shape table of Eq. (6).
// The counting product is the int64 entry MultiplyBitSliced, which packs
// its operands into bit-planes and reads every cell through
// IndicatorCounts; it is verified against MultiplyNaive once per size
// before timing. The Boolean product runs on BitMatrix operands.

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
  bench::Header("MM kernels: bit-sliced / bit-packed Boolean (verified vs "
                "naive)");
  ExecContext ec;
  std::printf("median ms per product:\n");
  std::printf("%6s %12s %12s %12s\n", "n", "bitsliced", "pack",
              "bitmatrix");
  for (int n : {128, 256, 512}) {
    if (!bench::StepEnabled(n)) continue;
    Rng rng(17);
    const Matrix ia = RandomIndicator(n, n, 0.3, &rng);
    const Matrix ib = RandomIndicator(n, n, 0.3, &rng);
    const BitMatrix ba(ia), bb(ib);
    const Matrix iref = MultiplyNaive(ia, ib);
    // 0/1 counting product. The mm_pack_ns delta splits out the time to
    // pack A's rows and B's columns into bit-planes.
    const int64_t pack0 = ec.stats().mm_pack_ns.load();
    const bench::Timing t_bits = SampleVerified(
        ec, [&] { return MultiplyBitSliced(ia, ib, &ec); }, iref);
    const double bits_pack_ms = PackMsPerCall(ec, pack0);
    const bench::Timing t_bool = bench::Sample(ec, [&] {
      BitMatrix bm = BitMatrix::Multiply(ba, bb, &ec);
      if (bm.rows() < 0) std::abort();
    });

    std::printf("%6d %12.3f %12.3f %12.3f\n", n, t_bits.median_ms,
                bits_pack_ms, t_bool.median_ms);
    bench::Json("mm", n, "bitsliced", t_bits);
    bench::Json("mm", n, "bitsliced_pack", bits_pack_ms);
    bench::Json("mm", n, "bitmatrix", t_bool);
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
