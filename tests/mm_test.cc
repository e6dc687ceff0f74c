// Tests for the matrix substrate: the bit-sliced counting product agrees
// with the naive reference on random inputs and rejects non-0/1 operands,
// BitMatrix implements the (OR, AND) semiring, IndicatorProduct charges
// what it holds under both kernels, and the cost model matches Eq. (6).

#include <atomic>
#include <cstdlib>
#include <vector>

#include "core/exec_context.h"
#include "gtest/gtest.h"
#include "mm/cost_model.h"
#include "mm/kernel.h"
#include "mm/matrix.h"
#include "util/parallel.h"
#include "util/random.h"

namespace fmmsw {
namespace {

TEST(MatrixTest, NaiveKnownProduct) {
  Matrix a(2, 3), b(3, 2);
  // a = [[1,2,3],[4,5,6]], b = [[7,8],[9,10],[11,12]].
  int64_t av[] = {1, 2, 3, 4, 5, 6}, bv[] = {7, 8, 9, 10, 11, 12};
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) a.At(i, j) = av[i * 3 + j];
  }
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 2; ++j) b.At(i, j) = bv[i * 2 + j];
  }
  Matrix c = MultiplyNaive(a, b);
  EXPECT_EQ(c.At(0, 0), 58);
  EXPECT_EQ(c.At(0, 1), 64);
  EXPECT_EQ(c.At(1, 0), 139);
  EXPECT_EQ(c.At(1, 1), 154);
}

TEST(MatrixTest, AnyNonZero) {
  Matrix z(3, 3);
  EXPECT_FALSE(z.AnyNonZero());
  z.At(2, 1) = -5;
  EXPECT_TRUE(z.AnyNonZero());
}

TEST(BitMatrixTest, MultiplyMatchesIntegerSign) {
  Rng rng(15);
  for (int trial = 0; trial < 8; ++trial) {
    const int m = static_cast<int>(rng.Uniform(1, 100));
    const int k = static_cast<int>(rng.Uniform(1, 100));
    const int n = static_cast<int>(rng.Uniform(1, 150));
    Matrix a(m, k), b(k, n);
    BitMatrix ba(m, k), bb(k, n);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < k; ++j) {
        if (rng.Flip(0.2)) {
          a.At(i, j) = 1;
          ba.Set(i, j);
        }
      }
    }
    for (int i = 0; i < k; ++i) {
      for (int j = 0; j < n; ++j) {
        if (rng.Flip(0.2)) {
          b.At(i, j) = 1;
          bb.Set(i, j);
        }
      }
    }
    Matrix c = MultiplyNaive(a, b);
    BitMatrix bc = BitMatrix::Multiply(ba, bb);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        EXPECT_EQ(bc.Get(i, j), c.At(i, j) > 0);
      }
    }
  }
}

TEST(BitMatrixTest, AnyNonZero) {
  BitMatrix m(5, 70);
  EXPECT_FALSE(m.AnyNonZero());
  m.Set(4, 69);
  EXPECT_TRUE(m.AnyNonZero());
  EXPECT_TRUE(m.Get(4, 69));
  EXPECT_FALSE(m.Get(4, 68));
}

// --------------------------------------------- parallel differentials --
// ctest runs this binary with FMMSW_THREADS=4, so the pooled kernels
// (BitMatrix::Multiply here, MultiplyBitSliced in BitSlicedTest) execute
// multi-threaded and are checked against the serial naive reference.

TEST(ParallelKernelTest, BitMatrixMatchesIntegerSignLarge) {
  Rng rng(23);
  const int m = 220, k = 200, n = 260;
  Matrix a(m, k), b(k, n);
  BitMatrix ba(m, k), bb(k, n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < k; ++j) {
      if (rng.Flip(0.1)) {
        a.At(i, j) = 1;
        ba.Set(i, j);
      }
    }
  }
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < n; ++j) {
      if (rng.Flip(0.1)) {
        b.At(i, j) = 1;
        bb.Set(i, j);
      }
    }
  }
  Matrix c = MultiplyNaive(a, b);
  BitMatrix bc = BitMatrix::Multiply(ba, bb);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      ASSERT_EQ(bc.Get(i, j), c.At(i, j) > 0) << i << "," << j;
    }
  }
}

TEST(ParallelKernelTest, ParallelForCoversEveryIndex) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(1000, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelKernelTest, ParallelAnyOfFindsWitness) {
  EXPECT_TRUE(ParallelAnyOf(5000, [](int64_t i) { return i == 4321; }));
  EXPECT_FALSE(ParallelAnyOf(5000, [](int64_t) { return false; }));
  EXPECT_FALSE(ParallelAnyOf(0, [](int64_t) { return true; }));
}

TEST(ParallelKernelTest, ThreadCountHonorsEnvironment) {
  // ctest sets FMMSW_THREADS=4 for this binary; non-positive or garbage
  // values fall back to hardware_concurrency, so only assert on valid
  // settings.
  if (const char* env = std::getenv("FMMSW_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) {
      EXPECT_EQ(ThreadPool::ConfiguredThreads(), n);
      EXPECT_EQ(ThreadPool::Global().threads(), n);
    } else {
      EXPECT_GE(ThreadPool::ConfiguredThreads(), 1);
    }
  }
}

// --------------------------------------------- bit-sliced counting -----

Matrix RandomIndicator(int rows, int cols, double density, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      if (rng->Flip(density)) m.At(i, j) = 1;
    }
  }
  return m;
}

TEST(BitSlicedTest, MatchesNaiveAcrossShapes) {
  // Inner dimensions straddling the 64-bit word boundary, and one
  // product tall enough to spread its rows over every worker.
  const struct {
    int m, k, n;
  } shapes[] = {{1, 1, 1},     {3, 63, 5},   {3, 64, 5},
                {3, 65, 5},    {9, 128, 7},  {40, 200, 31},
                {1, 300, 1},   {230, 250, 210}};
  Rng rng(41);
  for (const auto& s : shapes) {
    Matrix a = RandomIndicator(s.m, s.k, 0.4, &rng);
    Matrix b = RandomIndicator(s.k, s.n, 0.4, &rng);
    EXPECT_EQ(MultiplyBitSliced(a, b), MultiplyNaive(a, b))
        << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(BitSlicedTest, CountsNotJustExistence) {
  // All-ones inputs: every entry of the product must equal k exactly.
  Matrix a(3, 70), b(70, 4);
  for (int i = 0; i < 3; ++i) {
    for (int k = 0; k < 70; ++k) a.At(i, k) = 1;
  }
  for (int k = 0; k < 70; ++k) {
    for (int j = 0; j < 4; ++j) b.At(k, j) = 1;
  }
  Matrix p = MultiplyBitSliced(a, b);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 4; ++j) ASSERT_EQ(p.At(i, j), 70);
  }
}

TEST(BitSlicedTest, CountingProductDispatch) {
  Rng rng(42);
  ExecContext ec(1);
  Matrix a = RandomIndicator(20, 90, 0.3, &rng);
  Matrix b = RandomIndicator(90, 25, 0.3, &rng);
  const Matrix ref = MultiplyNaive(a, b);
  EXPECT_EQ(CountingProduct(a, b, MmKernel::kBitSliced, &ec), ref);
  EXPECT_EQ(ec.stats().mm_bitsliced_calls.load(), 1);
}

constexpr MmKernel kAllKernels[] = {MmKernel::kBoolean, MmKernel::kBitSliced};

TEST(IndicatorProductTest, EveryKernelMatchesNaive) {
  Rng rng(43);
  const Matrix a = RandomIndicator(20, 90, 0.3, &rng);
  const Matrix b = RandomIndicator(90, 25, 0.3, &rng);
  const Matrix ref = MultiplyNaive(a, b);
  ASSERT_TRUE(ref.AnyNonZero());
  for (MmKernel kernel : kAllKernels) {
    ExecContext ec(2);
    IndicatorProduct p(20, 90, 25, kernel, ec);
    for (int i = 0; i < 20; ++i) {
      for (int k = 0; k < 90; ++k) {
        if (a.At(i, k) != 0) p.SetA(i, k);
      }
    }
    for (int k = 0; k < 90; ++k) {
      for (int j = 0; j < 25; ++j) {
        if (b.At(k, j) != 0) p.SetB(k, j);
      }
    }
    p.Multiply();
    EXPECT_EQ(ec.stats().mm_products.load(), 1);
    for (int i = 0; i < 20; ++i) {
      for (int j = 0; j < 25; ++j) {
        ASSERT_EQ(p.NonZero(i, j), ref.At(i, j) != 0) << i << "," << j;
        if (kernel != MmKernel::kBoolean) {
          ASSERT_EQ(p.Count(i, j), ref.At(i, j)) << i << "," << j;
        }
      }
    }
  }
}

TEST(IndicatorProductTest, ChargesOperandsBeforeAllocatingAndItsProduct) {
  constexpr int kRows = 8, kInner = 4000, kCols = 8;
  for (MmKernel kernel : kAllKernels) {
    // Bit-packed rows are whole 64-bit words; int64 operands are dense.
    const int64_t bytes =
        kernel == MmKernel::kBoolean
            ? (kRows * ((kInner + 63) / 64) + kInner * ((kCols + 63) / 64)) *
                  8
            : int64_t{8} * kInner * (kRows + kCols);
    // The product, charged by Multiply(), is kRows x kCols.
    const int64_t product_bytes =
        kernel == MmKernel::kBoolean ? kRows * ((kCols + 63) / 64) * 8
                                     : int64_t{8} * kRows * kCols;
    ExecContext ec(1);
    {
      IndicatorProduct p(kRows, kInner, kCols, kernel, ec);
      EXPECT_EQ(ec.stats().mem_current_bytes.load(), bytes);
      p.Multiply();
      EXPECT_EQ(ec.stats().mem_current_bytes.load(), bytes + product_bytes);
    }
    EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
    const ExecResult res =
        RunGuarded(ec, {.memory_budget_bytes = bytes / 2}, [&] {
          IndicatorProduct p(kRows, kInner, kCols, kernel, ec);
        });
    EXPECT_EQ(res.status, ExecStatus::kMemoryLimitExceeded);
    EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
    // Only the unbudgeted product above ran.
    EXPECT_EQ(ec.stats().mm_products.load(), 1);
  }
}

TEST(IndicatorProductDeathTest, BooleanIsNotACountingKernel) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Matrix a(2, 3), b(3, 2);
  EXPECT_DEATH(CountingProduct(a, b, MmKernel::kBoolean), "counting kernel");
  EXPECT_DEATH(
      {
        ExecContext ec(1);
        IndicatorProduct p(2, 3, 2, MmKernel::kBoolean, ec);
        p.Multiply();
        (void)p.Count(0, 0);
      },
      "kBoolean");
}

TEST(IndicatorProductDeathTest, BitSlicedRejectsNonZeroOneOperands) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Matrix a(2, 3), b(3, 2);
  a.At(0, 0) = 1;
  b.At(0, 1) = 1;
  Matrix two = a;
  two.At(1, 2) = 2;
  Matrix negative = b;
  negative.At(2, 0) = -1;
  // Checked in every build type, not only under FMMSW_DCHECK: a 2 would
  // otherwise count as 1 and return a wrong product silently.
  EXPECT_DEATH(MultiplyBitSliced(two, b), "0/1 inputs");
  EXPECT_DEATH(MultiplyBitSliced(a, negative), "0/1 inputs");
  EXPECT_DEATH(CountingProduct(two, b, MmKernel::kBitSliced), "0/1 inputs");
}

TEST(BitSlicedTest, IsZeroOne) {
  Matrix m(2, 2);
  EXPECT_TRUE(IsZeroOne(m));
  m.At(0, 1) = 1;
  EXPECT_TRUE(IsZeroOne(m));
  m.At(1, 0) = 2;
  EXPECT_FALSE(IsZeroOne(m));
  m.At(1, 0) = -1;
  EXPECT_FALSE(IsZeroOne(m));
  EXPECT_TRUE(IsZeroOne(Matrix(0, 3)));
}

// --------------------------------------------- degenerate shapes -------

TEST(DegenerateShapeTest, ZeroDimensionProductsAcrossKernels) {
  // 0-row / 0-col / 0-inner products must return correctly shaped
  // all-zero matrices from every kernel and operator.
  const struct {
    int m, k, n;
  } shapes[] = {{0, 0, 0}, {0, 5, 3}, {3, 0, 4}, {4, 6, 0}, {0, 0, 7}};
  for (const auto& s : shapes) {
    Matrix a(s.m, s.k), b(s.k, s.n);
    const Matrix ref = MultiplyNaive(a, b);
    EXPECT_EQ(ref.rows(), s.m);
    EXPECT_EQ(ref.cols(), s.n);
    EXPECT_FALSE(ref.AnyNonZero());
    EXPECT_EQ(MultiplyBitSliced(a, b), ref);
    EXPECT_EQ(CountingProduct(a, b, MmKernel::kBitSliced), ref);
    for (MmKernel kernel : kAllKernels) {
      ExecContext ec(1);
      {
        IndicatorProduct p(s.m, s.k, s.n, kernel, ec);
        p.Multiply();
        for (int i = 0; i < s.m; ++i) {
          for (int j = 0; j < s.n; ++j) EXPECT_FALSE(p.NonZero(i, j));
        }
      }
      EXPECT_EQ(ec.stats().mm_products.load(), 1);
      EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
    }
  }
}

TEST(DegenerateShapeTest, AnyNonZeroAndEmptyOnDegenerateMatrices) {
  EXPECT_TRUE(Matrix(0, 0).empty());
  EXPECT_TRUE(Matrix(0, 5).empty());
  EXPECT_TRUE(Matrix(5, 0).empty());
  EXPECT_FALSE(Matrix(1, 1).empty());
  EXPECT_FALSE(Matrix(0, 0).AnyNonZero());
  EXPECT_FALSE(Matrix(0, 5).AnyNonZero());
  EXPECT_FALSE(Matrix(5, 0).AnyNonZero());
  EXPECT_FALSE(BitMatrix(0, 0).AnyNonZero());
  EXPECT_FALSE(BitMatrix(0, 9).AnyNonZero());
}

TEST(CostModelTest, OmegaSquareExponent) {
  // Eq. (6): square case gives omega, degenerate min gives linear I/O.
  EXPECT_DOUBLE_EQ(OmegaSquareExponent(1, 1, 1, 2.371552), 2.371552);
  EXPECT_DOUBLE_EQ(OmegaSquareExponent(1, 1, 0, 2.371552), 2.0);
  EXPECT_DOUBLE_EQ(OmegaSquareExponent(1, 0.5, 0.25, 2.0), 1.5);
  // omega = 3 degenerates to the naive product a+b+c.
  EXPECT_DOUBLE_EQ(OmegaSquareExponent(0.5, 0.7, 0.9, 3.0), 2.1);
}

TEST(CostModelTest, PredictedOpsScalesLikeOmega) {
  // Doubling n multiplies the square-MM cost by ~2^omega.
  const double omega = 2.807;
  const double r = PredictedMmOps(512, 512, 512, omega) /
                   PredictedMmOps(256, 256, 256, omega);
  EXPECT_NEAR(std::log2(r), omega, 1e-9);
}

TEST(CostModelTest, RectangularBlockCount) {
  // (m/d)(k/d)(n/d) * d^omega with d = min dimension.
  const double v = PredictedMmOps(100, 10, 1000, 2.0);
  EXPECT_DOUBLE_EQ(v, 10.0 * 1.0 * 100.0 * 100.0);
}

}  // namespace
}  // namespace fmmsw
