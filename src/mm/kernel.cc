#include "mm/kernel.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "core/exec_context.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FMMSW_MM_X86 1
#include <immintrin.h>
#else
#define FMMSW_MM_X86 0
#endif

namespace fmmsw {

namespace {

constexpr int kMr = kMmTileRows;
constexpr int kNr = kMmTileCols;
/// Depth of one packed panel pass: B strips stay L1-resident (kKc * kNr
/// int64s = 24 KiB) while an A slab streams against them.
constexpr int kKc = 384;

/// Inner kernel contract: acc (kMr x kNr, row-major) = sum over kk of
/// ap[kk * kMr + r] * bp[kk * kNr + j]. ap/bp are zero-padded packed
/// strips, so edge tiles need no masking here.
using MicroFn = void (*)(const int64_t* ap, const int64_t* bp, int kc,
                         int64_t* acc);

void MicroKernelScalar(const int64_t* ap, const int64_t* bp, int kc,
                       int64_t* acc) {
  std::memset(acc, 0, sizeof(int64_t) * kMr * kNr);
  for (int kk = 0; kk < kc; ++kk) {
    const int64_t* arow = ap + static_cast<size_t>(kk) * kMr;
    if ((arow[0] | arow[1] | arow[2] | arow[3]) == 0) continue;
    const int64_t* brow = bp + static_cast<size_t>(kk) * kNr;
    for (int r = 0; r < kMr; ++r) {
      const int64_t av = arow[r];
      if (av == 0) continue;  // indicator matrices are mostly zero
      int64_t* accr = acc + r * kNr;
      // Unsigned arithmetic: the documented contract is exact mod 2^64,
      // and signed overflow would be UB — uint64 wraps by definition and
      // compiles to the same imul/add.
      for (int j = 0; j < kNr; ++j) {
        accr[j] = static_cast<int64_t>(
            static_cast<uint64_t>(accr[j]) +
            static_cast<uint64_t>(av) * static_cast<uint64_t>(brow[j]));
      }
    }
  }
}

#if FMMSW_MM_X86

/// 4-lane 64-bit multiply mod 2^64: AVX2 has no vpmullq, so build it from
/// three 32x32->64 vpmuludq partial products. alo/ahi broadcast the low
/// and high halves of the (scalar) A value; b/bh are the B lanes and
/// their high halves. Identical to scalar imul's low 64 bits, which keeps
/// the kernel bit-compatible with the scalar path.
__attribute__((target("avx2"))) inline __m256i Mul64(__m256i alo,
                                                     __m256i ahi, __m256i b,
                                                     __m256i bh) {
  const __m256i lolo = _mm256_mul_epu32(alo, b);
  const __m256i lohi = _mm256_mul_epu32(alo, bh);
  const __m256i hilo = _mm256_mul_epu32(ahi, b);
  const __m256i cross = _mm256_add_epi64(lohi, hilo);
  return _mm256_add_epi64(lolo, _mm256_slli_epi64(cross, 32));
}

__attribute__((target("avx2"))) void MicroKernelAvx2W32(const int64_t* ap,
                                                        const int64_t* bp,
                                                        int kc,
                                                        int64_t* acc) {
  // Narrow-value fast path: when every packed A and B value fits in
  // int32 (the packers verify — true for the engines' 0/1 indicator
  // matrices and the small Strassen combinations of them), the exact
  // 64-bit product is a single signed vpmuldq per vector instead of the
  // three-vpmuludq emulation below.
  __m256i c0a = _mm256_setzero_si256(), c0b = _mm256_setzero_si256();
  __m256i c1a = _mm256_setzero_si256(), c1b = _mm256_setzero_si256();
  __m256i c2a = _mm256_setzero_si256(), c2b = _mm256_setzero_si256();
  __m256i c3a = _mm256_setzero_si256(), c3b = _mm256_setzero_si256();
  for (int kk = 0; kk < kc; ++kk) {
    const int64_t* arow = ap + static_cast<size_t>(kk) * kMr;
    // One whole-quad zero skip (mostly-zero strips are common in the
    // engines' indicator panels); per-row branches are deliberately NOT
    // taken — at mixed densities their mispredictions cost more than the
    // multiplies they save, and a zero lane multiplies to zero anyway.
    if ((arow[0] | arow[1] | arow[2] | arow[3]) == 0) continue;
    const __m256i* brow =
        reinterpret_cast<const __m256i*>(bp + static_cast<size_t>(kk) * kNr);
    // vpmuldq reads the low 32 bits of each 64-bit lane as signed; an
    // int64 lane holding an int32-ranged value has exactly that value in
    // its low half.
    const __m256i b0 = _mm256_loadu_si256(brow);
    const __m256i b1 = _mm256_loadu_si256(brow + 1);
    const __m256i a0 = _mm256_set1_epi64x(arow[0]);
    const __m256i a1 = _mm256_set1_epi64x(arow[1]);
    const __m256i a2 = _mm256_set1_epi64x(arow[2]);
    const __m256i a3 = _mm256_set1_epi64x(arow[3]);
    c0a = _mm256_add_epi64(c0a, _mm256_mul_epi32(a0, b0));
    c0b = _mm256_add_epi64(c0b, _mm256_mul_epi32(a0, b1));
    c1a = _mm256_add_epi64(c1a, _mm256_mul_epi32(a1, b0));
    c1b = _mm256_add_epi64(c1b, _mm256_mul_epi32(a1, b1));
    c2a = _mm256_add_epi64(c2a, _mm256_mul_epi32(a2, b0));
    c2b = _mm256_add_epi64(c2b, _mm256_mul_epi32(a2, b1));
    c3a = _mm256_add_epi64(c3a, _mm256_mul_epi32(a3, b0));
    c3b = _mm256_add_epi64(c3b, _mm256_mul_epi32(a3, b1));
  }
  __m256i* out = reinterpret_cast<__m256i*>(acc);
  _mm256_storeu_si256(out + 0, c0a);
  _mm256_storeu_si256(out + 1, c0b);
  _mm256_storeu_si256(out + 2, c1a);
  _mm256_storeu_si256(out + 3, c1b);
  _mm256_storeu_si256(out + 4, c2a);
  _mm256_storeu_si256(out + 5, c2b);
  _mm256_storeu_si256(out + 6, c3a);
  _mm256_storeu_si256(out + 7, c3b);
}

/// One A value against the two loaded B vectors: ca/cb += av * b0/b1.
/// (A named helper, not a lambda: GCC lambdas do not inherit the
/// enclosing function's target attribute.)
__attribute__((target("avx2"))) inline void RowUpdate(int64_t av, __m256i b0,
                                                      __m256i b0h,
                                                      __m256i b1,
                                                      __m256i b1h,
                                                      __m256i& ca,
                                                      __m256i& cb) {
  if (av == 0) return;  // indicator matrices are mostly zero
  const uint64_t u = static_cast<uint64_t>(av);
  const __m256i alo =
      _mm256_set1_epi64x(static_cast<int64_t>(u & 0xffffffffULL));
  const __m256i ahi = _mm256_set1_epi64x(static_cast<int64_t>(u >> 32));
  ca = _mm256_add_epi64(ca, Mul64(alo, ahi, b0, b0h));
  cb = _mm256_add_epi64(cb, Mul64(alo, ahi, b1, b1h));
}

__attribute__((target("avx2"))) void MicroKernelAvx2(const int64_t* ap,
                                                     const int64_t* bp,
                                                     int kc, int64_t* acc) {
  // 4 x 8 accumulator tile = 8 ymm registers, two B vectors (+ their
  // shifted halves) live across the row updates.
  __m256i c0a = _mm256_setzero_si256(), c0b = _mm256_setzero_si256();
  __m256i c1a = _mm256_setzero_si256(), c1b = _mm256_setzero_si256();
  __m256i c2a = _mm256_setzero_si256(), c2b = _mm256_setzero_si256();
  __m256i c3a = _mm256_setzero_si256(), c3b = _mm256_setzero_si256();
  for (int kk = 0; kk < kc; ++kk) {
    const int64_t* arow = ap + static_cast<size_t>(kk) * kMr;
    if ((arow[0] | arow[1] | arow[2] | arow[3]) == 0) continue;
    const __m256i* brow =
        reinterpret_cast<const __m256i*>(bp + static_cast<size_t>(kk) * kNr);
    const __m256i b0 = _mm256_loadu_si256(brow);
    const __m256i b1 = _mm256_loadu_si256(brow + 1);
    const __m256i b0h = _mm256_srli_epi64(b0, 32);
    const __m256i b1h = _mm256_srli_epi64(b1, 32);
    RowUpdate(arow[0], b0, b0h, b1, b1h, c0a, c0b);
    RowUpdate(arow[1], b0, b0h, b1, b1h, c1a, c1b);
    RowUpdate(arow[2], b0, b0h, b1, b1h, c2a, c2b);
    RowUpdate(arow[3], b0, b0h, b1, b1h, c3a, c3b);
  }
  __m256i* out = reinterpret_cast<__m256i*>(acc);
  _mm256_storeu_si256(out + 0, c0a);
  _mm256_storeu_si256(out + 1, c0b);
  _mm256_storeu_si256(out + 2, c1a);
  _mm256_storeu_si256(out + 3, c1b);
  _mm256_storeu_si256(out + 4, c2a);
  _mm256_storeu_si256(out + 5, c2b);
  _mm256_storeu_si256(out + 6, c3a);
  _mm256_storeu_si256(out + 7, c3b);
}

#endif  // FMMSW_MM_X86

MicroFn MicroKernelFor(SimdLevel level) {
#if FMMSW_MM_X86
  if (level == SimdLevel::kAvx2) return &MicroKernelAvx2;
#else
  (void)level;
#endif
  return &MicroKernelScalar;
}

/// Kernel for chunks whose packed values all fit in int32 (`fallback` =
/// the general kernel for this level; the scalar kernel has no narrow
/// variant — imul is full-width either way).
MicroFn NarrowKernelFor(SimdLevel level, MicroFn fallback) {
#if FMMSW_MM_X86
  if (level == SimdLevel::kAvx2) return &MicroKernelAvx2W32;
#endif
  (void)level;
  return fallback;
}

SimdLevel ParseSimdEnv(SimdLevel hw) {
  const char* env = std::getenv("FMMSW_SIMD");
  if (env == nullptr) return hw;
  if (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0 ||
      std::strcmp(env, "0") == 0) {
    return SimdLevel::kScalar;
  }
  if (std::strcmp(env, "avx2") == 0 || std::strcmp(env, "on") == 0) {
    return std::min(SimdLevel::kAvx2, hw);  // clamp to what can execute
  }
  return hw;  // "auto" and unrecognized values keep the probe result
}

}  // namespace

SimdLevel MaxSimdLevel() {
#if FMMSW_MM_X86
  return __builtin_cpu_supports("avx2") ? SimdLevel::kAvx2
                                        : SimdLevel::kScalar;
#else
  return SimdLevel::kScalar;
#endif
}

SimdLevel ActiveSimdLevel() {
  static const SimdLevel level = ParseSimdEnv(MaxSimdLevel());
  return level;
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

void GemmAddAt(SimdLevel level, const int64_t* a, int lda, const int64_t* b,
               int ldb, int64_t* c, int ldc, int m, int k, int n,
               ExecContext* ctx, MmPackScratch* scratch) {
  if (m <= 0 || n <= 0 || k <= 0) return;  // degenerate shapes are no-ops
  ExecContext& ec = ExecContext::Resolve(ctx);
  // One poll per base-case product: every blocked slab, Strassen leaf and
  // rectangular block passes through here.
  ec.guard().Poll(FaultSite::kMm);
  Bump(ec.stats().mm_base_calls);
  if (level != SimdLevel::kScalar) Bump(ec.stats().mm_simd_calls);
  const MicroFn micro = MicroKernelFor(level);

  // Pack buffers: caller-provided scratch, else a free worker arena of
  // the context (losers of the atomic acquire — e.g. several slabs
  // multiplying concurrently — use call-local buffers). The lease is
  // RAII: a QueryAbort unwinding out of a poll below must not leave the
  // arena permanently busy.
  MmPackScratch local;
  ArenaLease lease;
  std::vector<uint64_t>* apv = nullptr;
  std::vector<uint64_t>* bpv = nullptr;
  if (scratch != nullptr) {
    apv = &scratch->a_pack;
    bpv = &scratch->b_pack;
  } else {
    lease = ArenaLease(ec);
    apv = lease ? &lease.get()->u64() : &local.a_pack;
    bpv = lease ? &lease.get()->u64b() : &local.b_pack;
  }

  const int mstrips = (m + kMr - 1) / kMr;
  const int nstrips = (n + kNr - 1) / kNr;
  const int kc_max = std::min(k, kKc);
  if (apv->size() < static_cast<size_t>(mstrips) * kMr * kc_max) {
    apv->resize(static_cast<size_t>(mstrips) * kMr * kc_max);
  }
  if (bpv->size() < static_cast<size_t>(nstrips) * kNr * kc_max) {
    bpv->resize(static_cast<size_t>(nstrips) * kNr * kc_max);
  }
  // int64_t and uint64_t are signed/unsigned siblings, so viewing the
  // arena's uint64 buffers as int64 panels is well-defined aliasing.
  int64_t* apack = reinterpret_cast<int64_t*>(apv->data());
  int64_t* bpack = reinterpret_cast<int64_t*>(bpv->data());

  int64_t pack_ns = 0;
  alignas(32) int64_t acc[kMr * kNr];
  // Per-strip nonzero flags of the current A chunk; strips of zeros (and
  // whole-zero chunks) contribute nothing and skip B packing + kernels —
  // sparse operands (the engines' indicator matrices, zero quadrants of
  // the Strassen embedding) keep their O(nnz)-ish cost. Products taller
  // than kMaxStrips tiles just forgo the skip (flags pinned nonzero).
  constexpr int kMaxStrips = 512;
  uint8_t strip_nonzero[kMaxStrips];
  for (int kk0 = 0; kk0 < k; kk0 += kKc) {
    const int kc = std::min(kKc, k - kk0);
    // The packers also range-check: when every A and B value of the chunk
    // fits in int32 the vector path can use the single-multiply narrow
    // kernel (see MicroKernelAvx2W32). `bad` collects the bits lost by
    // truncating each value to int32 — zero iff all values fit.
    uint64_t bad = 0;
    Stopwatch sw;
    // A chunk -> MR-tall strips, k-major, edge rows zero-padded.
    bool chunk_nonzero = false;
    for (int is = 0; is < mstrips; ++is) {
      const int i0 = is * kMr;
      const int iw = std::min(kMr, m - i0);
      int64_t* dst = apack + static_cast<size_t>(is) * kMr * kc;
      uint64_t any = 0;
      for (int kk = 0; kk < kc; ++kk) {
        const int col = kk0 + kk;
        for (int ii = 0; ii < iw; ++ii) {
          const int64_t v = a[static_cast<size_t>(i0 + ii) * lda + col];
          bad |= static_cast<uint64_t>(v ^ static_cast<int32_t>(v));
          any |= static_cast<uint64_t>(v);
          dst[ii] = v;
        }
        for (int ii = iw; ii < kMr; ++ii) dst[ii] = 0;
        dst += kMr;
      }
      if (is < kMaxStrips) strip_nonzero[is] = any != 0;
      chunk_nonzero |= any != 0;
    }
    if (!chunk_nonzero) {
      pack_ns += static_cast<int64_t>(sw.Seconds() * 1e9);
      continue;  // zero chunk: no B pack, no kernels
    }
    // B chunk -> NR-wide strips, k-major inside a strip, edge columns
    // zero-padded.
    for (int js = 0; js < nstrips; ++js) {
      const int j0 = js * kNr;
      const int jw = std::min(kNr, n - j0);
      int64_t* dst = bpack + static_cast<size_t>(js) * kNr * kc;
      for (int kk = 0; kk < kc; ++kk) {
        const int64_t* brow =
            b + static_cast<size_t>(kk0 + kk) * ldb + j0;
        for (int jj = 0; jj < jw; ++jj) {
          const int64_t v = brow[jj];
          bad |= static_cast<uint64_t>(v ^ static_cast<int32_t>(v));
          dst[jj] = v;
        }
        for (int jj = jw; jj < kNr; ++jj) dst[jj] = 0;
        dst += kNr;
      }
    }
    pack_ns += static_cast<int64_t>(sw.Seconds() * 1e9);
    const MicroFn chunk_micro =
        bad == 0 ? NarrowKernelFor(level, micro) : micro;

    // j-strip outer so one B strip stays hot while the A slab streams by.
    for (int js = 0; js < nstrips; ++js) {
      const int j0 = js * kNr;
      const int jw = std::min(kNr, n - j0);
      const int64_t* bstrip = bpack + static_cast<size_t>(js) * kNr * kc;
      for (int is = 0; is < mstrips; ++is) {
        if (is < kMaxStrips && !strip_nonzero[is]) continue;
        const int i0 = is * kMr;
        const int iw = std::min(kMr, m - i0);
        chunk_micro(apack + static_cast<size_t>(is) * kMr * kc, bstrip, kc,
                    acc);
        for (int ii = 0; ii < iw; ++ii) {
          int64_t* crow = c + static_cast<size_t>(i0 + ii) * ldc + j0;
          const int64_t* arow = acc + ii * kNr;
          // Unsigned add: mod-2^64 accumulation without signed-overflow UB.
          for (int jj = 0; jj < jw; ++jj) {
            crow[jj] = static_cast<int64_t>(static_cast<uint64_t>(crow[jj]) +
                                            static_cast<uint64_t>(arow[jj]));
          }
        }
      }
    }
  }
  Bump(ec.stats().mm_pack_ns, pack_ns);
}

bool IsZeroOne(const Matrix& m) {
  for (int64_t v : m.data()) {
    if (v != 0 && v != 1) return false;
  }
  return true;
}

Matrix MultiplyBitSliced(const Matrix& a, const Matrix& b,
                         ExecContext* ctx) {
  FMMSW_CHECK(a.cols() == b.rows());
  FMMSW_DCHECK(IsZeroOne(a) && IsZeroOne(b) &&
               "bit-sliced counting product requires 0/1 inputs");
  ExecContext& ec = ExecContext::Resolve(ctx);
  Matrix out(a.rows(), b.cols());
  const int m = a.rows(), k = a.cols(), n = b.cols();
  if (m == 0 || k == 0 || n == 0) return out;
  Bump(ec.stats().mm_bitsliced_calls);
  const int words = (k + 63) / 64;
  Stopwatch sw;
  // Bit planes + counting output, held until the product returns.
  MemCharge charge(ec, (static_cast<int64_t>(m) + n) * words * 8 +
                           static_cast<int64_t>(m) * n * 8);
  std::vector<uint64_t> abits(static_cast<size_t>(m) * words, 0);
  std::vector<uint64_t> bbits(static_cast<size_t>(n) * words, 0);
  for (int i = 0; i < m; ++i) {
    const int64_t* row = a.RowPtr(i);
    uint64_t* dst = &abits[static_cast<size_t>(i) * words];
    for (int kk = 0; kk < k; ++kk) {
      dst[kk >> 6] |= static_cast<uint64_t>(row[kk] != 0) << (kk & 63);
    }
  }
  // B packs transposed: one k-bit plane per output column. A straight
  // per-row scatter (for each kk, conditionally set one bit in all n
  // planes) pays a mispredict-prone branch per element and strides the
  // whole n * words bbits array per row. Blocked transpose instead: for
  // each plane word (64 consecutive kk) and each tile of columns,
  // accumulate the tile's words branchlessly in a small local buffer
  // (compare -> shift -> or vectorizes) and store each exactly once; B's
  // row segments stream contiguously and the write set per tile is
  // kBitPackTile * 8 bytes. 2.8-5.2x over the scatter at n = 512..4096.
  constexpr int kBitPackTile = 512;
  uint64_t tile[kBitPackTile];
  for (int j0 = 0; j0 < n; j0 += kBitPackTile) {
    const int jb = std::min(kBitPackTile, n - j0);
    for (int w = 0; w < words; ++w) {
      std::memset(tile, 0, sizeof(uint64_t) * jb);
      const int k1 = std::min(k, (w + 1) * 64);
      for (int kk = w * 64; kk < k1; ++kk) {
        const int64_t* row = b.RowPtr(kk) + j0;
        const int shift = kk & 63;
        for (int j = 0; j < jb; ++j) {
          tile[j] |= static_cast<uint64_t>(row[j] != 0) << shift;
        }
      }
      for (int j = 0; j < jb; ++j) {
        bbits[static_cast<size_t>(j0 + j) * words + w] = tile[j];
      }
    }
  }
  Bump(ec.stats().mm_pack_ns, static_cast<int64_t>(sw.Seconds() * 1e9));
  ParallelFor(
      ec, FaultSite::kMm, m,
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t i = row_begin; i < row_end; ++i) {
          const uint64_t* arow = &abits[static_cast<size_t>(i) * words];
          int64_t* orow = out.RowPtr(i);
          for (int j = 0; j < n; ++j) {
            const uint64_t* bcol = &bbits[static_cast<size_t>(j) * words];
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

Matrix CountingProduct(const Matrix& a, const Matrix& b, MmKernel kernel,
                       ExecContext* ctx) {
  switch (kernel) {
    case MmKernel::kStrassen:
      return MultiplyRectangular(a, b, kMmDefaultCutoff, ctx);
    case MmKernel::kBitSliced:
      if (IsZeroOne(a) && IsZeroOne(b)) return MultiplyBitSliced(a, b, ctx);
      return MultiplyBlocked(a, b, ctx);
    case MmKernel::kNaive:
      return MultiplyBlocked(a, b, ctx);
    case MmKernel::kBoolean:
      break;
  }
  FMMSW_CHECK(kernel != MmKernel::kBoolean &&
              "kBoolean is not a counting kernel (IndicatorProduct runs it)");
  return Matrix();
}

namespace {

// Bytes of one rows x cols indicator matrix as stored under `kernel`:
// BitMatrix rows are whole 64-bit words, Matrix cells are int64.
int64_t IndicatorBytes(int rows, int cols, MmKernel kernel) {
  const int64_t row_cells =
      kernel == MmKernel::kBoolean ? (cols + 63) / 64 : cols;
  return static_cast<int64_t>(rows) * row_cells * 8;
}

}  // namespace

IndicatorProduct::IndicatorProduct(int rows, int inner, int cols,
                                   MmKernel kernel, ExecContext& ec)
    : ec_(ec),
      kernel_(kernel),
      rows_(rows),
      cols_(cols),
      charge_(ec, IndicatorBytes(rows, inner, kernel) +
                      IndicatorBytes(inner, cols, kernel)) {
  if (kernel_ == MmKernel::kBoolean) {
    bit_a_ = BitMatrix(rows, inner);
    bit_b_ = BitMatrix(inner, cols);
  } else {
    a_ = Matrix(rows, inner);
    b_ = Matrix(inner, cols);
  }
}

void IndicatorProduct::Multiply() {
  Bump(ec_.stats().mm_products);
  if (kernel_ == MmKernel::kBoolean) {
    bit_out_ = BitMatrix::Multiply(bit_a_, bit_b_, &ec_);
  } else {
    out_ = CountingProduct(a_, b_, kernel_, &ec_);
  }
  // The kernel's own charge for its output ended when it returned; the
  // product now lives as long as the operator, so its charge does too.
  charge_.Add(IndicatorBytes(rows_, cols_, kernel_));
}

}  // namespace fmmsw
