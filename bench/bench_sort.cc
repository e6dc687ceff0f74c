// E-sort — the wide-key radix layer vs the comparator sorts it replaced,
// across an arity x size x domain sweep. Two workload shapes:
//   - dedupe_*   : Relation::SortAndDedupe (sort + collapse duplicates +
//                  gather-unpack) vs the pre-PR reference (index std::sort
//                  with indirect per-row compares + dedupe gather).
//   - triebuild_*: the generic-WCOJ trie-build shape (sort the projection,
//                  keep duplicates, materialize sorted rows) vs the pre-PR
//                  comparator index sort + per-row copy loop.
// Kernels: "comparator" (the replaced implementation, kept here as the
// measured baseline), "radix" (wide-key layer, 1-thread context), and
// "radix_mt4" (4-worker context; the pool-parallel passes, bit-identical
// to serial — only meaningful wall-clock-wise on multi-core hosts).
// Every radix result is verified against the comparator baseline before
// timing. JSON rows carry sort_ms (the ExecStats::sort_ns delta) so the
// in-layer time is split from the end-to-end number.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/exec_context.h"
#include "relation/relation.h"
#include "relation/row_sort.h"
#include "util/random.h"

namespace fmmsw {
namespace {

Relation RandomRows(int arity, size_t n, Value domain, Rng* rng) {
  Relation r(VarSet::Full(arity));
  std::vector<Value> row(arity);
  for (size_t i = 0; i < n; ++i) {
    for (int c = 0; c < arity; ++c) {
      // Centered on zero: negative values exercise the bias packing.
      row[c] = static_cast<Value>(rng->Uniform(-(domain / 2), domain / 2));
    }
    r.AddRow(row.data());
  }
  return r;
}

/// The pre-PR SortAndDedupe fallback for arity >= 3: index sort with an
/// indirect lexicographic comparator, then a dedupe gather.
std::vector<Value> ComparatorSortDedupe(const Relation& r) {
  const size_t a = static_cast<size_t>(r.arity());
  std::vector<size_t> order(r.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const Value* base = r.Row(0);
  std::sort(order.begin(), order.end(), [base, a](size_t x, size_t y) {
    return std::lexicographical_compare(base + x * a, base + (x + 1) * a,
                                        base + y * a, base + (y + 1) * a);
  });
  std::vector<Value> out;
  out.reserve(r.size() * a);
  for (size_t idx = 0; idx < order.size(); ++idx) {
    const Value* row = base + order[idx] * a;
    if (!out.empty() &&
        std::equal(row, row + a, out.end() - static_cast<long>(a))) {
      continue;
    }
    out.insert(out.end(), row, row + a);
  }
  return out;
}

/// The pre-PR trie build: comparator index sort over row indices plus the
/// per-row copy loop (duplicates kept).
std::vector<Value> ComparatorTrieBuild(const Relation& r) {
  const size_t a = static_cast<size_t>(r.arity());
  std::vector<uint32_t> order(r.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<uint32_t>(i);
  }
  const Value* base = r.Row(0);
  std::sort(order.begin(), order.end(), [base, a](uint32_t x, uint32_t y) {
    return std::lexicographical_compare(base + x * a, base + (x + 1) * a,
                                        base + y * a, base + (y + 1) * a);
  });
  std::vector<Value> out(r.size() * a);
  size_t w = 0;
  for (uint32_t row : order) {
    const Value* src = base + row * a;
    for (size_t c = 0; c < a; ++c) out[w++] = src[c];
  }
  return out;
}

void Report(const char* name, size_t n, const bench::Timing& cmp,
            const bench::Timing& radix, const bench::Timing& mt) {
  bench::Json(name, static_cast<long long>(n), "comparator", cmp);
  bench::Json(name, static_cast<long long>(n), "radix", radix);
  bench::Json(name, static_cast<long long>(n), "radix_mt4", mt);
  std::printf("%-22s n=%8zu  comparator=%9.3fms  radix=%9.3fms (%4.1fx)"
              "  mt4=%9.3fms\n",
              name, n, cmp.median_ms, radix.median_ms,
              cmp.median_ms / radix.median_ms, mt.median_ms);
}

void SweepConfig(int arity, size_t n, Value domain, const char* dtag) {
  Rng rng(17 + arity);
  const Relation input = RandomRows(arity, n, domain, &rng);
  ExecContext ec1(1), ec4(4);
  std::vector<int> cols(arity);
  for (int c = 0; c < arity; ++c) cols[c] = c;
  char name[64];

  // ---- dedupe shape -----------------------------------------------------
  const std::vector<Value> dd_ref = ComparatorSortDedupe(input);
  for (ExecContext* ec : {&ec1, &ec4}) {
    Relation check = input;
    check.SortAndDedupe(ec);
    const std::vector<Value> got(check.Row(0),
                                 check.Row(0) + check.size() * arity);
    FMMSW_CHECK(got == dd_ref);
  }
  const bench::Timing cmp =
      bench::Sample(ec1, [&] { ComparatorSortDedupe(input); });
  const bench::Timing radix = bench::Sample(ec1, [&] {
    Relation r = input;
    r.SortAndDedupe(&ec1);
  });
  const bench::Timing mt = bench::Sample(ec4, [&] {
    Relation r = input;
    r.SortAndDedupe(&ec4);
  });
  std::snprintf(name, sizeof(name), "dedupe_a%d_%s", arity, dtag);
  Report(name, n, cmp, radix, mt);

  // ---- trie-build shape -------------------------------------------------
  const std::vector<Value> tb_ref = ComparatorTrieBuild(input);
  {
    std::vector<Value> got;
    SortProjectedRows(input, cols, ec1, &got);
    FMMSW_CHECK(got == tb_ref);
    SortProjectedRows(input, cols, ec4, &got);
    FMMSW_CHECK(got == tb_ref);
  }
  const bench::Timing b_cmp =
      bench::Sample(ec1, [&] { ComparatorTrieBuild(input); });
  const bench::Timing b_radix = bench::Sample(ec1, [&] {
    std::vector<Value> out;
    SortProjectedRows(input, cols, ec1, &out);
  });
  const bench::Timing b_mt = bench::Sample(ec4, [&] {
    std::vector<Value> out;
    SortProjectedRows(input, cols, ec4, &out);
  });
  std::snprintf(name, sizeof(name), "triebuild_a%d_%s", arity, dtag);
  Report(name, n, b_cmp, b_radix, b_mt);
}

void Run() {
  bench::Header(
      "Wide-key radix sort layer vs comparator sorts (verified, then timed)");
  for (int arity : {3, 4, 8}) {
    for (long long n : {4000, 16000, 262144, 1048576}) {
      if (!bench::StepEnabled(n)) continue;
      // Small domains are the paper's regime (dup-heavy, most key bytes
      // constant -> few radix passes); the big domain forces every byte.
      SweepConfig(arity, static_cast<size_t>(n), /*domain=*/512, "dsmall");
      SweepConfig(arity, static_cast<size_t>(n), /*domain=*/1 << 20,
                  "dbig");
    }
  }
}

}  // namespace
}  // namespace fmmsw

int main(int argc, char** argv) {
  fmmsw::bench::Init(argc, argv);
  fmmsw::Run();
  return 0;
}
