#include "engine/pyramid.h"

#include <cmath>

#include "core/exec_context.h"
#include "mm/kernel.h"
#include "relation/degree.h"
#include "relation/flat_index.h"
#include "relation/ops.h"
#include "util/check.h"
#include "util/parallel.h"

namespace fmmsw {

namespace {

constexpr int kApex = 0;  // Y
constexpr int kX1 = 1, kX2 = 2, kX3 = 3;

}  // namespace

bool Pyramid3Mm(const QueryInput& db, double omega, PyramidStats* stats,
                ExecContext* ctx) {
  FMMSW_CHECK(db.relations.size() == 4);
  ExecContext& ec = ExecContext::Resolve(ctx);
  const Relation& r1 = db.relations[0];  // R1(Y, X1)
  const Relation& r2 = db.relations[1];  // R2(Y, X2)
  const Relation& r3 = db.relations[2];  // R3(Y, X3)
  const Relation& base = db.relations[3];  // B(X1, X2, X3)
  const double n = static_cast<double>(db.TotalSize());
  if (n == 0) return false;
  const int64_t delta = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(std::pow(n, 1.0 - 1.0 / omega))));
  const int64_t sqrt_delta = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(std::sqrt(
             static_cast<double>(delta)))));

  const Relation* apex_rels[3] = {&r1, &r2, &r3};

  // ---- Case 1: some x_i is light in its apex relation. Join the base
  // with the light part and check the other two apex relations — both
  // checks are fused into the join as existence-only probes, so the
  // N * Delta intermediate is never materialized; limit 1 stops at the
  // first witness.
  for (int i = 0; i < 3; ++i) {
    auto part = PartitionByDegree(*apex_rels[i], VarSet{kApex},
                                  VarSet::Singleton(kX1 + i), delta, &ec);
    const Relation* checks[2];
    int nchecks = 0;
    for (int j = 0; j < 3; ++j) {
      if (j != i) checks[nchecks++] = apex_rels[j];
    }
    Relation witness =
        Join(base, part.light,
             {.exist_filters = {checks[0], checks[1]}, .limit = 1}, &ec);
    if (stats != nullptr) {
      stats->case1_tuples += static_cast<int64_t>(witness.size());
    }
    if (!witness.empty()) return true;
  }

  // ---- Case 2: y has small apex degrees in R1 and R2. Enumerate
  // (y, x3) in R3, loop over x1 in R1[y], x2 in R2[y], probe the base.
  // All the per-value lookups run on flat indexes of the relations
  // themselves (no std::unordered_map side structures).
  auto p1 =
      PartitionByDegree(r1, VarSet{kX1}, VarSet{kApex}, sqrt_delta, &ec);
  auto p2 =
      PartitionByDegree(r2, VarSet{kX2}, VarSet{kApex}, sqrt_delta, &ec);
  Relation heavy_y = Union(p1.heavy, p2.heavy, &ec);  // unary over {Y}
  {
    const KeySpec kbase12(base, VarSet{kX1, kX2});
    const FlatMultimap base_by_x1x2(base, kbase12, &ec);
    const int base_x3_col = base.ColumnOf(kX3);
    const KeySpec k1(p1.light, VarSet{kApex});
    const KeySpec k2(p2.light, VarSet{kApex});
    const FlatMultimap x1_of_y(p1.light, k1, &ec);
    const FlatMultimap x2_of_y(p2.light, k2, &ec);
    const int l1_x1_col = p1.light.ColumnOf(kX1);
    const int l2_x2_col = p2.light.ColumnOf(kX2);
    const FlatInterner heavy_y_set(heavy_y,
                                   KeySpec(heavy_y, heavy_y.schema()), &ec);
    for (size_t row = 0; row < r3.size(); ++row) {
      const Value y = r3.Get(row, kApex);
      if (heavy_y_set.FindValue(y) >= 0) continue;
      const uint64_t ykey = static_cast<uint32_t>(y);
      const int32_t first1 = x1_of_y.First(ykey);
      if (first1 < 0) continue;
      const int32_t first2 = x2_of_y.First(ykey);
      if (first2 < 0) continue;
      const Value x3 = r3.Get(row, kX3);
      for (int32_t row1 = first1; row1 >= 0; row1 = x1_of_y.Next(row1)) {
        const Value x1 = p1.light.Row(row1)[l1_x1_col];
        for (int32_t row2 = first2; row2 >= 0; row2 = x2_of_y.Next(row2)) {
          const Value x2 = p2.light.Row(row2)[l2_x2_col];
          if (stats != nullptr) ++stats->case2_tuples;
          const uint64_t bkey =
              (static_cast<uint64_t>(static_cast<uint32_t>(x1)) << 32) |
              static_cast<uint32_t>(x2);
          for (int32_t brow = base_by_x1x2.First(bkey); brow >= 0;
               brow = base_by_x1x2.Next(brow)) {
            if (base.Row(brow)[base_x3_col] == x3) return true;
          }
        }
      }
    }
  }

  // ---- Case 3: all x_i heavy and y heavy. Eliminate Y with
  // MM(X2; X3; Y | X1): for each heavy x1, multiply the X2-by-Y and
  // Y-by-X3 Boolean matrices, then probe the base.
  auto h1 =
      PartitionByDegree(r1, VarSet{kApex}, VarSet{kX1}, delta, &ec).heavy;
  auto h2 =
      PartitionByDegree(r2, VarSet{kApex}, VarSet{kX2}, delta, &ec).heavy;
  auto h3 =
      PartitionByDegree(r3, VarSet{kApex}, VarSet{kX3}, delta, &ec).heavy;
  Relation r1h = SemijoinAll(r1, {&h1, &heavy_y}, &ec);
  Relation r2h = SemijoinAll(r2, {&h2, &heavy_y}, &ec);
  Relation r3h = SemijoinAll(r3, {&h3, &heavy_y}, &ec);
  if (r1h.empty() || r2h.empty() || r3h.empty()) return false;

  const KeySpec kr1h(r1h, VarSet{kX1});
  const FlatMultimap y_of_x1(r1h, kr1h, &ec);
  const int r1h_y_col = r1h.ColumnOf(kApex);
  const KeySpec kr2h(r2h, VarSet{kApex});
  const KeySpec kr3h(r3h, VarSet{kApex});
  const FlatMultimap x2_of_y(r2h, kr2h, &ec);
  const FlatMultimap x3_of_y(r3h, kr3h, &ec);
  const int r2h_x2_col = r2h.ColumnOf(kX2);
  const int r3h_x3_col = r3h.ColumnOf(kX3);
  const KeySpec kbase1(base, VarSet{kX1});
  const FlatMultimap base_by_x1(base, kbase1, &ec);
  const int base_x2_col = base.ColumnOf(kX2);
  const int base_x3_col = base.ColumnOf(kX3);

  // Independent MM groups, one per heavy x1 with base support — probe
  // them in parallel on the context's pool (each iteration only reads the
  // shared indexes).
  Relation x1s = Project(r1h, VarSet{kX1}, &ec);
  std::vector<Value> groups;
  groups.reserve(x1s.size());
  for (size_t row = 0; row < x1s.size(); ++row) {
    const Value x1 = x1s.Row(row)[0];
    if (base_by_x1.First(static_cast<uint32_t>(x1)) >= 0) {
      groups.push_back(x1);
    }
  }
  if (stats != nullptr) {
    stats->mm_groups += static_cast<int64_t>(groups.size());
  }
  return ParallelAnyOf(
      ec.pool(), static_cast<int64_t>(groups.size()), [&](int64_t g) {
        const Value x1 = groups[g];
        const uint64_t x1key = static_cast<uint32_t>(x1);
        // Local dense indices for this group.
        FlatInterner yi, x2i, x3i;
        for (int32_t row = y_of_x1.First(x1key); row >= 0;
             row = y_of_x1.Next(row)) {
          const Value y = r1h.Row(row)[r1h_y_col];
          yi.InternValue(y);
          const uint64_t ykey = static_cast<uint32_t>(y);
          for (int32_t r2row = x2_of_y.First(ykey); r2row >= 0;
               r2row = x2_of_y.Next(r2row)) {
            x2i.InternValue(r2h.Row(r2row)[r2h_x2_col]);
          }
          for (int32_t r3row = x3_of_y.First(ykey); r3row >= 0;
               r3row = x3_of_y.Next(r3row)) {
            x3i.InternValue(r3h.Row(r3row)[r3h_x3_col]);
          }
        }
        if (x2i.size() == 0 || x3i.size() == 0) return false;
        IndicatorProduct prod(x2i.size(), yi.size(), x3i.size(), ec);
        for (int32_t row = y_of_x1.First(x1key); row >= 0;
             row = y_of_x1.Next(row)) {
          const Value y = r1h.Row(row)[r1h_y_col];
          const int yc = yi.FindValue(y);
          const uint64_t ykey = static_cast<uint32_t>(y);
          for (int32_t r2row = x2_of_y.First(ykey); r2row >= 0;
               r2row = x2_of_y.Next(r2row)) {
            prod.SetA(x2i.FindValue(r2h.Row(r2row)[r2h_x2_col]), yc);
          }
          for (int32_t r3row = x3_of_y.First(ykey); r3row >= 0;
               r3row = x3_of_y.Next(r3row)) {
            prod.SetB(yc, x3i.FindValue(r3h.Row(r3row)[r3h_x3_col]));
          }
        }
        prod.Multiply();
        for (int32_t brow = base_by_x1.First(x1key); brow >= 0;
             brow = base_by_x1.Next(brow)) {
          const int i2 = x2i.FindValue(base.Row(brow)[base_x2_col]);
          const int i3 = x3i.FindValue(base.Row(brow)[base_x3_col]);
          if (i2 >= 0 && i3 >= 0 && prod.NonZero(i2, i3)) return true;
        }
        return false;
      });
}

}  // namespace fmmsw
