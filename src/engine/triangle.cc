#include "engine/triangle.h"

#include <cmath>

#include "core/exec_context.h"
#include "relation/degree.h"
#include "relation/flat_index.h"
#include "relation/ops.h"
#include "util/check.h"

namespace fmmsw {

namespace {

constexpr int kX = 0, kY = 1, kZ = 2;

}  // namespace

bool TriangleMm(const QueryInput& db, double omega, MmKernel kernel,
                TriangleStats* stats, ExecContext* ctx) {
  FMMSW_CHECK(db.relations.size() == 3);
  ExecContext& ec = ExecContext::Resolve(ctx);
  const Relation& r = db.relations[0];  // R(X,Y)
  const Relation& s = db.relations[1];  // S(Y,Z)
  const Relation& t = db.relations[2];  // T(X,Z)
  const double n = static_cast<double>(db.TotalSize());
  if (n == 0) return false;
  const int64_t delta = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(
             std::pow(n, (omega - 1.0) / (omega + 1.0)))));

  // Figure 1: three decomposition steps.
  auto pr = PartitionByDegree(r, VarSet{kY}, VarSet{kX}, delta, &ec);
  auto ps = PartitionByDegree(s, VarSet{kZ}, VarSet{kY}, delta, &ec);
  auto pt = PartitionByDegree(t, VarSet{kX}, VarSet{kZ}, delta, &ec);
  if (stats != nullptr) {
    stats->heavy_x = static_cast<int64_t>(pr.heavy.size());
    stats->heavy_y = static_cast<int64_t>(ps.heavy.size());
    stats->heavy_z = static_cast<int64_t>(pt.heavy.size());
  }

  // Light corners: Q_l1 = T join R_l (check S), Q_l2 = R join S_l (check
  // T), Q_l3 = S join T_l (check R). The checking semijoin is fused into
  // the join as an existence-only probe, so the N * Delta intermediate is
  // never materialized — with limit 1 the first surviving triangle stops
  // the enumeration.
  {
    const struct {
      const Relation* a;
      const Relation* b;
      const Relation* check;
    } light[3] = {{&t, &pr.light, &s}, {&r, &ps.light, &t},
                  {&s, &pt.light, &r}};
    for (const auto& q : light) {
      Relation witness =
          Join(*q.a, *q.b, {.exist_filter = q.check, .limit = 1}, &ec);
      if (stats != nullptr) {
        stats->light_join_tuples += static_cast<int64_t>(witness.size());
      }
      if (!witness.empty()) {
        if (stats != nullptr) stats->answer_from_light = true;
        return true;
      }
    }
  }

  // All-heavy core: M1 = Rh x Sh x R, M2 = Sh x Th x S, multiply, join T.
  Relation m1 = SemijoinAll(r, {&pr.heavy, &ps.heavy}, &ec);
  Relation m2 = SemijoinAll(s, {&ps.heavy, &pt.heavy}, &ec);
  if (m1.empty() || m2.empty()) return false;
  const FlatInterner xi(pr.heavy, KeySpec(pr.heavy, pr.heavy.schema()), &ec);
  const FlatInterner yi(ps.heavy, KeySpec(ps.heavy, ps.heavy.schema()), &ec);
  const FlatInterner zi(pt.heavy, KeySpec(pt.heavy, pt.heavy.schema()), &ec);
  if (stats != nullptr) {
    stats->mm_dim_x = xi.size();
    stats->mm_dim_y = yi.size();
    stats->mm_dim_z = zi.size();
  }
  // Product over heavy X x heavy Y x heavy Z.
  IndicatorProduct m(xi.size(), yi.size(), zi.size(), kernel, ec);
  for (size_t row = 0; row < m1.size(); ++row) {
    m.SetA(xi.FindValue(m1.Get(row, kX)), yi.FindValue(m1.Get(row, kY)));
  }
  for (size_t row = 0; row < m2.size(); ++row) {
    m.SetB(yi.FindValue(m2.Get(row, kY)), zi.FindValue(m2.Get(row, kZ)));
  }
  m.Multiply();
  for (size_t row = 0; row < t.size(); ++row) {
    const int x = xi.FindValue(t.Get(row, kX));
    const int z = zi.FindValue(t.Get(row, kZ));
    if (x >= 0 && z >= 0 && m.NonZero(x, z)) return true;
  }
  return false;
}

int64_t TriangleCountMm(const QueryInput& db, MmKernel kernel,
                        ExecContext* ctx) {
  FMMSW_CHECK(db.relations.size() == 3);
  ExecContext& ec = ExecContext::Resolve(ctx);
  const Relation& r = db.relations[0];
  const Relation& s = db.relations[1];
  const Relation& t = db.relations[2];
  // Index all X and Z values of T plus those in R/S (counts need exact
  // dimensions, not just the heavy part).
  Relation xs = Union(Project(r, VarSet{kX}, &ec), Project(t, VarSet{kX}, &ec),
                      &ec);
  Relation ys = Union(Project(r, VarSet{kY}, &ec), Project(s, VarSet{kY}, &ec),
                      &ec);
  Relation zs = Union(Project(s, VarSet{kZ}, &ec), Project(t, VarSet{kZ}, &ec),
                      &ec);
  const FlatInterner xi(xs, KeySpec(xs, xs.schema()), &ec);
  const FlatInterner yi(ys, KeySpec(ys, ys.schema()), &ec);
  const FlatInterner zi(zs, KeySpec(zs, zs.schema()), &ec);
  IndicatorProduct m(xi.size(), yi.size(), zi.size(), kernel, ec);
  for (size_t row = 0; row < r.size(); ++row) {
    m.SetA(xi.FindValue(r.Get(row, kX)), yi.FindValue(r.Get(row, kY)));
  }
  for (size_t row = 0; row < s.size(); ++row) {
    m.SetB(yi.FindValue(s.Get(row, kY)), zi.FindValue(s.Get(row, kZ)));
  }
  m.Multiply();
  int64_t count = 0;
  for (size_t row = 0; row < t.size(); ++row) {
    count +=
        m.Count(xi.FindValue(t.Get(row, kX)), zi.FindValue(t.Get(row, kZ)));
  }
  return count;
}

}  // namespace fmmsw
