#include "engine/triangle.h"

#include <cmath>

#include "core/exec_context.h"
#include "engine/wcoj.h"
#include "hypergraph/hypergraph.h"
#include "mm/matrix.h"
#include "relation/degree.h"
#include "relation/flat_index.h"
#include "relation/ops.h"
#include "util/check.h"

namespace fmmsw {

namespace {

constexpr int kX = 0, kY = 1, kZ = 2;

/// Dense index over the values appearing in a unary relation (flat
/// open-addressing interner; no per-node allocation). The bulk build is
/// context-aware: large inputs are interned via the sharded parallel path
/// with ids still in first-occurrence order.
class ValueIndex {
 public:
  ValueIndex(const Relation& unary, ExecContext* ctx)
      : map_(unary, KeySpec(unary, unary.schema()), ctx) {}
  int Find(Value v) const { return map_.FindValue(v); }
  int size() const { return map_.size(); }

 private:
  FlatInterner map_;
};

}  // namespace

bool TriangleCombinatorial(const QueryInput& db, ExecContext* ctx) {
  return WcojBoolean(Hypergraph::Triangle(), db, ctx);
}

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
  ValueIndex xi(pr.heavy, &ec);
  ValueIndex yi(ps.heavy, &ec);
  ValueIndex zi(pt.heavy, &ec);
  if (stats != nullptr) {
    stats->mm_dim_x = xi.size();
    stats->mm_dim_y = yi.size();
    stats->mm_dim_z = zi.size();
  }
  Bump(ec.stats().mm_products);
  // Boolean product over heavy X x heavy Y x heavy Z.
  if (kernel == MmKernel::kBoolean) {
    BitMatrix a(xi.size(), yi.size()), b(yi.size(), zi.size());
    for (size_t row = 0; row < m1.size(); ++row) {
      a.Set(xi.Find(m1.Get(row, kX)), yi.Find(m1.Get(row, kY)));
    }
    for (size_t row = 0; row < m2.size(); ++row) {
      b.Set(yi.Find(m2.Get(row, kY)), zi.Find(m2.Get(row, kZ)));
    }
    BitMatrix m = BitMatrix::Multiply(a, b, &ec);
    for (size_t row = 0; row < t.size(); ++row) {
      const int x = xi.Find(t.Get(row, kX));
      const int z = zi.Find(t.Get(row, kZ));
      if (x >= 0 && z >= 0 && m.Get(x, z)) return true;
    }
    return false;
  }
  Matrix a(xi.size(), yi.size()), b(yi.size(), zi.size());
  for (size_t row = 0; row < m1.size(); ++row) {
    a.At(xi.Find(m1.Get(row, kX)), yi.Find(m1.Get(row, kY))) = 1;
  }
  for (size_t row = 0; row < m2.size(); ++row) {
    b.At(yi.Find(m2.Get(row, kY)), zi.Find(m2.Get(row, kZ))) = 1;
  }
  Matrix m = CountingProduct(a, b, kernel, &ec);
  for (size_t row = 0; row < t.size(); ++row) {
    const int x = xi.Find(t.Get(row, kX));
    const int z = zi.Find(t.Get(row, kZ));
    if (x >= 0 && z >= 0 && m.At(x, z) != 0) return true;
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
  ValueIndex xi(xs, &ec), yi(ys, &ec), zi(zs, &ec);
  // The dense operands are |X|x|Y| and |Y|x|Z| int64 cells over the full
  // domains; charge them before allocating so an armed budget aborts
  // (retryably) instead of the process running out of memory.
  const int64_t cells = static_cast<int64_t>(yi.size()) *
                        (static_cast<int64_t>(xi.size()) + zi.size());
  MemCharge charge(ec, cells * static_cast<int64_t>(sizeof(int64_t)));
  Matrix a(xi.size(), yi.size()), b(yi.size(), zi.size());
  for (size_t row = 0; row < r.size(); ++row) {
    a.At(xi.Find(r.Get(row, kX)), yi.Find(r.Get(row, kY))) = 1;
  }
  for (size_t row = 0; row < s.size(); ++row) {
    b.At(yi.Find(s.Get(row, kY)), zi.Find(s.Get(row, kZ))) = 1;
  }
  Bump(ec.stats().mm_products);
  Matrix m = CountingProduct(a, b, kernel, &ec);
  int64_t count = 0;
  for (size_t row = 0; row < t.size(); ++row) {
    count += m.At(xi.Find(t.Get(row, kX)), zi.Find(t.Get(row, kZ)));
  }
  return count;
}

}  // namespace fmmsw
