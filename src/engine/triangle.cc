#include "engine/triangle.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <utility>
#include <vector>

#include "core/exec_context.h"
#include "mm/cost_model.h"
#include "relation/degree.h"
#include "relation/flat_index.h"
#include "relation/ops.h"
#include "util/check.h"
#include "util/radix.h"

namespace fmmsw {

namespace {

constexpr int kX = 0, kY = 1, kZ = 2;

/// One light corner's degree profile: the partition side's degrees in
/// ascending order, and prefix sums of deg_part(v) * deg_probe(v) — the
/// candidate pairs the corner's fused join probes for the values that are
/// light at a threshold.
struct CornerProfile {
  std::vector<int64_t> degrees;
  std::vector<int64_t> pairs;  ///< pairs[i]: sum over degrees[0, i)

  /// `part` and `probe` are DegreeProfiles on the same key (ascending
  /// values).
  CornerProfile(const std::vector<ValueDegree>& part,
                const std::vector<ValueDegree>& probe) {
    std::vector<int64_t> value_pairs(part.size(), 0);
    std::vector<std::pair<uint64_t, uint32_t>> by_degree;
    by_degree.reserve(part.size());
    size_t j = 0;
    for (size_t i = 0; i < part.size(); ++i) {
      while (j < probe.size() && probe[j].value < part[i].value) ++j;
      if (j < probe.size() && probe[j].value == part[i].value) {
        value_pairs[i] = part[i].degree * probe[j].degree;
      }
      by_degree.emplace_back(static_cast<uint64_t>(part[i].degree),
                             static_cast<uint32_t>(i));
    }
    RadixSortKeyed(by_degree);
    degrees.reserve(part.size());
    pairs.assign(1, 0);
    for (const auto& [deg, i] : by_degree) {
      degrees.push_back(static_cast<int64_t>(deg));
      pairs.push_back(pairs.back() + value_pairs[i]);
    }
  }

  size_t LightCount(int64_t delta) const {
    return static_cast<size_t>(
        std::upper_bound(degrees.begin(), degrees.end(), delta) -
        degrees.begin());
  }
};

/// The predicted cost of the split at one threshold, in fused-probe units.
struct SplitCost {
  int64_t light_pairs = 0;
  double mm_ops = 0;
  int64_t heavy[3] = {0, 0, 0};  ///< |X_h|, |Y_h|, |Z_h|
  /// The corner that answers alone when its side has no heavy value, or
  /// -1 for the full split.
  int solo = -1;

  double Total() const { return static_cast<double>(light_pairs) + mm_ops; }
  /// The core's operand cells; a split with an empty heavy side builds no
  /// core.
  double CoreCells() const {
    if (solo >= 0) return 0;
    return static_cast<double>(heavy[0]) * static_cast<double>(heavy[1]) +
           static_cast<double>(heavy[1]) * static_cast<double>(heavy[2]);
  }
};

/// When every side keeps a heavy value: the light term is the three
/// corners' probed pairs, and the MM term the core's fill (one pass over
/// R, S and T) plus its Boolean product, converted to probes by
/// kBooleanMmOpsPerProbe. When side i has no heavy value, corner i holds
/// every triangle (it is light on all of them), so the split is priced as
/// the cheapest such corner's candidate pairs alone, with no core.
SplitCost PredictSplit(const CornerProfile (&corners)[3], int64_t delta,
                       double core_rows, double omega) {
  SplitCost c;
  for (int i = 0; i < 3; ++i) {
    const size_t light = corners[i].LightCount(delta);
    c.light_pairs += corners[i].pairs[light];
    c.heavy[i] = static_cast<int64_t>(corners[i].degrees.size() - light);
    if (c.heavy[i] == 0 && (c.solo < 0 || corners[i].pairs.back() <
                                               corners[c.solo].pairs.back())) {
      c.solo = i;
    }
  }
  if (c.solo >= 0) {
    c.light_pairs = corners[c.solo].pairs.back();
    return c;
  }
  c.mm_ops = core_rows +
             PredictedMmOps(c.heavy[0], c.heavy[1], c.heavy[2], omega) /
                 kBooleanMmOpsPerProbe;
  return c;
}

}  // namespace

bool TriangleMm(const QueryInput& db, double omega, MmKernel kernel,
                TriangleStats* stats, ExecContext* ctx) {
  FMMSW_CHECK(db.relations.size() == 3);
  FMMSW_CHECK(kernel == MmKernel::kBoolean &&
              "TriangleMm decides with the Boolean product");
  ExecContext& ec = ExecContext::Resolve(ctx);
  const Relation& r = db.relations[0];  // R(X,Y)
  const Relation& s = db.relations[1];  // S(Y,Z)
  const Relation& t = db.relations[2];  // T(X,Z)
  const double n = static_cast<double>(db.TotalSize());
  if (n == 0) return false;
  // The worst-case threshold: it minimizes 3 N Delta + (N / Delta)^omega.
  const int64_t delta0 = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(
             std::pow(n, (omega - 1.0) / (omega + 1.0)))));

  // The split is correct at any Delta (Theorem E.10); pick the one whose
  // predicted cost on these degree profiles is least. Corner i partitions
  // its side on the key its probe partner joins on: R on deg(Y|X) probed
  // by T on X, S on deg(Z|Y) by R on Y, T on deg(X|Z) by S on Z.
  const CornerProfile corners[3] = {
      {DegreeProfile(r, VarSet{kY}, kX, &ec),
       DegreeProfile(t, VarSet{kZ}, kX, &ec)},
      {DegreeProfile(s, VarSet{kZ}, kY, &ec),
       DegreeProfile(r, VarSet{kX}, kY, &ec)},
      {DegreeProfile(t, VarSet{kX}, kZ, &ec),
       DegreeProfile(s, VarSet{kY}, kZ, &ec)}};
  // Candidates: Delta0, 0 (all heavy) and every partition-side degree,
  // except those whose core operands outgrow Figure 1's worst case. Delta0
  // always fits (under it each side has fewer than N / Delta0 heavy
  // values), so the choice never predicts more than the worst-case plan.
  // Each side's largest degree is a candidate, so every solo corner is
  // priced.
  const double core_rows = static_cast<double>(r.size() + s.size() + t.size());
  const double max_cells = 2.0 * (n / delta0) * (n / delta0);
  std::vector<int64_t> candidates = {delta0, 0};
  for (const CornerProfile& c : corners) {
    // Ascending, so each distinct degree is priced once.
    std::unique_copy(c.degrees.begin(), c.degrees.end(),
                     std::back_inserter(candidates));
  }
  int64_t delta = -1;
  SplitCost best;
  for (int64_t d : candidates) {
    const SplitCost c = PredictSplit(corners, d, core_rows, omega);
    if (c.CoreCells() > max_cells) continue;
    if (delta < 0 || c.Total() < best.Total() ||
        (c.Total() == best.Total() && d > delta)) {
      best = c;
      delta = d;
    }
  }
  FMMSW_DCHECK(delta >= 0);
  if (stats != nullptr) {
    stats->delta = delta;
    stats->delta_worst_case = delta0;
    stats->predicted_light_pairs = best.light_pairs;
    stats->predicted_mm_ops = best.mm_ops;
    stats->predicted_ops_worst_case =
        PredictSplit(corners, delta0, core_rows, omega).Total();
    stats->solo_corner = best.solo;
    stats->heavy_x = best.heavy[kX];
    stats->heavy_y = best.heavy[kY];
    stats->heavy_z = best.heavy[kZ];
  }

  // Light corners: Q_l1 = T join R_l (check S), Q_l2 = R join S_l (check
  // T), Q_l3 = S join T_l (check R). The checking semijoin is fused into
  // the join as an existence-only probe, so the N * Delta intermediate is
  // never materialized — with limit 1 the first surviving triangle stops
  // the enumeration. `part` is the side the corner partitions.
  const struct {
    const Relation* a;
    const Relation* part;
    const Relation* check;
  } corner_joins[3] = {{&t, &r, &s}, {&r, &s, &t}, {&s, &t, &r}};
  auto found_in = [&](const Relation& a, const Relation& b,
                      const Relation& check) {
    Relation witness = Join(a, b, {.exist_filter = &check, .limit = 1}, &ec);
    if (stats != nullptr) {
      stats->light_join_tuples += static_cast<int64_t>(witness.size());
      stats->answer_from_light |= !witness.empty();
    }
    return !witness.empty();
  };
  if (best.solo >= 0) {
    // Side `solo` has no heavy value: its corner, on the unpartitioned
    // relations, is the whole query.
    const auto& q = corner_joins[best.solo];
    return found_in(*q.a, *q.part, *q.check);
  }

  // Figure 1: three decomposition steps.
  auto pr = PartitionByDegree(r, VarSet{kY}, VarSet{kX}, delta, &ec);
  auto ps = PartitionByDegree(s, VarSet{kZ}, VarSet{kY}, delta, &ec);
  auto pt = PartitionByDegree(t, VarSet{kX}, VarSet{kZ}, delta, &ec);
  FMMSW_DCHECK(static_cast<int64_t>(pr.heavy.size()) == best.heavy[0] &&
               static_cast<int64_t>(ps.heavy.size()) == best.heavy[1] &&
               static_cast<int64_t>(pt.heavy.size()) == best.heavy[2]);
  const Relation* light[3] = {&pr.light, &ps.light, &pt.light};
  for (int i = 0; i < 3; ++i) {
    const auto& q = corner_joins[i];
    if (found_in(*q.a, *light[i], *q.check)) return true;
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
  IndicatorProduct m(xi.size(), yi.size(), zi.size(), ec);
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
  FMMSW_CHECK(kernel == MmKernel::kBitSliced &&
              "TriangleCountMm counts with the bit-sliced kernel");
  ExecContext& ec = ExecContext::Resolve(ctx);
  const Relation& r = db.relations[0];  // R(X,Y)
  const Relation& s = db.relations[1];  // S(Y,Z)
  const Relation& t = db.relations[2];  // T(X,Z)
  // A triangle's x and y come from R and its z from S: a T row with x
  // outside R or z outside S, and an S row with y outside R, adds 0.
  // Interned one value at a time, so each table is sized by the distinct
  // values, not by the rows.
  FlatInterner xi, yi, zi;
  for (size_t row = 0; row < r.size(); ++row) {
    xi.InternValue(r.Get(row, kX));
    yi.InternValue(r.Get(row, kY));
  }
  for (size_t row = 0; row < s.size(); ++row) zi.InternValue(s.Get(row, kZ));
  IndicatorCounts m(xi.size(), yi.size(), zi.size(), ec);
  for (size_t row = 0; row < r.size(); ++row) {
    m.SetA(xi.FindValue(r.Get(row, kX)), yi.FindValue(r.Get(row, kY)));
  }
  for (size_t row = 0; row < s.size(); ++row) {
    const int y = yi.FindValue(s.Get(row, kY));
    if (y >= 0) m.SetB(y, zi.FindValue(s.Get(row, kZ)));
  }
  // count = sum over T(x, z) of |{y : R(x, y), S(y, z)}|; integer partial
  // sums, so the total is the same at every thread count.
  std::atomic<int64_t> count{0};
  ParallelFor(
      ec, FaultSite::kMm, static_cast<int64_t>(t.size()),
      [&](int64_t begin, int64_t end) {
        int64_t part = 0;
        for (int64_t row = begin; row < end; ++row) {
          const int x = xi.FindValue(t.Get(row, kX));
          const int z = zi.FindValue(t.Get(row, kZ));
          if (x >= 0 && z >= 0) part += m.Count(x, z);
        }
        count += part;
      },
      /*grain=*/64);
  return count.load();
}

}  // namespace fmmsw
