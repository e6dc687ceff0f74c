#include "width/emm.h"

#include <algorithm>
#include <set>

#include "util/check.h"

namespace fmmsw {

std::vector<MmExpr> EnumerateMmOptions(const Hypergraph& h, VarSet x) {
  std::vector<VarSet> incident;
  for (int idx : h.IncidentEdges(x)) incident.push_back(h.edges()[idx]);
  if (static_cast<int>(incident.size()) > kMaxIncidentEdges) {
    // Fall back to the subsumption-reduced edge list. Every cover of the
    // reduced list is a valid cover of the full list (assign each subsumed
    // edge wherever a subsumer went), so the options remain sound; a few
    // exotic options that place a subsumed edge on the opposite side of its
    // subsumer may be skipped.
    const Hypergraph slim = h.WithoutSubsumedEdges();
    incident.clear();
    for (int idx : slim.IncidentEdges(x)) {
      incident.push_back(slim.edges()[idx]);
    }
  }
  const int m = static_cast<int>(incident.size());
  if (m == 0) return {};
  FMMSW_CHECK(m <= kMaxIncidentEdges &&
              "EMM enumeration too large; raise kMaxIncidentEdges");

  std::set<std::pair<uint32_t, uint32_t>> seen_ab;
  std::set<MmExpr> out;
  // Each incident edge goes to A only (0), B only (1), or both (2).
  std::vector<int> assign(m, 0);
  int64_t total = 1;
  for (int i = 0; i < m; ++i) total *= 3;
  for (int64_t code = 0; code < total; ++code) {
    int64_t c = code;
    VarSet va, vb;
    for (int i = 0; i < m; ++i) {
      const int a = static_cast<int>(c % 3);
      c /= 3;
      if (a == 0 || a == 2) va = va | incident[i];
      if (a == 1 || a == 2) vb = vb | incident[i];
    }
    // X must be a shared dimension of the two matrices.
    if (!va.ContainsAll(x) || !vb.ContainsAll(x)) continue;
    // Distinct covers can induce the same vertex pair; dedupe (unordered).
    uint32_t lo = std::min(va.mask(), vb.mask());
    uint32_t hi = std::max(va.mask(), vb.mask());
    if (!seen_ab.insert({lo, hi}).second) continue;

    const VarSet g_base = va.Intersect(vb) - x;
    const VarSet g_room = (va | vb) - x - g_base;
    for (VarSet extra : Subsets(g_room)) {
      const VarSet g = g_base | extra;
      MmExpr e;
      e.x = (va - vb) - g;
      e.y = (vb - va) - g;
      e.z = x;
      e.g = g;
      if (e.x.empty() || e.y.empty()) continue;  // trivial combination
      out.insert(e.Canonical());
    }
  }
  return std::vector<MmExpr>(out.begin(), out.end());
}

Rational EvaluateEmm(const Hypergraph& h, VarSet x, const SetFn<Rational>& hfn,
                     const Rational& gamma, bool* defined) {
  auto options = EnumerateMmOptions(h, x);
  if (options.empty()) {
    *defined = false;
    return Rational(0);
  }
  *defined = true;
  Rational best;
  bool first = true;
  for (const MmExpr& e : options) {
    Rational v = e.Evaluate(hfn, gamma);
    if (first || v < best) {
      best = v;
      first = false;
    }
  }
  return best;
}

}  // namespace fmmsw
