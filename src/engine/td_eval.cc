#include "engine/td_eval.h"

#include <memory>

#include "core/exec_context.h"
#include "engine/wcoj.h"
#include "relation/ops.h"
#include "util/check.h"
#include "width/subw.h"

namespace fmmsw {

namespace {

/// Materializes the bag relation: the WCOJ join over the projections onto
/// the bag of every relation intersecting it. Sound (a superset of the
/// projection of the full join onto the bag) and O(N^{rho*(bag)}).
Relation MaterializeBag(const Hypergraph& h, const QueryInput& db, VarSet bag,
                        ExecContext* ec) {
  Hypergraph sub = Hypergraph(h.num_vars(), h.names())
                       .Eliminate(VarSet::Full(h.num_vars()) - bag);
  QueryInput sub_db;
  for (size_t e = 0; e < h.edges().size(); ++e) {
    const VarSet overlap = h.edges()[e] & bag;
    if (overlap.empty()) continue;
    AddBySchema(&sub, &sub_db.relations, overlap,
                std::make_shared<const Relation>(
                    Project(db.relations[e], bag, ec)),
                ec);
  }
  return WcojJoin(sub, sub_db, bag, nullptr, ec);
}

}  // namespace

bool YannakakisBoolean(std::vector<Relation> bags,
                       const std::vector<std::pair<int, int>>& tree_edges,
                       ExecContext* ctx) {
  ExecContext& ec = ExecContext::Resolve(ctx);
  if (bags.empty()) return true;
  const int n = static_cast<int>(bags.size());
  std::vector<std::vector<int>> adj(n);
  for (auto [a, b] : tree_edges) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  // Bottom-up semijoin pass (iterative post-order from root 0).
  std::vector<int> order, stack = {0}, parent(n, -1);
  std::vector<bool> seen(n, false);
  seen[0] = true;
  while (!stack.empty()) {
    int cur = stack.back();
    stack.pop_back();
    order.push_back(cur);
    for (int nx : adj[cur]) {
      if (!seen[nx]) {
        seen[nx] = true;
        parent[nx] = cur;
        stack.push_back(nx);
      }
    }
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const int node = *it;
    if (parent[node] < 0) continue;
    bags[parent[node]] = Semijoin(bags[parent[node]], bags[node], &ec);
    if (bags[node].empty()) return false;
  }
  return !bags[0].empty();
}

bool TdBoolean(const Hypergraph& h, const QueryInput& db,
               const TreeDecomposition& td, ExecContext* ctx) {
  ExecContext& ec = ExecContext::Resolve(ctx);
  FMMSW_CHECK(IsValidTd(h, td));
  std::vector<Relation> bags;
  bags.reserve(td.bags.size());
  for (VarSet bag : td.bags) {
    ec.guard().Poll(FaultSite::kOps);  // bag materializations are the TD plan's morsels
    bags.push_back(MaterializeBag(h, db, bag, &ec));
    if (bags.back().empty()) return false;
  }
  return YannakakisBoolean(std::move(bags), TreeEdges(td), &ec);
}

bool TdBooleanBest(const Hypergraph& h, const QueryInput& db,
                   ExecContext* ctx) {
  auto tds = EnumerateTds(h);
  FMMSW_CHECK(!tds.empty());
  const TreeDecomposition* best = &tds[0];
  Rational best_w;
  bool first = true;
  for (const auto& td : tds) {
    Rational w(0);
    for (VarSet bag : td.bags) {
      w = Rational::Max(w, FractionalEdgeCover(h, bag));
    }
    if (first || w < best_w) {
      best_w = w;
      best = &td;
      first = false;
    }
  }
  return TdBoolean(h, db, *best, ctx);
}

}  // namespace fmmsw
