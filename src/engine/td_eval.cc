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

bool ReduceEars(const Hypergraph& h, const QueryInput& db, Hypergraph* core,
                QueryInput* core_db, ExecContext* ctx) {
  ExecContext& ec = ExecContext::Resolve(ctx);
  for (const Relation& r : db.relations) {
    if (r.empty()) return false;
  }
  RelationList rels = db.relations;
  const std::vector<Hypergraph::Ear> ears = h.EarOrder();
  for (size_t i = 0; i < ears.size(); ++i) {
    const auto [e, w] = ears[i];
    ec.guard().Poll(FaultSite::kOps);
    if (w >= 0 && i + 2 == rels.size()) {
      // An acyclic query's last ear: one match answers the query.
      *core = Hypergraph();
      return !Join(rels[w], rels[e], {.limit = 1}, &ec).empty();
    }
    if (w >= 0) {  // else a non-empty component of its own
      rels.Set(w, Semijoin(rels[w], rels[e], &ec));
      if (rels[w].empty()) return false;
    }
    rels.Set(e, RelationPtr());
  }
  *core = h.Core();
  core_db->relations.clear();
  for (size_t e = 0; e < rels.size(); ++e) {
    if (rels.ptr(e)) core_db->relations.push_back(rels.ptr(e));
  }
  return true;
}

bool TdBoolean(const Hypergraph& h, const QueryInput& db,
               const TreeDecomposition& td, ExecContext* ctx) {
  ExecContext& ec = ExecContext::Resolve(ctx);
  FMMSW_CHECK(IsValidTd(h, td));
  Hypergraph bags(h.num_vars(), h.names());
  QueryInput bag_db;
  for (VarSet bag : td.bags) {
    ec.guard().Poll(FaultSite::kOps);  // bag materializations are the TD plan's morsels
    Relation r = MaterializeBag(h, db, bag, &ec);
    if (r.empty()) return false;
    AddBySchema(&bags, &bag_db.relations, bag,
                std::make_shared<const Relation>(std::move(r)), &ec);
  }
  Hypergraph core;
  QueryInput core_db;
  return ReduceEars(bags, bag_db, &core, &core_db, &ec);
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
