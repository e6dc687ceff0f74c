#include "engine/elimination.h"

#include <map>
#include <memory>
#include <utility>

#include "core/exec_context.h"
#include "engine/wcoj.h"
#include "mm/kernel.h"
#include "util/check.h"

namespace fmmsw {

namespace {

/// Execution state: the current hypergraph plus one shared relation
/// version per edge.
struct State {
  Hypergraph hg;
  RelationList rels;  // aligned with hg.edges()
  bool definitely_empty = false;
};

/// An edgeless hypergraph over `h`'s variables with active set `vertices`.
Hypergraph EdgelessOn(const Hypergraph& h, VarSet vertices) {
  return Hypergraph(h.num_vars(), h.names())
      .Eliminate(VarSet::Full(h.num_vars()) - vertices);
}

/// Replaces the state by the hypergraph after eliminating `block`: the
/// non-incident edges keep their relations, and `produced` becomes the
/// relation of the new edge N(block). Edges are added in the order
/// Hypergraph::Eliminate uses.
void Advance(State* s, VarSet block, RelationPtr produced, ExecContext* ec) {
  State next;
  next.hg = EdgelessOn(s->hg, s->hg.vertices() - block);
  for (size_t e = 0; e < s->hg.edges().size(); ++e) {
    if (s->hg.edges()[e].Intersects(block)) continue;
    AddBySchema(&next.hg, &next.rels, s->hg.edges()[e], s->rels.ptr(e), ec);
  }
  next.definitely_empty = produced->empty();
  const VarSet n = s->hg.N(block);
  if (!n.empty()) {
    AddBySchema(&next.hg, &next.rels, n, std::move(produced), ec);
  }
  *s = std::move(next);
}

/// Joins the incident relations with WCOJ and projects the block away
/// (the "for-loops" elimination).
void EliminateForLoop(State* s, VarSet block, EliminationStats* stats,
                      ExecContext* ec) {
  const std::vector<int> incident = s->hg.IncidentEdges(block);
  FMMSW_CHECK(!incident.empty());
  Hypergraph sub = EdgelessOn(s->hg, s->hg.U(block));
  QueryInput sub_db;
  for (int e : incident) {
    AddBySchema(&sub, &sub_db.relations, s->hg.edges()[e], s->rels.ptr(e), ec);
  }
  auto result = std::make_shared<const Relation>(
      WcojJoin(sub, sub_db, s->hg.N(block), nullptr, ec));
  if (stats != nullptr) {
    ++stats->forloop_steps;
    stats->intermediate_tuples += static_cast<int64_t>(result->size());
  }
  Advance(s, block, std::move(result), ec);
}

/// Dense index assignment for composite keys.
class KeyIndex {
 public:
  int Intern(const std::vector<Value>& key) {
    auto [it, inserted] = map_.emplace(key, static_cast<int>(map_.size()));
    (void)inserted;
    return it->second;
  }
  int Find(const std::vector<Value>& key) const {
    auto it = map_.find(key);
    return it == map_.end() ? -1 : it->second;
  }
  int size() const { return static_cast<int>(map_.size()); }
  /// Keys in index order.
  std::vector<std::vector<Value>> Reverse() const {
    std::vector<std::vector<Value>> out(map_.size());
    for (const auto& [k, v] : map_) out[v] = k;
    return out;
  }

 private:
  // contracts: allow(no-node-map) reference MM-step evaluator; keys are
  // variable-length Value tuples with no packed-key form yet (ROADMAP).
  std::map<std::vector<Value>, int> map_;
};

std::vector<Value> ExtractKey(const Relation& r, size_t row,
                              const std::vector<int>& cols) {
  std::vector<Value> key(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) key[i] = r.Row(row)[cols[i]];
  return key;
}

std::vector<int> ColsFor(const Relation& r, VarSet vars) {
  std::vector<int> cols;
  for (int v : (vars & r.schema()).Members()) cols.push_back(r.ColumnOf(v));
  return cols;
}

/// Eliminates `block` via the MM option `mm` (Appendix E.6): the incident
/// relations are covered by an A side (schema inside x|g|z) and a B side
/// (schema inside y|g|z); M1 = join of the A side, M2 = join of the B side;
/// for every G-value, multiply the |x|-by-|z| and |z|-by-|y| Boolean
/// matrices and keep the non-zero output cells as the new relation over
/// x|y|g = N(block).
void EliminateMm(State* s, VarSet block, const MmExpr& mm,
                 EliminationStats* stats, ExecContext* ec) {
  FMMSW_CHECK(mm.z == block);
  const VarSet a_side = mm.x | mm.g | block;
  const VarSet b_side = mm.y | mm.g | block;
  const std::vector<int> incident = s->hg.IncidentEdges(block);
  FMMSW_CHECK(!incident.empty());
  QueryInput a_db, b_db;
  Hypergraph a_hg = EdgelessOn(s->hg, a_side);
  Hypergraph b_hg = EdgelessOn(s->hg, b_side);
  for (int e : incident) {
    const VarSet schema = s->hg.edges()[e];
    bool placed = false;
    if (a_side.ContainsAll(schema)) {
      AddBySchema(&a_hg, &a_db.relations, schema, s->rels.ptr(e), ec);
      placed = true;
    }
    if (b_side.ContainsAll(schema)) {
      AddBySchema(&b_hg, &b_db.relations, schema, s->rels.ptr(e), ec);
      placed = true;
    }
    FMMSW_CHECK(placed &&
                "MM option does not cover an incident relation; invalid "
                "MmExpr for this step");
  }
  // Definition 4.5 lets G hold a variable that only one side binds; it
  // indexes that side's matrix rows (A) or columns (B) instead of a group.
  const VarSet va = a_hg.U(block), vb = b_hg.U(block);
  const VarSet g = mm.g & va & vb;
  const VarSet x = mm.x | (mm.g - vb), y = mm.y | (mm.g - va);
  FMMSW_CHECK(va.ContainsAll(x | block) && vb.ContainsAll(y | block) &&
              "MM option names a variable its side's relations do not bind");
  // M1(x, z, g) and M2(y, z, g).
  Relation m1 = WcojJoin(a_hg.Eliminate(a_side - va), a_db, va, nullptr, ec);
  Relation m2 = WcojJoin(b_hg.Eliminate(b_side - vb), b_db, vb, nullptr, ec);

  // Group rows by G-key; within each group build matrices over x/z and z/y.
  const std::vector<int> m1_g = ColsFor(m1, g), m1_x = ColsFor(m1, x),
                         m1_z = ColsFor(m1, block);
  const std::vector<int> m2_g = ColsFor(m2, g), m2_y = ColsFor(m2, y),
                         m2_z = ColsFor(m2, block);
  // contracts: allow(no-node-map) reference MM-step evaluator; keys are
  // variable-length Value tuples with no packed-key form yet (ROADMAP).
  std::map<std::vector<Value>, std::pair<std::vector<size_t>,
                                         std::vector<size_t>>>
      groups;
  for (size_t r = 0; r < m1.size(); ++r) {
    groups[ExtractKey(m1, r, m1_g)].first.push_back(r);
  }
  for (size_t r = 0; r < m2.size(); ++r) {
    groups[ExtractKey(m2, r, m2_g)].second.push_back(r);
  }

  const VarSet out_schema = mm.x | mm.y | mm.g;
  Relation result(out_schema);
  const std::vector<int> out_vars = result.vars();
  for (const auto& [gkey, rows] : groups) {
    if (rows.first.empty() || rows.second.empty()) continue;
    KeyIndex xs, ys, zs;
    for (size_t r : rows.first) {
      xs.Intern(ExtractKey(m1, r, m1_x));
      zs.Intern(ExtractKey(m1, r, m1_z));
    }
    for (size_t r : rows.second) {
      ys.Intern(ExtractKey(m2, r, m2_y));
      zs.Intern(ExtractKey(m2, r, m2_z));
    }
    if (stats != nullptr) {
      stats->mm_cells += static_cast<int64_t>(xs.size()) * zs.size() +
                         static_cast<int64_t>(zs.size()) * ys.size();
    }
    auto emit = [&](int xi, int yi, const std::vector<std::vector<Value>>&
                                        xkeys,
                    const std::vector<std::vector<Value>>& ykeys) {
      std::vector<Value> tuple(out_vars.size());
      const std::vector<int> xv = x.Members(), yv = y.Members(),
                             gv = g.Members();
      for (size_t i = 0; i < out_vars.size(); ++i) {
        const int v = out_vars[i];
        for (size_t j = 0; j < xv.size(); ++j) {
          if (xv[j] == v) tuple[i] = xkeys[xi][j];
        }
        for (size_t j = 0; j < yv.size(); ++j) {
          if (yv[j] == v) tuple[i] = ykeys[yi][j];
        }
        for (size_t j = 0; j < gv.size(); ++j) {
          if (gv[j] == v) tuple[i] = gkey[j];
        }
      }
      result.Add(tuple);
    };
    const auto xkeys = xs.Reverse(), ykeys = ys.Reverse();
    IndicatorProduct mc(xs.size(), zs.size(), ys.size(),
                        ExecContext::Resolve(ec));
    for (size_t r : rows.first) {
      mc.SetA(xs.Find(ExtractKey(m1, r, m1_x)),
              zs.Find(ExtractKey(m1, r, m1_z)));
    }
    for (size_t r : rows.second) {
      mc.SetB(zs.Find(ExtractKey(m2, r, m2_z)),
              ys.Find(ExtractKey(m2, r, m2_y)));
    }
    mc.Multiply();
    for (int i = 0; i < xs.size(); ++i) {
      for (int j = 0; j < ys.size(); ++j) {
        if (mc.NonZero(i, j)) emit(i, j, xkeys, ykeys);
      }
    }
  }
  result.SortAndDedupe(ec);
  if (stats != nullptr) {
    ++stats->mm_steps;
    stats->intermediate_tuples += static_cast<int64_t>(result.size());
  }
  Advance(s, block, std::make_shared<const Relation>(std::move(result)), ec);
}

}  // namespace

EliminationPlan ForLoopPlan(const Hypergraph& h,
                            const std::vector<int>* order) {
  EliminationPlan plan;
  std::vector<int> ord = order ? *order : h.vertices().Members();
  for (int v : ord) {
    PlanStep step;
    step.block = VarSet::Singleton(v);
    plan.steps.push_back(step);
  }
  return plan;
}

bool ExecutePlan(const Hypergraph& h, const QueryInput& db,
                 const EliminationPlan& plan,
                 const EliminationOptions& /*opts*/, EliminationStats* stats,
                 ExecContext* ctx) {
  ExecContext& ec = ExecContext::Resolve(ctx);
  FMMSW_CHECK(db.relations.size() == h.edges().size());
  State s{h, db.relations};
  VarSet eliminated;
  for (const PlanStep& step : plan.steps) {
    ec.guard().Poll(FaultSite::kOps);  // elimination steps are the plan's morsels
    FMMSW_CHECK(s.hg.vertices().ContainsAll(step.block));
    if (s.definitely_empty) return false;
    for (const Relation& r : s.rels) {
      if (r.empty()) return false;
    }
    if (step.method == StepMethod::kMm) {
      EliminateMm(&s, step.block, step.mm, stats, &ec);
    } else {
      EliminateForLoop(&s, step.block, stats, &ec);
    }
    eliminated = eliminated | step.block;
  }
  FMMSW_CHECK(eliminated == h.vertices() && "plan must eliminate all vars");
  if (s.definitely_empty) return false;
  for (const Relation& r : s.rels) {
    if (r.empty()) return false;
  }
  return true;
}

}  // namespace fmmsw
