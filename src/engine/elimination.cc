#include "engine/elimination.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "core/exec_context.h"
#include "engine/wcoj.h"
#include "mm/cost_model.h"
#include "relation/ops.h"
#include "util/check.h"

namespace fmmsw {

namespace {

/// Execution state: the current hypergraph plus one relation per edge.
struct State {
  Hypergraph hg;
  std::vector<Relation> rels;  // aligned with hg.edges()
  bool definitely_empty = false;
};

/// Joins the incident relations with WCOJ and projects the block away
/// (the "for-loops" elimination).
void EliminateForLoop(State* s, VarSet block, EliminationStats* stats,
                      ExecContext* ec) {
  const std::vector<int> incident = s->hg.IncidentEdges(block);
  FMMSW_CHECK(!incident.empty());
  Hypergraph sub(s->hg.num_vars(), s->hg.names());
  sub = sub.Eliminate(VarSet::Full(s->hg.num_vars()) - s->hg.U(block));
  QueryInput sub_db;
  // contracts: allow(no-node-map) schema-keyed merge pool, O(#edges)
  // entries per elimination step.
  std::map<VarSet, Relation> merged;
  for (int e : incident) {
    auto it = merged.find(s->hg.edges()[e]);
    if (it == merged.end()) {
      merged.emplace(s->hg.edges()[e], s->rels[e]);
    } else {
      it->second = Intersect(it->second, s->rels[e], ec);
    }
  }
  for (auto& [schema, rel] : merged) {
    sub.AddEdge(schema);
    sub_db.relations.push_back(std::move(rel));
  }
  Relation result = WcojJoin(sub, sub_db, s->hg.N(block), nullptr, ec);
  if (stats != nullptr) {
    ++stats->forloop_steps;
    stats->intermediate_tuples += static_cast<int64_t>(result.size());
  }
  // Rebuild the state: next.hg's edges are the old non-incident edges
  // (deduped) plus N(block); relations are matched to edges by schema.
  State next;
  next.hg = s->hg.Eliminate(block);
  // contracts: allow(no-node-map) schema-keyed relation pool, O(#edges)
  // entries per elimination step.
  std::map<VarSet, Relation> pool;
  for (size_t e = 0; e < s->hg.edges().size(); ++e) {
    if (std::find(incident.begin(), incident.end(), static_cast<int>(e)) !=
        incident.end()) {
      continue;
    }
    auto it = pool.find(s->hg.edges()[e]);
    if (it == pool.end()) {
      pool.emplace(s->hg.edges()[e], s->rels[e]);
    } else {
      it->second = Intersect(it->second, s->rels[e], ec);
    }
  }
  const VarSet n = s->hg.N(block);
  if (!n.empty()) {
    auto it = pool.find(n);
    if (it == pool.end()) {
      pool.emplace(n, result);
    } else {
      it->second = Intersect(it->second, result, ec);
    }
  } else if (result.empty()) {
    next.definitely_empty = true;
  }
  next.rels.clear();
  for (const VarSet& e : next.hg.edges()) {
    auto it = pool.find(e);
    FMMSW_CHECK(it != pool.end());
    next.rels.push_back(it->second);
  }
  if (result.empty()) next.definitely_empty = true;
  *s = std::move(next);
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
/// for every G-value, multiply the |x|-by-|z| and |z|-by-|y| Boolean (or
/// counting) matrices and keep the non-zero output cells as the new
/// relation over x|y|g = N(block).
void EliminateMm(State* s, VarSet block, const MmExpr& mm,
                 const EliminationOptions& opts, EliminationStats* stats,
                 ExecContext* ec) {
  FMMSW_CHECK(mm.z == block);
  const VarSet a_side = mm.x | mm.g | block;
  const VarSet b_side = mm.y | mm.g | block;
  const std::vector<int> incident = s->hg.IncidentEdges(block);
  FMMSW_CHECK(!incident.empty());
  QueryInput a_db, b_db;
  Hypergraph a_hg(s->hg.num_vars(), s->hg.names());
  a_hg = a_hg.Eliminate(VarSet::Full(s->hg.num_vars()) - a_side);
  Hypergraph b_hg(s->hg.num_vars(), s->hg.names());
  b_hg = b_hg.Eliminate(VarSet::Full(s->hg.num_vars()) - b_side);
  for (int e : incident) {
    const VarSet schema = s->hg.edges()[e];
    bool placed = false;
    if (a_side.ContainsAll(schema)) {
      if (std::find(a_hg.edges().begin(), a_hg.edges().end(), schema) ==
          a_hg.edges().end()) {
        a_hg.AddEdge(schema);
        a_db.relations.push_back(s->rels[e]);
      } else {
        for (size_t i = 0; i < a_hg.edges().size(); ++i) {
          if (a_hg.edges()[i] == schema) {
            a_db.relations.Set(i, Intersect(a_db.relations[i], s->rels[e], ec));
          }
        }
      }
      placed = true;
    }
    if (b_side.ContainsAll(schema)) {
      if (std::find(b_hg.edges().begin(), b_hg.edges().end(), schema) ==
          b_hg.edges().end()) {
        b_hg.AddEdge(schema);
        b_db.relations.push_back(s->rels[e]);
      } else {
        for (size_t i = 0; i < b_hg.edges().size(); ++i) {
          if (b_hg.edges()[i] == schema) {
            b_db.relations.Set(i, Intersect(b_db.relations[i], s->rels[e], ec));
          }
        }
      }
      placed = true;
    }
    FMMSW_CHECK(placed &&
                "MM option does not cover an incident relation; invalid "
                "MmExpr for this step");
  }
  // M1(x, z, g) and M2(y, z, g).
  Relation m1 = WcojJoin(a_hg, a_db, a_side, nullptr, ec);
  Relation m2 = WcojJoin(b_hg, b_db, b_side, nullptr, ec);

  // Group rows by G-key; within each group build matrices over x/z and z/y.
  const std::vector<int> m1_g = ColsFor(m1, mm.g), m1_x = ColsFor(m1, mm.x),
                         m1_z = ColsFor(m1, block);
  const std::vector<int> m2_g = ColsFor(m2, mm.g), m2_y = ColsFor(m2, mm.y),
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
      const std::vector<int> xv = mm.x.Members(), yv = mm.y.Members(),
                             gv = mm.g.Members();
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
    IndicatorProduct mc(xs.size(), zs.size(), ys.size(), opts.kernel,
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

  // Rebuild state exactly as the for-loop path does.
  State next;
  next.hg = s->hg.Eliminate(block);
  // contracts: allow(no-node-map) schema-keyed relation pool, O(#edges)
  // entries per elimination step.
  std::map<VarSet, Relation> pool;
  for (size_t e = 0; e < s->hg.edges().size(); ++e) {
    if (s->hg.edges()[e].Intersects(block)) continue;
    auto it = pool.find(s->hg.edges()[e]);
    if (it == pool.end()) {
      pool.emplace(s->hg.edges()[e], s->rels[e]);
    } else {
      it->second = Intersect(it->second, s->rels[e], ec);
    }
  }
  const VarSet n = s->hg.N(block);
  if (!n.empty()) {
    auto it = pool.find(n);
    if (it == pool.end()) {
      pool.emplace(n, result);
    } else {
      it->second = Intersect(it->second, result, ec);
    }
  }
  next.rels.clear();
  for (const VarSet& e : next.hg.edges()) {
    auto it = pool.find(e);
    FMMSW_CHECK(it != pool.end());
    next.rels.push_back(it->second);
  }
  if (result.empty()) next.definitely_empty = true;
  *s = std::move(next);
}

/// kAuto: crude operation-count comparison between the for-loop join and
/// the best MM option, using distinct-value counts as dimensions.
StepMethod ChooseMethod(const State& s, VarSet block, const MmExpr& mm,
                        const EliminationOptions& opts) {
  if (mm.x.empty() || mm.y.empty()) return StepMethod::kForLoop;
  int64_t total = 0;
  for (int e : s.hg.IncidentEdges(block)) {
    total += static_cast<int64_t>(s.rels[e].size());
  }
  // For-loop cost ~ product of two largest incident sizes (pessimistic),
  // MM cost ~ square-blocked product of the distinct-count dimensions.
  double forloop = static_cast<double>(total) * total;
  double dim = std::max<double>(1.0, std::sqrt(static_cast<double>(total)));
  double mm_cost = PredictedMmOps(static_cast<int64_t>(dim),
                                  static_cast<int64_t>(dim),
                                  static_cast<int64_t>(dim), opts.omega);
  return mm_cost < forloop ? StepMethod::kMm : StepMethod::kForLoop;
}

}  // namespace

EliminationPlan ForLoopPlan(const Hypergraph& h,
                            const std::vector<int>* order) {
  EliminationPlan plan;
  std::vector<int> ord = order ? *order : h.vertices().Members();
  for (int v : ord) {
    PlanStep step;
    step.block = VarSet::Singleton(v);
    step.method = StepMethod::kForLoop;
    plan.steps.push_back(step);
  }
  return plan;
}

bool ExecutePlan(const Hypergraph& h, const QueryInput& db,
                 const EliminationPlan& plan, const EliminationOptions& opts,
                 EliminationStats* stats, ExecContext* ctx) {
  ExecContext& ec = ExecContext::Resolve(ctx);
  FMMSW_CHECK(db.relations.size() == h.edges().size());
  State s;
  s.hg = h;
  s.rels = db.relations.Materialize();
  VarSet eliminated;
  for (const PlanStep& step : plan.steps) {
    ec.guard().Poll(FaultSite::kOps);  // elimination steps are the plan's morsels
    FMMSW_CHECK(s.hg.vertices().ContainsAll(step.block));
    if (s.definitely_empty) return false;
    for (const Relation& r : s.rels) {
      if (r.empty()) return false;
    }
    StepMethod method = step.method;
    if (method == StepMethod::kAuto) {
      method = ChooseMethod(s, step.block, step.mm, opts);
    }
    if (method == StepMethod::kMm) {
      EliminateMm(&s, step.block, step.mm, opts, stats, &ec);
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
