#ifndef FMMSW_TESTS_WCOJ_RULES_H_
#define FMMSW_TESTS_WCOJ_RULES_H_

// Test-side copies of the generic join's rules (engine/wcoj.cc) under a
// given variable order, plus the nested-loop oracle its answers are
// checked against. Tests compare the engine's ExecStats counters and its
// exact memory charges against the rules. Shared by exec_pipeline_test,
// recovery_test and wcoj_order_test.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "relation/relation.h"

namespace fmmsw {

/// Nested-loop oracle: every full assignment (indexed by variable) that
/// agrees with one row of each relation, in ascending order.
inline std::vector<std::vector<Value>> NestedLoopJoin(const Hypergraph& h,
                                                      const QueryInput& db) {
  std::set<std::vector<Value>> out;
  std::vector<Value> assign(h.num_vars(), 0);
  std::vector<int> binders(h.num_vars(), 0);  // relations binding each var
  std::function<void(size_t)> visit = [&](size_t e) {
    if (e == db.relations.size()) {
      out.insert(assign);
      return;
    }
    const Relation& r = db.relations[e];
    const std::vector<int>& vars = r.vars();
    for (size_t i = 0; i < r.size(); ++i) {
      const Value* row = r.Row(i);
      bool ok = true;
      for (size_t c = 0; c < vars.size() && ok; ++c) {
        ok = binders[vars[c]] == 0 || assign[vars[c]] == row[c];
      }
      if (!ok) continue;
      for (size_t c = 0; c < vars.size(); ++c) {
        assign[vars[c]] = row[c];
        ++binders[vars[c]];
      }
      visit(e + 1);
      for (int v : vars) --binders[v];
    }
  };
  visit(0);
  return {out.begin(), out.end()};
}

/// The candidate count of a variable no kept column covers.
inline constexpr int64_t kNoCount = INT64_MAX;

/// Each variable's candidate count (indexed by variable): the number of
/// values its kept columns share, a column being kept when its window
/// hi - lo + 1 is at most 4 per row (every column of an empty relation
/// is kept, with no value); kNoCount for a variable no kept column
/// covers.
inline std::vector<int64_t> CandidateCountsOracle(const Hypergraph& h,
                                                  const QueryInput& db) {
  std::vector<int64_t> count(kMaxVars, kNoCount);
  for (int v : h.vertices().Members()) {
    std::set<Value> common;
    bool constrained = false;
    for (const Relation& r : db.relations) {
      if (!r.schema().Contains(v)) continue;
      const int col = r.ColumnOf(v);
      std::set<Value> values;
      for (size_t i = 0; i < r.size(); ++i) values.insert(r.Row(i)[col]);
      if (!values.empty() &&
          int64_t{*values.rbegin()} - *values.begin() + 1 >
              4 * static_cast<int64_t>(r.size())) {
        continue;
      }
      if (!constrained) {
        common = values;
        constrained = true;
        continue;
      }
      std::set<Value> both;
      for (Value x : values) {
        if (common.count(x) != 0) both.insert(x);
      }
      common = both;
    }
    if (constrained) count[v] = static_cast<int64_t>(common.size());
  }
  return count;
}

/// True if some variable has no candidate: a run given no order then
/// ends before building any trie.
inline bool NoCandidate(const Hypergraph& h, const QueryInput& db) {
  const std::vector<int64_t> count = CandidateCountsOracle(h, db);
  return std::find(count.begin(), count.end(), 0) != count.end();
}

/// WcojOrder's rule over CandidateCountsOracle: fewest candidates first,
/// then the fewest among the unbound variables sharing a relation with a
/// bound one (among all unbound ones if none does), ties to the lower
/// index. Sets `*tied` if any step's fewest was shared.
inline std::vector<int> GreedyOrderOracle(const Hypergraph& h,
                                          const QueryInput& db, bool* tied) {
  const std::vector<int64_t> count = CandidateCountsOracle(h, db);
  std::vector<int> order;
  std::set<int> left, near;
  for (int v : h.vertices().Members()) left.insert(v);
  *tied = false;
  while (!left.empty()) {
    std::vector<int> pool;
    for (int v : left) {
      if (near.count(v) != 0) pool.push_back(v);
    }
    if (pool.empty()) pool.assign(left.begin(), left.end());
    int64_t fewest = kNoCount;
    for (int v : pool) fewest = std::min(fewest, count[v]);
    std::vector<int> best;
    for (int v : pool) {
      if (count[v] == fewest) best.push_back(v);
    }
    *tied |= best.size() > 1;
    order.push_back(best.front());
    left.erase(best.front());
    for (const Relation& r : db.relations) {
      if (!r.schema().Contains(best.front())) continue;
      for (int v : r.vars()) near.insert(v);
    }
  }
  return order;
}

struct WcojRules {
  /// Relations whose first variable is not the first of the order and
  /// whose first-column window is at most their row count, and the bytes
  /// of their offset arrays (window + 1 offsets of 4 bytes).
  int64_t top_index = 0;
  int64_t top_index_bytes = 0;
  /// Relations whose prefix runs times the words of their last
  /// variable's window is at most their row count, and the bytes of their
  /// run bitmaps plus, past a prefix, 4 bytes per row. The window spans
  /// the last-column values of every relation ending at that variable
  /// that passes the same test over its own values.
  int64_t bitmap_relations = 0;
  int64_t bitmap_bytes = 0;
  /// Bytes of one enumeration state's mask frames: per variable ending a
  /// relation with bitmaps, its words once for the base mask and once
  /// per distinct variable that completes such a relation's prefix.
  int64_t frame_bytes = 0;
};

/// The rules of a run given no explicit order, whose order `order` the
/// caller passes as WcojOrder(h, db): none at all when some variable has
/// no candidate (the run builds nothing), else each relation's first and
/// last variables, and its prefix, taken in `order`.
inline WcojRules ComputeWcojRules(const Hypergraph& h, const QueryInput& db,
                                  const std::vector<int>& order) {
  WcojRules out;
  if (NoCandidate(h, db)) return out;
  const int first = order.front();
  std::vector<int> pos(kMaxVars, -1);
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  const auto in_order = [&](std::vector<int> vars) {
    std::sort(vars.begin(), vars.end(),
              [&](int a, int b) { return pos[a] < pos[b]; });
    return vars;
  };
  // Per relation: its last variable, prefix runs and own last-column
  // window; a relation whose runs x own words exceed its rows drops out.
  struct Last {
    int u = -1;
    int64_t runs = 0, lo = INT64_MAX, hi = INT64_MIN;
  };
  std::vector<Last> last(db.relations.size());
  std::map<int, int64_t> lo, hi;  // per variable: its passing relations' span
  for (size_t e = 0; e < db.relations.size(); ++e) {
    const Relation& r = db.relations[e];
    const std::vector<int> vars = r.vars();
    if (vars.empty() || r.size() == 0) continue;
    Last& l = last[e];
    l.u = in_order(vars).back();
    const int col = r.ColumnOf(l.u);
    std::set<std::vector<Value>> prefixes;
    for (size_t i = 0; i < r.size(); ++i) {
      std::vector<Value> prefix;
      for (size_t c = 0; c < vars.size(); ++c) {
        if (vars[c] != l.u) prefix.push_back(r.Row(i)[c]);
      }
      prefixes.insert(prefix);
      l.lo = std::min<int64_t>(l.lo, r.Row(i)[col]);
      l.hi = std::max<int64_t>(l.hi, r.Row(i)[col]);
    }
    l.runs = static_cast<int64_t>(prefixes.size());
    if (l.runs * ((l.hi - l.lo) / 64 + 1) > static_cast<int64_t>(r.size())) {
      l.u = -1;
      continue;
    }
    lo.try_emplace(l.u, INT64_MAX);
    hi.try_emplace(l.u, INT64_MIN);
    lo[l.u] = std::min(lo[l.u], l.lo);
    hi[l.u] = std::max(hi[l.u], l.hi);
  }
  std::map<int, int64_t> mask_words;    // var -> words, if masked
  std::set<std::pair<int, int>> folds;  // (last var, prefix's last var)
  for (size_t e = 0; e < db.relations.size(); ++e) {
    const Relation& r = db.relations[e];
    const std::vector<int> vars = in_order(r.vars());
    if (vars.empty() || r.size() == 0) continue;
    const int64_t rows = static_cast<int64_t>(r.size());
    if (vars.front() != first) {
      const int col = r.ColumnOf(vars.front());
      int64_t top_lo = INT64_MAX, top_hi = INT64_MIN;
      for (size_t i = 0; i < r.size(); ++i) {
        top_lo = std::min<int64_t>(top_lo, r.Row(i)[col]);
        top_hi = std::max<int64_t>(top_hi, r.Row(i)[col]);
      }
      if (top_hi - top_lo + 1 <= rows) {
        ++out.top_index;
        out.top_index_bytes += (top_hi - top_lo + 2) * 4;
      }
    }
    const Last& l = last[e];
    if (l.u < 0) continue;
    const int64_t words = (hi[l.u] - lo[l.u]) / 64 + 1;
    if (l.runs * words > rows) continue;
    ++out.bitmap_relations;
    out.bitmap_bytes += l.runs * words * 8 + (vars.size() > 1 ? rows * 4 : 0);
    mask_words[l.u] = words;
    if (vars.size() > 1) folds.insert({l.u, vars[vars.size() - 2]});
  }
  for (const auto& [u, words] : mask_words) out.frame_bytes += words * 8;
  for (const auto& [u, prefix_end] : folds) {
    out.frame_bytes += mask_words[u] * 8;
  }
  return out;
}

}  // namespace fmmsw

#endif  // FMMSW_TESTS_WCOJ_RULES_H_
