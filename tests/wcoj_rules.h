#ifndef FMMSW_TESTS_WCOJ_RULES_H_
#define FMMSW_TESTS_WCOJ_RULES_H_

// Test-side copies of the generic join's density rules (engine/wcoj.cc)
// under the default order, ascending variable ids. Tests compare the
// engine's ExecStats counters and its exact memory charges against them.
// Shared by exec_pipeline_test and recovery_test.

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "relation/relation.h"

namespace fmmsw {

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

inline WcojRules ComputeWcojRules(const Hypergraph& h, const QueryInput& db) {
  WcojRules out;
  const int first = h.vertices().Members().front();
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
    l.u = *std::max_element(vars.begin(), vars.end());
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
    const std::vector<int> vars = r.vars();
    if (vars.empty() || r.size() == 0) continue;
    const int64_t rows = static_cast<int64_t>(r.size());
    const int v0 = *std::min_element(vars.begin(), vars.end());
    if (v0 != first) {
      const int col = r.ColumnOf(v0);
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
    if (vars.size() > 1) {
      std::vector<int> sorted = vars;
      std::sort(sorted.begin(), sorted.end());
      folds.insert({l.u, sorted[sorted.size() - 2]});
    }
  }
  for (const auto& [u, words] : mask_words) out.frame_bytes += words * 8;
  for (const auto& [u, prefix_end] : folds) {
    out.frame_bytes += mask_words[u] * 8;
  }
  return out;
}

}  // namespace fmmsw

#endif  // FMMSW_TESTS_WCOJ_RULES_H_
