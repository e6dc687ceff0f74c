#include "relation/degree.h"

#include <algorithm>

#include "core/exec_context.h"
#include "relation/ops.h"
#include "relation/row_sort.h"
#include "util/check.h"

namespace fmmsw {

namespace {

/// True if `r` is binary with strictly ascending rows: the stored form
/// SortAndDedupe leaves, which every catalog version is in. One linear
/// pass.
bool IsStoredBinary(const Relation& r) {
  if (r.arity() != 2) return false;
  for (size_t i = 1; i < r.size(); ++i) {
    const Value* a = r.Row(i - 1);
    const Value* b = r.Row(i);
    if (a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1])) return false;
  }
  return true;
}

/// Row indices of `r` sorted by the X-key columns, then the Y columns —
/// one sort after which X-groups are contiguous runs and distinct Y values
/// within a group are adjacent. Replaces the per-group std::map/std::set
/// bookkeeping of the naive implementation. Every arity routes through
/// the wide-key layer (relation/row_sort.h): the (X, Y) columns pack into
/// 1..8 order-preserving uint64 words with the row index as a payload
/// word, sorted by stable LSD radix on the context's pool and arena —
/// no comparator fallback for 3+ grouping columns.
struct GroupedOrder {
  std::vector<int> xcols, ycols;
  std::vector<uint32_t> order;

  GroupedOrder(const Relation& r, VarSet y, VarSet x,
               ExecContext* ctx = nullptr) {
    for (int v : (x & r.schema()).Members()) xcols.push_back(r.ColumnOf(v));
    for (int v : ((y - x) & r.schema()).Members()) {
      ycols.push_back(r.ColumnOf(v));
    }
    std::vector<int> cols = xcols;
    cols.insert(cols.end(), ycols.begin(), ycols.end());
    SortedRowOrder(r, cols, ExecContext::Resolve(ctx), &order);
  }

  bool SameX(const Relation& r, uint32_t a, uint32_t b) const {
    const Value* ra = r.Row(a);
    const Value* rb = r.Row(b);
    for (int c : xcols) {
      if (ra[c] != rb[c]) return false;
    }
    return true;
  }

  bool SameY(const Relation& r, uint32_t a, uint32_t b) const {
    const Value* ra = r.Row(a);
    const Value* rb = r.Row(b);
    for (int c : ycols) {
      if (ra[c] != rb[c]) return false;
    }
    return true;
  }

  /// Calls fn(begin, end, distinct_y) for every X-group [begin, end) of
  /// the sorted order.
  template <typename Fn>
  void ForEachGroup(const Relation& r, const Fn& fn) const {
    size_t begin = 0;
    while (begin < order.size()) {
      size_t end = begin + 1;
      int64_t distinct = 1;
      while (end < order.size() && SameX(r, order[begin], order[end])) {
        if (!SameY(r, order[end - 1], order[end])) ++distinct;
        ++end;
      }
      fn(begin, end, distinct);
      begin = end;
    }
  }
};

/// DegreeProfile of a stored binary relation keyed on its first column:
/// the rows are sorted and distinct, so each value's degree is its run
/// length.
std::vector<ValueDegree> FirstColumnRuns(const Relation& r) {
  std::vector<ValueDegree> out;
  for (size_t i = 0; i < r.size(); ++i) {
    const Value v = r.Row(i)[0];
    if (out.empty() || out.back().value != v) out.push_back({v, 0});
    ++out.back().degree;
  }
  return out;
}

/// DegreeProfile of a stored binary relation keyed on its second column,
/// whose values lie in [lo, lo + range): rows are distinct, so a value's
/// degree is its occurrence count, kept in a dense array over the range.
std::vector<ValueDegree> SecondColumnCounts(const Relation& r, Value lo,
                                            int64_t range, ExecContext& ec) {
  MemCharge charge(ec, range * static_cast<int64_t>(sizeof(uint32_t)));
  std::vector<uint32_t> counts(static_cast<size_t>(range), 0);
  for (size_t i = 0; i < r.size(); ++i) ++counts[r.Row(i)[1] - int64_t{lo}];
  std::vector<ValueDegree> out;
  for (int64_t v = 0; v < range; ++v) {
    if (counts[v] != 0) out.push_back({static_cast<Value>(lo + v), counts[v]});
  }
  return out;
}

}  // namespace

int64_t Degree(const Relation& r, VarSet y, VarSet x) {
  if (r.empty()) return 0;
  const GroupedOrder g(r, y, x);
  int64_t best = 0;
  g.ForEachGroup(r, [&](size_t, size_t, int64_t distinct) {
    best = std::max(best, distinct);
  });
  return best;
}

std::vector<ValueDegree> DegreeProfile(const Relation& r, VarSet y, int x,
                                       ExecContext* ctx) {
  FMMSW_CHECK(r.schema().Contains(x));
  const int col = r.ColumnOf(x);
  const VarSet other = r.schema() - VarSet{x};
  if ((y & other) == other && IsStoredBinary(r)) {
    if (col == 0) return FirstColumnRuns(r);
    // Count the second column only when its value range is at most 4
    // values per row; wider ranges take the sort below.
    constexpr int64_t kDenseRangePerRow = 4;
    if (r.empty()) return {};
    Value lo = r.Row(0)[1], hi = lo;
    for (size_t i = 1; i < r.size(); ++i) {
      lo = std::min(lo, r.Row(i)[1]);
      hi = std::max(hi, r.Row(i)[1]);
    }
    const int64_t range = int64_t{hi} - int64_t{lo} + 1;
    if (range <= kDenseRangePerRow * static_cast<int64_t>(r.size())) {
      return SecondColumnCounts(r, lo, range, ExecContext::Resolve(ctx));
    }
  }
  // Any other input is grouped by the sort PartitionByDegree uses.
  std::vector<ValueDegree> out;
  const GroupedOrder g(r, y, VarSet{x}, ctx);
  g.ForEachGroup(r, [&](size_t begin, size_t, int64_t distinct) {
    out.push_back({r.Row(g.order[begin])[col], distinct});
  });
  return out;
}

DegreePartition PartitionByDegree(const Relation& r, VarSet y, VarSet x,
                                  int64_t threshold, ExecContext* ctx) {
  Bump(ExecContext::Resolve(ctx).stats().partition_calls);
  DegreePartition out;
  out.heavy = Relation(x & r.schema());
  out.light = Relation(r.schema());
  const GroupedOrder g(r, y, x, ctx);
  Value key[kMaxVars];
  g.ForEachGroup(r, [&](size_t begin, size_t end, int64_t distinct) {
    if (distinct > threshold) {
      const Value* row = r.Row(g.order[begin]);
      for (size_t i = 0; i < g.xcols.size(); ++i) key[i] = row[g.xcols[i]];
      out.heavy.AddRow(key);
    } else {
      for (size_t i = begin; i < end; ++i) {
        out.light.AddRow(r.Row(g.order[i]));
      }
    }
  });
  return out;
}

std::vector<Relation> DegreeBuckets(const Relation& r, VarSet y, VarSet x,
                                    ExecContext* ctx) {
  std::vector<Relation> buckets;
  const GroupedOrder g(r, y, x, ctx);
  g.ForEachGroup(r, [&](size_t begin, size_t end, int64_t distinct) {
    int level = 0;
    while ((1LL << (level + 1)) <= distinct) ++level;
    while (static_cast<int>(buckets.size()) <= level) {
      buckets.emplace_back(r.schema());
    }
    for (size_t i = begin; i < end; ++i) {
      buckets[level].AddRow(r.Row(g.order[i]));
    }
  });
  return buckets;
}

}  // namespace fmmsw
