#include "engine/wcoj.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <optional>
#include <utility>

#include "core/exec_context.h"
#include "relation/ops.h"
#include "relation/row_sort.h"
#include "util/check.h"

namespace fmmsw {

namespace {

/// Sorted-range trie: each relation's rows are materialized once in a flat
/// buffer, columns permuted into the global instantiation order and rows
/// sorted lexicographically. A trie node is then a contiguous range of
/// that buffer; the children at depth d are the runs of equal values in
/// column d, and probing a value is a galloping search within the range.
/// No per-node allocation, no pointer chasing (compare the previous
/// std::map<Value, Trie> representation), and candidate enumeration walks
/// contiguous memory.
struct IndexedRelation {
  std::vector<int> vars;  // schema vars in instantiation order
  int arity = 0;
  std::vector<Value> data;  // sorted rows, columns in `vars` order

  /// Last-level bitmaps (see GenericJoin::BuildBitmaps), empty unless the
  /// relation took them: one bitmap of `words` words per prefix run (rows
  /// agreeing on every column but the last) over its last variable's
  /// value window, whose bit 0 is value `bits_lo`, and, when there is a
  /// prefix, each row's run index.
  std::vector<uint64_t> bits;
  std::vector<uint32_t> run_of;
  uint32_t words = 0;
  int64_t bits_lo = 0;

  /// Direct-addressed top level (see GenericJoin::BuildTopIndex), empty
  /// unless the relation took it: the rows whose first column holds
  /// value v are [top_off[v - top_lo], top_off[v - top_lo + 1]).
  std::vector<uint32_t> top_off;
  int64_t top_lo = 0;

  Value At(uint32_t pos, size_t level) const {
    return data[static_cast<size_t>(pos) * arity + level];
  }
  /// True if rows `a` and `b` agree on every column but the last.
  bool SamePrefix(uint32_t a, uint32_t b) const {
    return std::equal(&data[static_cast<size_t>(a) * arity],
                      &data[static_cast<size_t>(a) * arity + arity - 1],
                      &data[static_cast<size_t>(b) * arity]);
  }
  uint32_t rows() const {
    return static_cast<uint32_t>(data.size() /
                                 std::max<size_t>(arity, 1));
  }
  /// True if the relation's bitmaps stand in for trie level `level`: it
  /// took them and `level` is its last, so that variable has a mask.
  bool Masked(size_t level) const {
    return words != 0 && level + 1 == vars.size();
  }
};

struct Range {
  uint32_t begin, end;
  uint32_t size() const { return end - begin; }
};

/// Mutable enumeration state: one range stack per relation, the mask
/// frames and the current partial assignment. The trie data itself is
/// shared read-only, so parallel workers each own an EnumState and
/// recurse independently.
struct EnumState {
  std::vector<std::vector<Range>> ranges;
  std::vector<Value> assignment;
  /// Candidate masks (see GenericJoin::BuildMaskPlan): each variable's
  /// base mask, then per depth the masks its bindings fold into.
  std::vector<uint64_t> masks;
  /// Bindings pruned by an empty mask (ExecStats::wcoj_pruned_bindings).
  int64_t pruned = 0;
  /// Counting leaves that added a mask's popcount
  /// (ExecStats::wcoj_popcount_leaves).
  int64_t popcount_leaves = 0;
  /// Per-worker run counter amortizing the guard polls of EnumerateRuns:
  /// persists across calls so short ranges still accumulate toward the
  /// next poll instead of resetting below the mask every time.
  uint32_t poll_tick = 0;
};

class GenericJoin {
 public:
  GenericJoin(const Hypergraph& h, const QueryInput& db,
              const std::vector<int>& order, ExecContext& ec)
      : order_(order), guard_(&ec.guard()), stats_(&ec.stats()),
        trie_charge_(ec) {
    FMMSW_CHECK(db.relations.size() == h.edges().size());
    // Position of each variable in the instantiation order.
    std::vector<int> pos(kMaxVars, -1);
    for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
    for (const Relation& r : db.relations) {
      IndexedRelation ir;
      ir.vars = r.vars();
      ir.arity = r.arity();
      total_rows_ += r.size();
      // contracts: allow(no-comparator-sort) sorts <= kMaxVars schema
      // variables once per relation at setup, not tuples.
      std::sort(ir.vars.begin(), ir.vars.end(),
                [&](int a, int b) { return pos[a] < pos[b]; });
      std::vector<int> cols;
      for (int v : ir.vars) cols.push_back(r.ColumnOf(v));
      // Trie buffers live for the whole join; charging before each build
      // lets a memory budget stop the query before the allocation, not
      // after.
      trie_charge_.Add(static_cast<int64_t>(r.size()) *
                       static_cast<int64_t>(cols.size()) * sizeof(Value));
      // The trie buffer is the projection onto `cols` in sorted row
      // order: pack those columns, radix-sort the packed keys
      // (comparator-free, pool-parallel for large relations), unpack
      // once. Relations whose column order matches the instantiation
      // order arrive presorted and skip the passes entirely.
      SortProjectedRows(r, cols, ec, &ir.data);
      rels_.push_back(std::move(ir));
    }
    BuildBitmaps(ec);
    BuildTopIndex(ec);
    BuildMaskPlan();
  }

  size_t total_rows() const { return total_rows_; }

  /// Charges the mask frames of `states` enumeration states with the
  /// tries, before any of them is made.
  void ChargeStates(int states) {
    if (mask_words_ == 0) return;
    trie_charge_.Add(static_cast<int64_t>(states) *
                     static_cast<int64_t>(mask_words_ * sizeof(uint64_t)));
  }

  EnumState MakeState() const {
    EnumState st;
    st.ranges.resize(rels_.size());
    for (size_t i = 0; i < rels_.size(); ++i) {
      st.ranges[i].reserve(order_.size() + 2);
      st.ranges[i].push_back({0, rels_[i].rows()});
    }
    st.assignment.assign(kMaxVars, 0);
    st.masks.reserve(mask_words_);
    st.masks.assign(base_masks_.begin(), base_masks_.end());
    st.masks.resize(mask_words_);
    return st;
  }

  /// Visits every satisfying assignment; `emit` returns false to stop the
  /// enumeration early (Boolean mode).
  template <typename Emit>
  bool Run(const Emit& emit) {
    ChargeStates(1);
    EnumState st = MakeState();
    const bool keep_going = Recurse(&st, 0, emit);
    Bump(stats_->wcoj_pruned_bindings, st.pruned);
    Bump(stats_->wcoj_popcount_leaves, st.popcount_leaves);
    return keep_going;
  }

  // ---- Top-level task fan-out ----------------------------------------
  // The candidate runs of the first variable become independent subtrees:
  // each task pins the first variable to one matching value (with the
  // per-relation subranges already resolved) and a worker enumerates the
  // rest with its own range stacks.

  /// Expands depth 0 into tasks. Returns false (leaving no tasks) when
  /// the first variable is unconstrained — callers fall back to the
  /// serial path.
  bool CollectTopTasks() {
    task_values_.clear();
    task_ranges_.clear();
    active_.clear();
    if (order_.empty()) return false;
    const int v = order_[0];
    for (size_t i = 0; i < rels_.size(); ++i) {
      if (!rels_[i].vars.empty() && rels_[i].vars[0] == v) {
        active_.push_back(i);
      }
    }
    if (active_.empty()) return false;
    size_t pivot_a = 0;
    for (size_t a = 1; a < active_.size(); ++a) {
      if (rels_[active_[a]].rows() < rels_[active_[pivot_a]].rows()) {
        pivot_a = a;
      }
    }
    const IndexedRelation& pr = rels_[active_[pivot_a]];
    const uint32_t pend = pr.rows();
    std::vector<uint32_t> cursor(active_.size(), 0);
    std::vector<Range> sub(active_.size());
    uint32_t pos = 0;
    uint32_t runs = 0;
    while (pos < pend) {
      if ((++runs & 1023) == 0) guard_->Poll(FaultSite::kWcoj);
      const Value value = pr.At(pos, 0);
      uint32_t run_end = pos + 1;
      while (run_end < pend && pr.At(run_end, 0) == value) ++run_end;
      bool ok = true;
      for (size_t a = 0; a < active_.size(); ++a) {
        if (a == pivot_a) {
          sub[a] = {pos, run_end};
          continue;
        }
        const IndexedRelation& ir = rels_[active_[a]];
        const Range s = Seek(ir, 0, cursor[a], ir.rows(), value);
        cursor[a] = s.end;
        if (s.size() == 0) {
          ok = false;
          break;
        }
        sub[a] = s;
      }
      if (ok) {
        task_values_.push_back(value);
        task_ranges_.insert(task_ranges_.end(), sub.begin(), sub.end());
      }
      pos = run_end;
    }
    return true;
  }

  size_t task_count() const { return task_values_.size(); }

  /// Runs one top-level task on the given worker state; the state's
  /// stacks are rebalanced before returning. Returns false if `emit`
  /// stopped the enumeration.
  template <typename Emit>
  bool RunTask(EnumState* st, size_t task, const Emit& emit) const {
    // A task whose depth-0 fold empties a mask has nothing below it.
    const bool keep_going = !PushTask(st, task) || Recurse(st, 1, emit);
    PopTask(st);
    return keep_going;
  }

  // ---- Depth-1 cooperative execution (sub-level stealing) ------------
  // A single heavy top-level task serializes the whole join if only whole
  // tasks are scheduled. For tasks whose depth-1 candidate range is large
  // enough, the range is instead *claimed in position blocks* from a
  // shared atomic cursor: the task's first claimant and any worker that
  // has run out of whole tasks pull blocks from the same cursor, so a
  // heavy hitter is split across however many workers go dry. A value run
  // is processed by the claimant of its first position (claimants skip a
  // run straddling in from the left and finish one extending past their
  // block), so the claims partition the depth-1 runs exactly — every
  // assignment is enumerated once, for any interleaving of claims.

  /// Resolves the depth-1 active set plus, per task, the pivot relation
  /// and its candidate range. Returns false when depth 1 cannot be
  /// executed cooperatively (single-variable order, or a second variable
  /// constrained by no relation).
  bool PrepareDepth1() {
    d1_active_.clear();
    d1_pivot_.clear();
    d1_range_.clear();
    if (order_.size() < 2) return false;
    const int v = order_[1];
    for (size_t i = 0; i < rels_.size(); ++i) {
      const bool active0 =
          std::find(active_.begin(), active_.end(), i) != active_.end();
      const size_t level = active0 ? 1 : 0;
      if (level < rels_[i].vars.size() && rels_[i].vars[level] == v) {
        d1_active_.push_back(i);
      }
    }
    if (d1_active_.empty() || d1_active_.size() > 64) return false;
    const size_t nt = task_count();
    d1_pivot_.resize(nt);
    d1_range_.resize(nt);
    for (size_t t = 0; t < nt; ++t) {
      size_t best = d1_active_[0];
      Range brange = RangeAtDepth1(t, best);
      for (size_t a = 1; a < d1_active_.size(); ++a) {
        const Range cand = RangeAtDepth1(t, d1_active_[a]);
        if (cand.size() < brange.size()) {
          best = d1_active_[a];
          brange = cand;
        }
      }
      d1_pivot_[t] = best;
      d1_range_[t] = brange;
    }
    return true;
  }

  uint32_t D1Begin(size_t task) const { return d1_range_[task].begin; }
  uint32_t D1End(size_t task) const { return d1_range_[task].end; }
  uint32_t D1Span(size_t task) const { return d1_range_[task].size(); }

  /// Cooperative execution of one task: claims depth-1 position blocks
  /// from `cursor` until the range is exhausted or `stop()` turns true
  /// (polled per block — a Boolean caller's global early exit), calling
  /// begin_block(task, lo) before each claimed block's enumeration.
  /// Returns false if `emit` stopped the run (the cursor is then poisoned
  /// so other participants stop claiming).
  template <typename Stop, typename BeginBlock, typename Emit>
  bool RunTaskCoop(EnumState* st, size_t task,
                   std::atomic<uint32_t>* cursor, uint32_t block,
                   const Stop& stop, const BeginBlock& begin_block,
                   const Emit& emit) const {
    const uint32_t end = d1_range_[task].end;
    if (!PushTask(st, task)) {
      // The depth-0 fold emptied a mask: no block has anything to visit,
      // so drain the cursor (every claimant folds the same way) and let
      // dry workers stop picking the task.
      // relaxed: poison latch, as below.
      cursor->store(end, std::memory_order_relaxed);
      PopTask(st);
      return true;
    }
    bool keep_going = true;
    while (keep_going && !stop()) {
      // relaxed: work-claim RMW — atomicity alone hands each depth-1
      // position block to exactly one claimant (the claim partition is
      // what determinism rests on, and it holds under any ordering);
      // claimed blocks read only the shared immutable trie, and worker
      // outputs are published by the pool's fan-in.
      const uint32_t lo = cursor->fetch_add(block, std::memory_order_relaxed);
      if (lo >= end) break;
      guard_->Poll(FaultSite::kWcoj);
      begin_block(task, lo);
      keep_going = RunBlock(st, task, lo, std::min(lo + block, end), emit);
    }
    // relaxed: poison latch — saturating the cursor stops further
    // claims; racing claimants that already passed the fetch_add just
    // finish their block, which the early-exit contract permits.
    if (!keep_going) cursor->store(end, std::memory_order_relaxed);
    PopTask(st);
    return keep_going;
  }

 private:
  /// Pins the first variable to task `task`'s value: pushes the task's
  /// resolved subranges and folds depth 0 exactly as the serial path
  /// does. Returns false if the fold emptied a mask.
  bool PushTask(EnumState* st, size_t task) const {
    const size_t na = active_.size();
    for (size_t a = 0; a < na; ++a) {
      std::vector<Range>& stack = st->ranges[active_[a]];
      stack.resize(1);
      stack.push_back(task_ranges_[task * na + a]);
    }
    st->assignment[order_[0]] = task_values_[task];
    return Fold(st, 0);
  }

  void PopTask(EnumState* st) const {
    for (size_t a : active_) st->ranges[a].resize(1);
  }

  /// Enumerates the depth-1 runs *starting* in [lo, hi) of the task's
  /// pivot range (a straddling head run is skipped, a tail run is
  /// finished past hi) and recurses below them.
  template <typename Emit>
  bool RunBlock(EnumState* st, size_t task, uint32_t lo, uint32_t hi,
                const Emit& emit) const {
    const size_t pivot = d1_pivot_[task];
    const IndexedRelation& pr = rels_[pivot];
    const size_t plevel = st->ranges[pivot].size() - 1;
    const Range prange = d1_range_[task];
    uint32_t pos = lo;
    if (pos > prange.begin &&
        pr.At(pos, plevel) == pr.At(pos - 1, plevel)) {
      pos = UpperBound(pr, plevel, pos, prange.end, pr.At(pos, plevel));
    }
    return EnumerateRuns(st, d1_active_.data(), d1_active_.size(), pivot,
                         prange, pos, hi, /*next_depth=*/2, emit);
  }

  /// A relation probed for the candidate values of one EnumerateRuns
  /// call, read from a forward-only cursor in [cursor, end).
  struct Probe {
    uint32_t rel, level, cursor, end;
  };

  /// The one run-enumeration kernel shared by Recurse and RunBlock: binds
  /// the variable at depth next_depth - 1 to each candidate of the
  /// `pivot` runs whose start position lies in [lo, hi) (each run extends
  /// to its true end within prange, possibly past hi), probes the other
  /// `actives` that still need a subrange (one array read on a direct top
  /// index, otherwise a Seek from a forward-only cursor), pushes the
  /// matched subranges, folds the bitmaps whose prefix the binding
  /// completes (Fold), recurses at `next_depth` and unwinds. When the
  /// variable has a candidate mask, the relations it stands in for are
  /// neither probed nor pushed: a masked pivot's candidates are the
  /// mask's set bits among its own values, any other pivot's runs are
  /// bit-tested against the mask. Either way the values arrive in
  /// ascending order. The bit-identical-across-thread-counts guarantee
  /// rests on serial and cooperative execution sharing this single
  /// implementation.
  template <typename Emit>
  bool EnumerateRuns(EnumState* st, const size_t* actives, size_t n_active,
                     size_t pivot, const Range& prange, uint32_t lo,
                     uint32_t hi, size_t next_depth, const Emit& emit) const {
    const size_t depth = next_depth - 1;
    const IndexedRelation& pr = rels_[pivot];
    const size_t plevel = st->ranges[pivot].size() - 1;
    const DepthMask& dm = depth_mask_[depth];
    const uint64_t* mask =
        dm.read < 0 ? nullptr : st->masks.data() + dm.read;
    const bool folds = fold_begin_[depth] != fold_begin_[depth + 1];
    // How each probed relation is read, decided once per call: the ones
    // on their top level with a direct index come first and read their
    // run from the offset array; the rest gallop from a forward-only
    // cursor.
    Probe probes[64];
    size_t n_direct = 0, n_probes = 0;
    for (size_t a = 0; a < n_active; ++a) {
      const size_t i = actives[a];
      if (i == pivot) continue;
      const std::vector<Range>& stack = st->ranges[i];
      const Probe p{static_cast<uint32_t>(i),
                    static_cast<uint32_t>(stack.size() - 1),
                    stack.back().begin, stack.back().end};
      if (rels_[i].Masked(p.level)) continue;
      if (p.level == 0 && !rels_[i].top_off.empty()) {
        if (n_probes > n_direct) probes[n_probes] = probes[n_direct];
        probes[n_direct++] = p;
        ++n_probes;
      } else {
        probes[n_probes++] = p;
      }
    }
    if (pr.Masked(plevel)) {
      // The pivot runs starting in [lo, hi) hold exactly the values
      // [At(lo), At(hi - 1)]: lo is a run start, and the run holding
      // hi - 1 starts at or after it. The pivot's bitmap is in the mask,
      // so the mask's set bits there are the candidates.
      if (lo >= hi) return true;
      const uint64_t b0 = static_cast<uint64_t>(pr.At(lo, plevel) - dm.lo);
      const uint64_t b1 =
          static_cast<uint64_t>(pr.At(hi - 1, plevel) - dm.lo);
      const auto word = [&](uint64_t w) {
        uint64_t m = mask[w];
        if (w == b0 / 64) m &= ~uint64_t{0} << (b0 % 64);
        if (w == b1 / 64) m &= ~uint64_t{0} >> (63 - b1 % 64);
        return m;
      };
      if constexpr (requires { emit.AddCount(int64_t{0}); }) {
        if (n_probes == 0 && next_depth == order_.size()) {
          // Counting leaf: every set bit is one result.
          ++st->popcount_leaves;
          int64_t n = 0;
          for (uint64_t w = b0 / 64; w <= b1 / 64; ++w) {
            n += std::popcount(word(w));
          }
          return emit.AddCount(n);
        }
      }
      for (uint64_t w = b0 / 64; w <= b1 / 64; ++w) {
        for (uint64_t m = word(w); m != 0; m &= m - 1) {
          if (next_depth <= 2 && (++st->poll_tick & 255) == 0) {
            guard_->Poll(FaultSite::kWcoj);
          }
          const Value value = static_cast<Value>(
              dm.lo + static_cast<int64_t>(w * 64) + std::countr_zero(m));
          if (!Match(st, probes, n_direct, n_probes, value)) continue;
          if (!Descend(st, probes, n_probes, depth, folds, value, emit)) {
            return false;
          }
        }
      }
      return true;
    }
    uint32_t pos = lo;
    while (pos < hi) {
      // Morsel-boundary poll, confined to the top two instantiation
      // levels and amortized to every 256th run (the worker-local tick
      // keeps the armed slow path — an atomic fetch_add on a shared
      // counter — off the per-run critical path; depth-1 coop block
      // claims still poll unconditionally, bounding abort latency).
      if (next_depth <= 2 && (++st->poll_tick & 255) == 0) guard_->Poll(FaultSite::kWcoj);
      const Value value = pr.At(pos, plevel);
      uint32_t run_end = pos + 1;
      while (run_end < prange.end && pr.At(run_end, plevel) == value) {
        ++run_end;
      }
      const Range run{pos, run_end};
      pos = run_end;
      if (mask != nullptr) {
        const uint64_t k =
            static_cast<uint64_t>(static_cast<int64_t>(value) - dm.lo);
        if (k >= dm.bits || (mask[k / 64] >> (k % 64) & 1) == 0) continue;
      }
      if (!Match(st, probes, n_direct, n_probes, value)) continue;
      st->ranges[pivot].push_back(run);
      const bool keep_going =
          Descend(st, probes, n_probes, depth, folds, value, emit);
      st->ranges[pivot].pop_back();
      if (!keep_going) return false;
    }
    return true;
  }

  /// Binds order_[depth] to `value`, whose matched subranges Match has
  /// pushed, folds the binding (when the depth has folds), recurses
  /// unless the fold pruned it, and pops the probes' subranges. Returns
  /// false if `emit` stopped the enumeration.
  template <typename Emit>
  bool Descend(EnumState* st, const Probe* probes, size_t n_probes,
               size_t depth, bool folds, Value value, const Emit& emit) const {
    st->assignment[order_[depth]] = value;
    const bool keep_going =
        (folds && !Fold(st, depth)) || Recurse(st, depth + 1, emit);
    for (size_t k = 0; k < n_probes; ++k) {
      st->ranges[probes[k].rel].pop_back();
    }
    return keep_going;
  }

  /// Probes `value` in every relation of `probes` (the first n_direct
  /// through their direct top index) and pushes the matched subranges.
  /// On a miss unwinds what it pushed and returns false.
  bool Match(EnumState* st, Probe* probes, size_t n_direct, size_t n_probes,
             Value value) const {
    size_t m = 0;  // probes matched (and pushed) so far
    for (; m < n_direct; ++m) {
      const IndexedRelation& ir = rels_[probes[m].rel];
      // 64-bit offset: value - lo spans more than int32 at the extremes;
      // a value below lo wraps past the window.
      const uint64_t k =
          static_cast<uint64_t>(static_cast<int64_t>(value) - ir.top_lo);
      if (k >= ir.top_off.size() - 1 ||
          ir.top_off[k] == ir.top_off[k + 1]) {
        break;
      }
      st->ranges[probes[m].rel].push_back(
          {ir.top_off[k], ir.top_off[k + 1]});
    }
    if (m == n_direct) {
      for (; m < n_probes; ++m) {
        Probe& p = probes[m];
        const Range sub =
            Seek(rels_[p.rel], p.level, p.cursor, p.end, value);
        p.cursor = sub.end;
        if (sub.size() == 0) break;
        st->ranges[p.rel].push_back(sub);
      }
    }
    if (m == n_probes) return true;
    // Unwind the subranges pushed before the miss.
    for (size_t k = 0; k < m; ++k) st->ranges[probes[k].rel].pop_back();
    return false;
  }

  /// Depth-1 range of `rel` within task `t`: the task's resolved subrange
  /// for depth-0 active relations, the full relation otherwise.
  Range RangeAtDepth1(size_t t, size_t rel) const {
    for (size_t a = 0; a < active_.size(); ++a) {
      if (active_[a] == rel) return task_ranges_[t * active_.size() + a];
    }
    return {0, rels_[rel].rows()};
  }

  /// First position in [lo, hi) whose `level` column is >= v.
  static uint32_t LowerBound(const IndexedRelation& ir, size_t level,
                             uint32_t lo, uint32_t hi, Value v) {
    while (lo < hi) {
      const uint32_t mid = lo + (hi - lo) / 2;
      if (ir.At(mid, level) < v) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// First position in [lo, hi) whose `level` column is > v.
  static uint32_t UpperBound(const IndexedRelation& ir, size_t level,
                             uint32_t lo, uint32_t hi, Value v) {
    while (lo < hi) {
      const uint32_t mid = lo + (hi - lo) / 2;
      if (ir.At(mid, level) <= v) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// End of the prefix run starting at row `p`: the first row after it
  /// whose columns but the last differ from p's. Gallops, then binary
  /// searches.
  static uint32_t PrefixRunEnd(const IndexedRelation& ir, uint32_t p) {
    const uint64_t n = ir.rows();
    uint64_t lo = p + 1, hi = lo, step = 1;  // rows [p, lo) share p's prefix
    while (hi < n && ir.SamePrefix(p, static_cast<uint32_t>(hi))) {
      lo = hi + 1;
      hi += step;
      step <<= 1;
    }
    hi = std::min(hi, n);
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      if (ir.SamePrefix(p, static_cast<uint32_t>(mid))) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return static_cast<uint32_t>(lo);
  }

  /// Subrange of [from, end) holding value `v` in column `level`. The
  /// candidate values arrive in increasing order, so `from` is a cursor
  /// that only moves forward: gallop to bracket v, then binary search —
  /// amortized linear in the range instead of log per probe.
  static Range Seek(const IndexedRelation& ir, size_t level, uint32_t from,
                    uint32_t end, Value v) {
    uint32_t lo = from, step = 1;
    while (lo < end && ir.At(lo, level) < v) {
      from = lo + 1;
      lo += step;
      step <<= 1;
    }
    lo = LowerBound(ir, level, from, std::min(lo, end), v);
    if (lo >= end || ir.At(lo, level) != v) return {lo, lo};
    uint32_t hi = lo + 1, hstep = 1;
    uint32_t hfrom = hi;
    while (hi < end && ir.At(hi, level) == v) {
      hfrom = hi + 1;
      hi += hstep;
      hstep <<= 1;
    }
    hi = UpperBound(ir, level, hfrom, std::min(hi, end), v);
    return {lo, hi};
  }

  template <typename Emit>
  bool Recurse(EnumState* st, size_t depth, const Emit& emit) const {
    if (depth == order_.size()) return emit(st->assignment);
    const int v = order_[depth];
    // Relations whose next trie level is v.
    size_t active[64];
    size_t n_active = 0;
    for (size_t i = 0; i < rels_.size(); ++i) {
      const size_t level = st->ranges[i].size() - 1;
      if (level < rels_[i].vars.size() && rels_[i].vars[level] == v) {
        FMMSW_CHECK(n_active < 64);
        active[n_active++] = i;
      }
    }
    if (n_active == 0) {
      // Unconstrained variable (possible after projections); nothing to
      // iterate — this only happens for vars absent from every relation.
      return Recurse(st, depth + 1, emit);
    }
    // Iterate the relation with the smallest range, probing the others.
    size_t pivot = active[0];
    for (size_t a = 1; a < n_active; ++a) {
      if (st->ranges[active[a]].back().size() <
          st->ranges[pivot].back().size()) {
        pivot = active[a];
      }
    }
    const Range prange = st->ranges[pivot].back();
    return EnumerateRuns(st, active, n_active, pivot, prange, prange.begin,
                         prange.end, depth + 1, emit);
  }

  // ---- Last-level bitmaps and candidate masks --------------------------
  // A relation's last trie variable u is probed once per binding of its
  // prefix. When its prefix runs are dense over u's value window, each
  // run becomes a bitmap, and the binding that completes the prefix ANDs
  // that run's bitmap into u's candidate mask. At depth(u) the mask's set
  // bits are u's candidates from every such relation at once, and a
  // binding whose fold empties a mask is pruned there, however far above
  // u it sits.

  /// Gives every relation with runs x words <= rows its bitmaps, where
  /// runs counts its prefix runs and words spans its last variable's
  /// window: the last-column values of every relation ending at that
  /// variable that passes the same test over its own values. Each taker
  /// gets one bitmap per prefix run and, past a prefix, a row -> run
  /// index, so the bitmaps never outgrow the rows they index. Their bytes
  /// are charged with the tries before anything is allocated.
  void BuildBitmaps(ExecContext& ec) {
    // Per relation: its runs and its own window. Both only grow as the
    // scan proceeds, so it stops at the first failed test; run ends are
    // galloped to, so a long run costs a logarithmic number of reads.
    std::vector<int64_t> lo(kMaxVars, INT64_MAX), hi(kMaxVars, INT64_MIN);
    std::vector<uint64_t> runs(rels_.size(), 0);  // 0: takes no bitmaps
    for (size_t i = 0; i < rels_.size(); ++i) {
      const IndexedRelation& ir = rels_[i];
      if (ir.arity == 0) continue;
      const uint32_t n = ir.rows();
      const size_t last = ir.arity - 1;
      int64_t own_lo = INT64_MAX, own_hi = INT64_MIN;
      uint64_t r = 0;
      uint32_t p = 0;
      while (p < n) {
        const uint32_t end = PrefixRunEnd(ir, p);
        // A run is sorted on the last column: its first row holds its
        // least value, its last row its greatest.
        own_lo = std::min<int64_t>(own_lo, ir.At(p, last));
        own_hi = std::max<int64_t>(own_hi, ir.At(end - 1, last));
        if (++r * (static_cast<uint64_t>(own_hi - own_lo) / 64 + 1) > n) break;
        p = end;
      }
      if (p < n || r == 0) continue;
      runs[i] = r;
      const int u = ir.vars.back();
      lo[u] = std::min(lo[u], own_lo);
      hi[u] = std::max(hi[u], own_hi);
    }
    std::vector<size_t> take;
    int64_t bytes = 0;
    for (size_t i = 0; i < rels_.size(); ++i) {
      const IndexedRelation& ir = rels_[i];
      if (runs[i] == 0) continue;
      // Against the window every passing relation ending at u spans.
      const int u = ir.vars.back();
      const uint64_t words = static_cast<uint64_t>(hi[u] - lo[u]) / 64 + 1;
      if (runs[i] * words > ir.rows()) continue;
      take.push_back(i);
      bytes += static_cast<int64_t>(runs[i] * words * sizeof(uint64_t));
      if (ir.arity > 1) bytes += ir.rows() * sizeof(uint32_t);
    }
    if (take.empty()) return;
    trie_charge_.Add(bytes);
    for (size_t i : take) {
      IndexedRelation& ir = rels_[i];
      const int u = ir.vars.back();
      const uint32_t n = ir.rows();
      const size_t last = ir.arity - 1;
      ir.words = static_cast<uint32_t>((hi[u] - lo[u]) / 64 + 1);
      ir.bits_lo = lo[u];
      ir.bits.assign(runs[i] * ir.words, 0);
      if (ir.arity > 1) ir.run_of.resize(n);
      uint32_t run = 0;
      for (uint32_t p = 0; p < n; ++p) {
        if (p > 0 && !ir.SamePrefix(p - 1, p)) ++run;
        if (ir.arity > 1) ir.run_of[p] = run;
        const uint64_t off = static_cast<uint64_t>(ir.At(p, last) - lo[u]);
        ir.bits[run * ir.words + off / 64] |= uint64_t{1} << (off % 64);
      }
    }
    Bump(ec.stats().wcoj_bitmap_relations, static_cast<int64_t>(take.size()));
  }

  /// Lays out the mask frames of an EnumState. Each variable ending a
  /// relation with bitmaps gets a base mask: all ones, ANDed with the
  /// bitmaps of its unary relations. Then each depth d gets one fresh
  /// mask per variable its bindings fold into: the variable's current
  /// mask ANDed with the run bitmaps of the relations whose prefix ends
  /// at order_[d]. Which mask is current for a variable at a depth is
  /// fixed by the order, so the frames are offsets, never copied.
  void BuildMaskPlan() {
    const size_t n = order_.size();
    depth_mask_.assign(n, {});
    fold_begin_.assign(n + 1, 0);
    std::vector<uint32_t> words(kMaxVars, 0);  // per variable: its window
    std::vector<int64_t> lo(kMaxVars, 0);
    for (const IndexedRelation& ir : rels_) {
      if (ir.words == 0) continue;
      words[ir.vars.back()] = ir.words;
      lo[ir.vars.back()] = ir.bits_lo;
    }
    std::vector<int64_t> cur(kMaxVars, -1);  // current mask of each var
    for (int u = 0; u < kMaxVars; ++u) {
      if (words[u] == 0) continue;
      cur[u] = static_cast<int64_t>(base_masks_.size());
      base_masks_.resize(base_masks_.size() + words[u], ~uint64_t{0});
    }
    for (const IndexedRelation& ir : rels_) {
      if (ir.words == 0 || ir.arity != 1) continue;
      uint64_t* base = base_masks_.data() + cur[ir.vars[0]];
      for (uint32_t w = 0; w < ir.words; ++w) base[w] &= ir.bits[w];
    }
    size_t offset = base_masks_.size();
    for (size_t d = 0; d < n; ++d) {
      const int v = order_[d];
      if (cur[v] >= 0) {
        depth_mask_[d] = {cur[v], lo[v], uint64_t{words[v]} * 64};
      }
      fold_begin_[d] = static_cast<uint32_t>(folds_.size());
      for (int u = 0; u < kMaxVars; ++u) {
        const size_t first = fold_rels_.size();
        for (size_t i = 0; i < rels_.size(); ++i) {
          const IndexedRelation& ir = rels_[i];
          if (ir.words != 0 && ir.arity > 1 && ir.vars.back() == u &&
              ir.vars[ir.arity - 2] == v) {
            fold_rels_.push_back(static_cast<uint32_t>(i));
          }
        }
        if (fold_rels_.size() == first) continue;
        FMMSW_CHECK(fold_rels_.size() - first <= 64);
        folds_.push_back({static_cast<size_t>(cur[u]), offset, words[u],
                          static_cast<uint32_t>(first),
                          static_cast<uint32_t>(fold_rels_.size())});
        cur[u] = static_cast<int64_t>(offset);
        offset += words[u];
      }
    }
    fold_begin_[n] = static_cast<uint32_t>(folds_.size());
    mask_words_ = offset;
  }

  /// Folds the binding just made at `depth` (its subranges pushed): ANDs
  /// the bitmap of the run each relation whose prefix it completes now
  /// stands on into a fresh copy of that relation's last variable's mask.
  /// Returns false, counting the binding as pruned, if a mask emptied:
  /// nothing extends the binding.
  bool Fold(EnumState* st, size_t depth) const {
    uint64_t* masks = st->masks.data();
    for (uint32_t f = fold_begin_[depth]; f < fold_begin_[depth + 1]; ++f) {
      const FoldStep& fs = folds_[f];
      const uint64_t* row[64];
      size_t n = 0;
      for (uint32_t k = fs.rel_begin; k < fs.rel_end; ++k) {
        const IndexedRelation& ir = rels_[fold_rels_[k]];
        const uint32_t run =
            ir.run_of[st->ranges[fold_rels_[k]].back().begin];
        row[n++] = ir.bits.data() + static_cast<size_t>(run) * fs.words;
      }
      const uint64_t* src = masks + fs.src;
      uint64_t* dst = masks + fs.dst;
      uint64_t any = 0;
      for (uint32_t w = 0; w < fs.words; ++w) {
        uint64_t m = src[w];
        for (size_t k = 0; k < n; ++k) m &= row[k][w];
        dst[w] = m;
        any |= m;
      }
      if (any == 0) {
        ++st->pruned;
        return false;
      }
    }
    return true;
  }

  // ---- Direct-addressed top level -------------------------------------
  // A relation whose first trie variable is not the first of the order is
  // probed at its top level once per binding of the earlier variables,
  // each probe a gallop from row 0 of the whole relation. When its
  // first-column values are dense, an offset array per value replaces
  // that gallop with one read. Relations holding order_[0] are walked
  // once per value by a forward cursor (CollectTopTasks, depth 0), which
  // is already linear, so they keep their sorted top level.

  /// Builds the offset array of every relation whose first variable is
  /// not order_[0] and whose first-column window [lo, hi] has
  /// hi - lo + 1 <= rows, so the array takes at most 4 bytes per row
  /// plus 4. One pass over the sorted trie buffer; the bytes are charged
  /// with the tries before anything is allocated.
  void BuildTopIndex(ExecContext& ec) {
    if (order_.empty()) return;
    std::vector<std::pair<size_t, int64_t>> take;  // (relation, window)
    int64_t bytes = 0;
    for (size_t i = 0; i < rels_.size(); ++i) {
      const IndexedRelation& ir = rels_[i];
      if (ir.vars.empty() || ir.vars[0] == order_[0] || ir.rows() == 0) {
        continue;
      }
      const int64_t window =
          static_cast<int64_t>(ir.At(ir.rows() - 1, 0)) - ir.At(0, 0) + 1;
      if (window > ir.rows()) continue;
      take.push_back({i, window});
      bytes += (window + 1) * static_cast<int64_t>(sizeof(uint32_t));
    }
    if (take.empty()) return;
    trie_charge_.Add(bytes);
    for (const auto& [i, window] : take) {
      IndexedRelation& ir = rels_[i];
      const uint32_t n = ir.rows();
      ir.top_lo = ir.At(0, 0);
      ir.top_off.resize(window + 1);
      // top_off[k] = first row whose value is >= top_lo + k.
      int64_t k = 0;
      for (uint32_t p = 0; p < n; ++p) {
        const int64_t key = ir.At(p, 0) - ir.top_lo;
        while (k <= key) ir.top_off[k++] = p;
      }
      while (k <= window) ir.top_off[k++] = n;
    }
    Bump(ec.stats().wcoj_top_index, static_cast<int64_t>(take.size()));
  }

  std::vector<int> order_;
  QueryGuard* guard_;
  ExecStats* stats_;
  MemCharge trie_charge_;  ///< tries, bitmaps, top levels, mask frames
  std::vector<IndexedRelation> rels_;
  size_t total_rows_ = 0;
  std::vector<size_t> active_;     // relations constrained at depth 0
  std::vector<Value> task_values_;
  std::vector<Range> task_ranges_;  // task_count() * active_.size()
  std::vector<size_t> d1_active_;  // relations constrained at depth 1
  std::vector<size_t> d1_pivot_;   // per task: depth-1 pivot relation
  std::vector<Range> d1_range_;    // per task: pivot's depth-1 range

  /// Per depth: the offset of order_[depth]'s current mask in the frames
  /// (-1: none), the value of its bit 0 and its bit count.
  struct DepthMask {
    int64_t read = -1;
    int64_t lo = 0;
    uint64_t bits = 0;
  };
  /// One mask a binding folds into: dst = src AND the current run bitmap
  /// of each relation fold_rels_[rel_begin .. rel_end).
  struct FoldStep {
    size_t src, dst;
    uint32_t words, rel_begin, rel_end;
  };
  std::vector<DepthMask> depth_mask_;
  std::vector<FoldStep> folds_;
  std::vector<uint32_t> fold_begin_;  // depth d: folds_[fold_begin_[d] ..
                                      //   fold_begin_[d + 1])
  std::vector<uint32_t> fold_rels_;
  std::vector<uint64_t> base_masks_;  // the frames' leading base masks
  size_t mask_words_ = 0;             // words of one EnumState's frames
};

/// The candidate count of a variable no kept value set covers.
constexpr int64_t kUnconstrained = INT64_MAX;

/// Each variable's candidate count (indexed by variable): the popcount of
/// the AND of its kept columns' value sets, word by word, so no scratch
/// is allocated. A relation that arrives without value sets gets
/// per-query ones, charged before allocation and freed on return.
std::vector<int64_t> CandidateCounts(const Hypergraph& h,
                                     const QueryInput& db, ExecContext& ec) {
  MemCharge charge(ec);
  std::vector<ValueSets> computed;
  computed.reserve(db.relations.size());  // keeps `sets` pointers valid
  std::vector<const ValueSets*> sets;
  for (const Relation& r : db.relations) {
    if (r.value_sets() == nullptr) {
      computed.push_back(ComputeValueSets(r, &charge));
      sets.push_back(&computed.back());
    } else {
      sets.push_back(r.value_sets());
    }
  }
  std::vector<int64_t> count(kMaxVars, kUnconstrained);
  std::vector<const ValueSet*> of_v;
  for (int v : h.vertices().Members()) {
    // v's kept sets and the words all of them span.
    of_v.clear();
    int64_t first = INT64_MIN, end = INT64_MAX;
    for (size_t i = 0; i < db.relations.size(); ++i) {
      const Relation& r = db.relations[i];
      if (!r.schema().Contains(v)) continue;
      const ValueSet& set = (*sets[i])[r.ColumnOf(v)];
      if (!set.kept) continue;
      of_v.push_back(&set);
      first = std::max(first, set.first_word);
      end = std::min(end, set.first_word +
                              static_cast<int64_t>(set.words.size()));
    }
    if (of_v.empty()) continue;
    int64_t n = 0;
    for (int64_t w = first; w < end; ++w) {
      uint64_t m = ~uint64_t{0};
      for (const ValueSet* set : of_v) m &= set->words[w - set->first_word];
      n += std::popcount(m);
    }
    count[v] = n;
  }
  return count;
}

/// WcojOrder's greedy rule over the counts CandidateCounts returns.
std::vector<int> GreedyOrder(const Hypergraph& h, const QueryInput& db,
                             const std::vector<int64_t>& count) {
  std::vector<int> order;
  VarSet left = h.vertices();
  VarSet near;  // variables sharing a relation with a bound one
  while (!left.empty()) {
    const VarSet pool = (near & left).empty() ? left : near & left;
    int best = -1;
    for (int v : pool.Members()) {
      if (best < 0 || count[v] < count[best]) best = v;
    }
    order.push_back(best);
    left.Remove(best);
    for (const Relation& r : db.relations) {
      if (r.schema().Contains(best)) near = near | r.schema();
    }
  }
  return order;
}

/// Counts a generic-join run and returns its order: `order` exactly as
/// given, else WcojOrder's. Returns nullopt, counting the run in
/// wcoj_empty_candidates, when WcojOrder's first variable has no
/// candidate: the run then ends before any trie is built.
std::optional<std::vector<int>> StartRun(const Hypergraph& h,
                                         const QueryInput& db,
                                         const std::vector<int>* order,
                                         ExecContext& ec) {
  ExecStats& stats = ec.stats();
  Bump(stats.wcoj_runs);
  std::vector<int> ord;
  if (order != nullptr) {
    ord = *order;
  } else {
    const std::vector<int64_t> count = CandidateCounts(h, db, ec);
    ord = GreedyOrder(h, db, count);
    if (!ord.empty() && count[ord[0]] == 0) {
      Bump(stats.wcoj_empty_candidates);
      return std::nullopt;
    }
  }
  if (ord != h.vertices().Members()) Bump(stats.wcoj_reordered);
  return ord;
}

/// Minimum input size / task fan-out before the pool is engaged: tiny
/// joins (unit tests, inner TD bags) stay serial.
constexpr size_t kMinParallelRows = 512;
constexpr size_t kMinParallelTasks = 4;

/// Expands top-level tasks if the parallel path applies; returns the task
/// count (0 = run serial).
size_t PrepareParallel(ExecContext& ec, GenericJoin* gj) {
  if (ec.threads() <= 1) return 0;
  if (gj->total_rows() < kMinParallelRows) return 0;
  if (!gj->CollectTopTasks()) return 0;
  if (gj->task_count() < kMinParallelTasks) return 0;
  ExecStats& st = ec.stats();
  Bump(st.wcoj_parallel_runs);
  Bump(st.wcoj_tasks, static_cast<int64_t>(gj->task_count()));
  return gj->task_count();
}

/// Minimum depth-1 span before a task runs cooperatively: below this the
/// shared-cursor claims cost more than they balance.
constexpr uint32_t kCoopMinSpan = 1024;

/// Claim granularity: small enough that the tail of a heavy task is
/// spread across workers, large enough to amortize the atomic claim.
uint32_t CoopBlock(uint32_t span, int threads) {
  return std::max<uint32_t>(
      64, span / (16u * static_cast<uint32_t>(threads)));
}

/// Shared scheduling state of one parallel WCOJ execution: which tasks
/// run cooperatively and their depth-1 claim cursors.
struct CoopPlan {
  std::vector<uint8_t> coop;                   // per task
  std::vector<std::atomic<uint32_t>> cursors;  // per task: next depth-1 pos

  CoopPlan(GenericJoin* gj, size_t ntasks)
      : coop(ntasks, 0), cursors(ntasks) {
    if (!gj->PrepareDepth1()) return;
    for (size_t t = 0; t < ntasks; ++t) {
      if (gj->D1Span(t) >= kCoopMinSpan) {
        coop[t] = 1;
        // relaxed: initialization before the fan-out — DriveParallel's
        // pool handshake publishes the cursors to every worker.
        cursors[t].store(gj->D1Begin(t), std::memory_order_relaxed);
      }
    }
  }

  /// Cooperative task with the most unclaimed depth-1 positions (the
  /// heaviest in-flight task a dry worker should help), or SIZE_MAX.
  size_t Heaviest(const GenericJoin& gj) const {
    size_t best = SIZE_MAX;
    uint32_t best_left = 0;
    for (size_t t = 0; t < coop.size(); ++t) {
      if (!coop[t]) continue;
      // relaxed: scheduling heuristic — a stale cursor only makes a dry
      // worker pick a lighter task (or retry); actual work is still
      // handed out solely by the claiming fetch_add in RunTaskCoop.
      const uint32_t cur = cursors[t].load(std::memory_order_relaxed);
      const uint32_t end = gj.D1End(t);
      const uint32_t left = cur < end ? end - cur : 0;
      if (left > best_left) {
        best_left = left;
        best = t;
      }
    }
    return best;
  }
};

/// The emit callback of a parallel worker: forwards each result to its
/// hooks, and a counting leaf's whole popcount when the hooks count.
template <typename Hooks>
struct HookEmit {
  Hooks* hooks;
  bool operator()(const std::vector<Value>& a) const { return hooks->Emit(a); }
  bool AddCount(int64_t n) const
    requires requires(Hooks& h) { h.AddCount(n); }
  {
    return hooks->AddCount(n);
  }
};

/// The one parallel WCOJ driver, shared by Boolean/Join/Count: claim
/// whole tasks (cooperative ones through their shared depth-1 cursors),
/// then let dry workers steal depth-1 blocks from the heaviest in-flight
/// task. `make_hooks(worker)` builds the per-worker callbacks:
///   - Emit(assignment) -> bool : consume one result (false = stop all)
///   - BeginBlock(task, lo)     : a new output segment starts (Join tags
///                                its merge segments here; no-op for
///                                Boolean/Count)
///   - Stop() -> bool           : global early-exit poll
///   - AddCount(n) -> bool      : optional; n results at once (Count)
/// Per-worker cleanup (e.g. flushing a local count) goes in the hooks
/// object's destructor, which runs on every exit path.
template <typename MakeHooks>
void DriveParallel(ExecContext& ec, GenericJoin& gj, size_t ntasks,
                   const MakeHooks& make_hooks) {
  CoopPlan plan(&gj, ntasks);
  ExecStats& stats = ec.stats();
  QueryGuard& guard = ec.guard();
  const int nthreads = ec.threads();
  gj.ChargeStates(nthreads);
  std::atomic<int64_t> next(0);
  ec.pool().Run([&](int w) {
    EnumState st = gj.MakeState();
    struct FlushCounts {
      ExecStats& stats;
      const EnumState& st;
      ~FlushCounts() {
        Bump(stats.wcoj_pruned_bindings, st.pruned);
        Bump(stats.wcoj_popcount_leaves, st.popcount_leaves);
      }
    } flush{stats, st};
    auto hooks = make_hooks(w);
    const HookEmit<decltype(hooks)> emit{&hooks};
    auto begin_block = [&](size_t t, uint32_t lo) { hooks.BeginBlock(t, lo); };
    auto steal_block = [&](size_t t, uint32_t lo) {
      Bump(stats.wcoj_steal_claims);
      hooks.BeginBlock(t, lo);
    };
    auto stop = [&] { return hooks.Stop(); };
    while (!stop()) {
      // relaxed: work-claim RMW — each whole task claimed exactly once;
      // outputs are published by the pool's fan-in (see RunTaskCoop).
      const int64_t t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= static_cast<int64_t>(ntasks)) break;
      guard.Poll(FaultSite::kWcoj);
      if (plan.coop[t]) {
        Bump(stats.wcoj_coop_tasks);
        if (!gj.RunTaskCoop(&st, t, &plan.cursors[t],
                            CoopBlock(gj.D1Span(t), nthreads), stop,
                            begin_block, emit)) {
          return;
        }
      } else {
        begin_block(t, 0);
        if (!gj.RunTask(&st, t, emit)) return;
      }
    }
    // Dry: steal depth-1 blocks from the heaviest unfinished coop task.
    while (!stop()) {
      guard.Poll(FaultSite::kWcoj);
      const size_t t = plan.Heaviest(gj);
      if (t == SIZE_MAX) return;
      if (!gj.RunTaskCoop(&st, t, &plan.cursors[t],
                          CoopBlock(gj.D1Span(t), nthreads), stop,
                          steal_block, emit)) {
        return;
      }
    }
  });
}

}  // namespace

std::vector<int> WcojOrder(const Hypergraph& h, const QueryInput& db,
                           ExecContext* ctx) {
  return GreedyOrder(h, db,
                     CandidateCounts(h, db, ExecContext::Resolve(ctx)));
}

bool WcojBoolean(const Hypergraph& h, const QueryInput& db, ExecContext* ctx) {
  ExecContext& ec = ExecContext::Resolve(ctx);
  const std::optional<std::vector<int>> order = StartRun(h, db, nullptr, ec);
  if (!order) return false;
  GenericJoin gj(h, db, *order, ec);
  const size_t ntasks = PrepareParallel(ec, &gj);
  if (ntasks == 0) {
    bool found = false;
    gj.Run([&](const std::vector<Value>&) {
      found = true;
      return false;  // stop at the first witness
    });
    return found;
  }
  std::atomic<bool> found(false);
  DriveParallel(ec, gj, ntasks, [&](int) {
    struct Hooks {
      std::atomic<bool>* found;
      bool Emit(const std::vector<Value>&) {
        // relaxed: idempotent one-way latch; the authoritative read is
        // the fan-in-ordered load after DriveParallel returns.
        found->store(true, std::memory_order_relaxed);
        return false;  // stop at the first witness
      }
      void BeginBlock(size_t, uint32_t) {}
      bool Stop() const {
        // relaxed: early-exit hint — a stale false only costs redundant
        // side-effect-free enumeration before the next check.
        return found->load(std::memory_order_relaxed);
      }
    };
    return Hooks{&found};
  });
  return found.load();
}

Relation WcojJoin(const Hypergraph& h, const QueryInput& db, VarSet output_vars,
                  const std::vector<int>* order, ExecContext* ctx) {
  ExecContext& ec = ExecContext::Resolve(ctx);
  Relation out(output_vars & h.vertices());
  const std::vector<int> out_vars = out.vars();
  if (out_vars.empty()) {
    // Nullary output: an existence test, on WcojBoolean's own tries.
    if (WcojBoolean(h, db, &ec)) out.Add({});
    return out;
  }
  const std::optional<std::vector<int>> ord = StartRun(h, db, order, ec);
  if (!ord) return out;
  GenericJoin gj(h, db, *ord, ec);
  QueryGuard& guard = ec.guard();
  const int64_t row_bytes =
      static_cast<int64_t>(out_vars.size()) * sizeof(Value);
  constexpr int64_t kEmitBatch = 1024;  // row-limit/charge flush cadence
  const size_t ntasks = PrepareParallel(ec, &gj);
  if (ntasks == 0) {
    std::vector<Value> tuple(out_vars.size());
    MemCharge charge(ec);
    int64_t emitted = 0;
    gj.Run([&](const std::vector<Value>& assignment) {
      for (size_t i = 0; i < out_vars.size(); ++i) {
        tuple[i] = assignment[out_vars[i]];
      }
      out.AddRow(tuple.data());
      if ((++emitted & (kEmitBatch - 1)) == 0) {
        guard.CountRows(kEmitBatch);
        charge.Add(kEmitBatch * row_bytes);
      }
      return true;
    });
    out.SortAndDedupe(&ec);
    return out;
  }
  // Task fan-out with depth-1 stealing. Each worker appends tuples to its
  // own buffer, carved into segments tagged (task, depth-1 block start).
  // Claims partition the depth-1 runs of every cooperative task exactly,
  // so concatenating the segments in ascending tag order reproduces the
  // serial enumeration order no matter which worker claimed what. The
  // canonical sort below alone would make the relation bit-identical
  // across thread counts; the ordered merge is what lets it skip its
  // work: a full join in the index order enumerates in sorted order,
  // so SortAndDedupe's presorted pre-scan finds nothing to sort.
  struct WorkerOut {
    std::vector<Value> data;
    std::vector<std::pair<uint64_t, size_t>> segs;  // (tag, start offset)
  };
  std::vector<WorkerOut> outs(static_cast<size_t>(ec.threads()));
  DriveParallel(ec, gj, ntasks, [&](int w) {
    struct Hooks {
      WorkerOut* out;
      std::vector<Value> tuple;
      const std::vector<int>* out_vars;
      QueryGuard* guard;
      int64_t row_bytes;
      int64_t emitted = 0;
      int64_t charged = 0;
      bool Emit(const std::vector<Value>& assignment) {
        for (size_t i = 0; i < out_vars->size(); ++i) {
          tuple[i] = assignment[(*out_vars)[i]];
        }
        out->data.insert(out->data.end(), tuple.begin(), tuple.end());
        if ((++emitted & (kEmitBatch - 1)) == 0) {
          // Charge before CountRows: if either throws, the destructor
          // below releases exactly what was recorded.
          charged += kEmitBatch * row_bytes;
          guard->ChargeMem(kEmitBatch * row_bytes);
          guard->CountRows(kEmitBatch);
        }
        return true;
      }
      void BeginBlock(size_t task, uint32_t lo) {
        out->segs.push_back(
            {(static_cast<uint64_t>(task) << 32) | lo, out->data.size()});
      }
      bool Stop() const { return false; }
      Hooks(const Hooks&) = delete;
      Hooks& operator=(const Hooks&) = delete;
      Hooks(WorkerOut* o, std::vector<Value> t, const std::vector<int>* ov,
            QueryGuard* g, int64_t rb)
          : out(o), tuple(std::move(t)), out_vars(ov), guard(g),
            row_bytes(rb) {}
      ~Hooks() {
        if (charged != 0) guard->ReleaseMem(charged);
      }
    };
    return Hooks{&outs[w], std::vector<Value>(out_vars.size()), &out_vars,
                 &guard, row_bytes};
  });
  // Deterministic merge: segments in ascending (task, block) order.
  struct MergeSeg {
    uint64_t tag;
    size_t w, begin, end;
  };
  std::vector<MergeSeg> merged;
  for (size_t w = 0; w < outs.size(); ++w) {
    const WorkerOut& o = outs[w];
    for (size_t s = 0; s < o.segs.size(); ++s) {
      const size_t begin = o.segs[s].second;
      const size_t end =
          s + 1 < o.segs.size() ? o.segs[s + 1].second : o.data.size();
      if (end > begin) merged.push_back({o.segs[s].first, w, begin, end});
    }
  }
  // contracts: allow(no-comparator-sort) O(workers * tasks) segment
  // descriptors once per parallel join, not tuples.
  std::sort(
      merged.begin(), merged.end(),
      [](const MergeSeg& a, const MergeSeg& b) { return a.tag < b.tag; });
  int64_t merged_bytes = 0;
  for (const MergeSeg& m : merged) {
    merged_bytes += static_cast<int64_t>(m.end - m.begin) * sizeof(Value);
  }
  MemCharge merge_charge(ec, merged_bytes);
  for (const MergeSeg& m : merged) {
    out.AddRows(&outs[m.w].data[m.begin],
                (m.end - m.begin) / out_vars.size());
  }
  // Canonical sort: makes the merged relation bit-identical across
  // thread counts; itself parallel (and itself thread-count-invariant)
  // through the wide-key layer.
  out.SortAndDedupe(&ec);
  return out;
}

int64_t WcojCount(const Hypergraph& h, const QueryInput& db, ExecContext* ctx) {
  ExecContext& ec = ExecContext::Resolve(ctx);
  const std::optional<std::vector<int>> order = StartRun(h, db, nullptr, ec);
  if (!order) return 0;
  GenericJoin gj(h, db, *order, ec);
  const size_t ntasks = PrepareParallel(ec, &gj);
  if (ntasks == 0) {
    struct Counter {
      int64_t* count;
      bool operator()(const std::vector<Value>&) const {
        ++*count;
        return true;
      }
      bool AddCount(int64_t n) const {
        *count += n;
        return true;
      }
    };
    int64_t count = 0;
    gj.Run(Counter{&count});
    return count;
  }
  std::atomic<int64_t> total(0);
  DriveParallel(ec, gj, ntasks, [&](int) {
    struct Hooks {
      std::atomic<int64_t>* total = nullptr;
      int64_t local = 0;
      Hooks() = default;
      Hooks(Hooks&& o) noexcept : total(o.total), local(o.local) {
        o.total = nullptr;  // only the final owner flushes
      }
      bool Emit(const std::vector<Value>&) {
        ++local;
        return true;
      }
      bool AddCount(int64_t n) {
        local += n;
        return true;
      }
      void BeginBlock(size_t, uint32_t) {}
      bool Stop() const { return false; }
      // Flush on every exit path of the worker.
      ~Hooks() {
        if (total != nullptr) {
          // relaxed: per-worker partial sum — commutative RMW, read
          // only after the pool fan-in orders it.
          total->fetch_add(local, std::memory_order_relaxed);
        }
      }
    };
    Hooks h;
    h.total = &total;
    return h;
  });
  return total.load();
}

void AddBySchema(Hypergraph* h, RelationList* rels, VarSet schema,
                 RelationPtr rel, ExecContext* ctx) {
  FMMSW_CHECK(h->edges().size() == rels->size());
  for (size_t e = 0; e < h->edges().size(); ++e) {
    if (h->edges()[e] == schema) {
      rels->Set(e, Intersect((*rels)[e], *rel, ctx));
      return;
    }
  }
  h->AddEdge(schema);
  rels->push_back(std::move(rel));
}

}  // namespace fmmsw
