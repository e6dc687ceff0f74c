#ifndef FMMSW_WIDTH_WIDTH_CACHE_H_
#define FMMSW_WIDTH_WIDTH_CACHE_H_

/// \file
/// A process-wide cache of w-subw results keyed by the query's shape.
/// Width computations depend only on the hypergraph's edge *multiset*
/// (as vertex masks), omega, and the solver options, never on the bound
/// relations, so repeated plans over the same query shape — across
/// catalog commits and across databases — skip the whole LP tower.
///
/// The key is a canonical string: the sorted edge masks and every
/// result-affecting option are spelled out in full (plus a 128-bit
/// multiset hash as a cheap prefix), so two distinct inputs can never
/// collide. A future planner input that depends on the data (say, degree
/// constraints) must enter the key as the statistic values it reads.
///
/// The cache is bounded: entries evict least-recently-used once `size()`
/// would pass `capacity()` (kDefaultCapacity; SetCapacity in tests), so
/// a stream of ever-new query shapes cannot grow it without limit.
/// Evictions are reported by Insert's return value and land in the
/// `width_cache_evictions` ExecStats counter at the planner call site.
/// Lookup/Insert are mutex-protected; the stored results are returned by
/// value.

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

#include "util/thread_safety.h"
#include "width/omega_subw.h"

namespace fmmsw {

/// The canonical cache key for OmegaSubw(h, omega, opts). Includes every
/// option that affects the result's value *or* its reported counters
/// (full_enumeration changes lps_solved; warm_start changes lp_pivots).
std::string WidthCacheKey(const Hypergraph& h, const Rational& omega,
                          const OmegaSubwOptions& opts);

/// Thread-safe: every member is mutex-protected (clang -Wthread-safety
/// verifies the discipline via the annotations below). Concurrent
/// Lookup/Insert of the same key are benign — both compute, one wins the
/// insert, the results are identical by the determinism contract.
class WidthCache {
 public:
  /// Default entry cap: generous for any test/bench workload while
  /// keeping worst-case retained results bounded.
  static constexpr size_t kDefaultCapacity = 1024;

  explicit WidthCache(size_t capacity = kDefaultCapacity);

  /// Process-wide instance, kDefaultCapacity entries.
  static WidthCache& Global();

  /// Returns true and copies the stored result on a hit (bumping hits()
  /// and refreshing the entry's LRU position).
  bool Lookup(const std::string& key, OmegaSubwResult* out)
      FMMSW_EXCLUDES(mu_);
  /// Inserts (or refreshes the recency of) `key`; returns the number of
  /// entries evicted to stay within capacity (0 or 1) so the caller can
  /// bump the context's width_cache_evictions counter.
  size_t Insert(const std::string& key, const OmegaSubwResult& result)
      FMMSW_EXCLUDES(mu_);
  void Clear() FMMSW_EXCLUDES(mu_);

  /// Rebounds the cache, evicting LRU entries down to `capacity`
  /// immediately (capacity 0 means "hold nothing"). Test hook.
  size_t SetCapacity(size_t capacity) FMMSW_EXCLUDES(mu_);

  size_t size() const FMMSW_EXCLUDES(mu_);
  size_t capacity() const FMMSW_EXCLUDES(mu_);
  int64_t hits() const FMMSW_EXCLUDES(mu_);
  int64_t evictions() const FMMSW_EXCLUDES(mu_);

 private:
  struct Entry {
    OmegaSubwResult result;
    /// Position in lru_ (front = most recent) for O(1) refresh.
    std::list<std::string>::iterator lru_it;
  };

  /// Pops the least-recently-used entry; mu_ must be held.
  void EvictOne() FMMSW_REQUIRES(mu_);

  mutable Mutex mu_;
  size_t capacity_ FMMSW_GUARDED_BY(mu_);
  std::list<std::string> lru_ FMMSW_GUARDED_BY(mu_);
  std::unordered_map<std::string, Entry> map_ FMMSW_GUARDED_BY(mu_);
  int64_t hits_ FMMSW_GUARDED_BY(mu_) = 0;
  int64_t evictions_ FMMSW_GUARDED_BY(mu_) = 0;
};

}  // namespace fmmsw

#endif  // FMMSW_WIDTH_WIDTH_CACHE_H_
