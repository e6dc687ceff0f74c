#include "width/width_cache.h"

#include <algorithm>
#include <vector>

namespace fmmsw {

namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::string WidthCacheKey(const Hypergraph& h, const Rational& omega,
                          const OmegaSubwOptions& opts) {
  std::vector<uint32_t> edges;
  edges.reserve(h.edges().size());
  for (const VarSet& e : h.edges()) edges.push_back(e.mask());
  std::sort(edges.begin(), edges.end());
  // Commutative 128-bit multiset hash as a cheap discriminating prefix;
  // the full sorted edge list follows, so the key never collides.
  uint64_t ha = 0, hb = 0;
  for (uint32_t e : edges) {
    ha += SplitMix(e);
    hb += SplitMix(static_cast<uint64_t>(e) ^ 0xc2b2ae3d27d4eb4full);
  }
  std::string key;
  key += std::to_string(ha) + ":" + std::to_string(hb) + "|v" +
         std::to_string(h.vertices().mask()) + "|e";
  for (uint32_t e : edges) key += std::to_string(e) + ",";
  key += "|w" + omega.ToString();
  key += opts.full_enumeration ? "|full" : "|bb";
  key += opts.warm_start ? "|warm" : "|cold";
  key += "|mp" + std::to_string(opts.max_pivots);
  for (const SetFn<Rational>& w : opts.witnesses) {
    key += "|W" + std::to_string(w.universe().mask()) + ":";
    for (VarSet s : Subsets(w.universe())) {
      key += w[s].ToString() + ",";
    }
  }
  return key;
}

WidthCache::WidthCache(size_t capacity) : capacity_(capacity) {}

WidthCache& WidthCache::Global() {
  static WidthCache cache;
  return cache;
}

bool WidthCache::Lookup(const std::string& key, OmegaSubwResult* out) {
  MutexLock lock(&mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  *out = it->second.result;
  // Refresh recency: move the key to the MRU front.
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  ++hits_;
  return true;
}

void WidthCache::EvictOne() {
  map_.erase(lru_.back());
  lru_.pop_back();
  ++evictions_;
}

size_t WidthCache::Insert(const std::string& key,
                          const OmegaSubwResult& result) {
  MutexLock lock(&mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    // Determinism contract: a concurrent Insert of the same key carries
    // an identical result, so keep the stored one and just refresh.
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return 0;
  }
  if (capacity_ == 0) return 0;  // "hold nothing": drop on the floor
  size_t evicted = 0;
  while (map_.size() >= capacity_) {
    EvictOne();
    ++evicted;
  }
  lru_.push_front(key);
  map_.emplace(key, Entry{result, lru_.begin()});
  return evicted;
}

void WidthCache::Clear() {
  MutexLock lock(&mu_);
  map_.clear();
  lru_.clear();
  hits_ = 0;
  evictions_ = 0;
}

size_t WidthCache::SetCapacity(size_t capacity) {
  MutexLock lock(&mu_);
  capacity_ = capacity;
  size_t evicted = 0;
  while (map_.size() > capacity_) {
    EvictOne();
    ++evicted;
  }
  return evicted;
}

size_t WidthCache::size() const {
  MutexLock lock(&mu_);
  return map_.size();
}

size_t WidthCache::capacity() const {
  MutexLock lock(&mu_);
  return capacity_;
}

int64_t WidthCache::hits() const {
  MutexLock lock(&mu_);
  return hits_;
}

int64_t WidthCache::evictions() const {
  MutexLock lock(&mu_);
  return evictions_;
}

}  // namespace fmmsw
