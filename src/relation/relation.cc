#include "relation/relation.h"

#include <algorithm>

#include "core/exec_context.h"
#include "relation/row_sort.h"

namespace fmmsw {

ValueSets ComputeValueSets(const Relation& r, MemCharge* charge) {
  // Dense rule: at most this many window values per row.
  constexpr int64_t kDenseRangePerRow = 4;
  const size_t arity = static_cast<size_t>(r.arity());
  const size_t rows = r.size();
  ValueSets sets(arity);
  if (rows == 0) {
    for (ValueSet& set : sets) set.kept = true;
    return sets;
  }
  // Column c's values are data[c], data[c + arity], ...: one tight
  // strided loop per column, first for its window, then for its bits.
  const Value* data = r.Row(0);
  const size_t n = rows * arity;
  std::vector<int64_t> words(arity, 0);
  int64_t bytes = 0;
  for (size_t c = 0; c < arity; ++c) {
    Value lo = data[c], hi = data[c];
    for (size_t i = c; i < n; i += arity) {
      lo = std::min(lo, data[i]);
      hi = std::max(hi, data[i]);
    }
    if (int64_t{hi} - lo + 1 > kDenseRangePerRow * static_cast<int64_t>(rows)) {
      continue;
    }
    sets[c].kept = true;
    sets[c].first_word = int64_t{lo} >> 6;  // floor: an arithmetic shift
    words[c] = (int64_t{hi} >> 6) - sets[c].first_word + 1;
    bytes += words[c] * static_cast<int64_t>(sizeof(uint64_t));
  }
  if (charge != nullptr) charge->Add(bytes);
  for (size_t c = 0; c < arity; ++c) {
    ValueSet& set = sets[c];
    if (!set.kept) continue;
    set.words.assign(words[c], 0);
    uint64_t* bits = set.words.data();
    const int64_t base = set.first_word * 64;
    // Consecutive values often share a word (a sorted column repeats
    // each value along its run), so bits gather in a register until the
    // word changes rather than in a read-modify-write per value.
    uint64_t word = static_cast<uint64_t>(data[c] - base) >> 6, gathered = 0;
    for (size_t i = c; i < n; i += arity) {
      const uint64_t k = static_cast<uint64_t>(data[i] - base);
      if (k >> 6 != word) {
        bits[word] |= gathered;
        word = k >> 6;
        gathered = 0;
      }
      gathered |= uint64_t{1} << (k & 63);
    }
    bits[word] |= gathered;
  }
  return sets;
}

void Relation::KeepValueSets(MemCharge* charge) {
  value_sets_ =
      std::make_shared<const ValueSets>(ComputeValueSets(*this, charge));
}

void Relation::SortAndDedupe(ExecContext* ctx) {
  value_sets_.reset();
  if (vars_.empty() || data_.empty()) return;
  // One comparator-free path for every arity: rows pack into 1..8
  // order-preserving uint64 words, the packed records radix-sort (pool-
  // parallel on large inputs, stable and bit-identical at any thread
  // count), duplicates collapse on the packed words, and a single
  // gather-unpack rewrites the buffer. See relation/row_sort.h.
  SortDedupeRowBuffer(&data_, static_cast<int>(vars_.size()),
                      ExecContext::Resolve(ctx));
}

bool Relation::Contains(const std::vector<Value>& values) const {
  FMMSW_DCHECK(static_cast<int>(values.size()) == arity());
  if (vars_.empty()) return !empty_nullary_;
  const size_t a = vars_.size();
  for (size_t r = 0; r < size(); ++r) {
    if (std::equal(values.begin(), values.end(), data_.begin() + r * a)) {
      return true;
    }
  }
  return false;
}

std::string Relation::ToString(int max_rows) const {
  std::string out = "R" + schema_.ToString() + "[" + std::to_string(size()) +
                    " rows]{";
  // Clamp negatives before widening: std::min<size_t> would convert a
  // negative max_rows to a huge size_t and print every row.
  const size_t limit =
      std::min(size(), static_cast<size_t>(std::max(max_rows, 0)));
  for (size_t r = 0; r < limit; ++r) {
    if (r > 0) out += ", ";
    out += "(";
    for (int c = 0; c < arity(); ++c) {
      if (c > 0) out += ",";
      out += std::to_string(Row(r)[c]);
    }
    out += ")";
  }
  if (size() > limit) out += ", ...";
  out += "}";
  return out;
}

}  // namespace fmmsw
