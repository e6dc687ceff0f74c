#include "relation/relation.h"

#include <algorithm>

#include "core/exec_context.h"
#include "relation/row_sort.h"

namespace fmmsw {

void Relation::SortAndDedupe(ExecContext* ctx) {
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
