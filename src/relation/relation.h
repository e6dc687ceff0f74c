#ifndef FMMSW_RELATION_RELATION_H_
#define FMMSW_RELATION_RELATION_H_

/// \file
/// In-memory relations over query variables.
///
/// A Relation stores tuples over a schema given as a VarSet of query
/// variables; columns are kept in increasing variable order, rows in a flat
/// row-major buffer. This aligns relations with hypergraph edges: the
/// relation for atom R(Z) has schema Z, and every engine operator
/// (join, semijoin, project, degree partition) is schema-driven, so plans
/// produced from GVEOs execute directly.
///
/// The var -> column map is cached at construction so ColumnOf is O(1);
/// operators resolve columns once per call (see KeySpec in flat_index.h)
/// and append rows through the raw-buffer AddRow path.
///
/// A relation may keep per-column value sets (ValueSets below) with its
/// rows: Database::Transaction::Replace computes them once for every
/// catalog version, so every RelationPtr to that version carries them,
/// and the generic join reads them to choose its variable order. Every
/// mutator drops them, so a changed copy never carries stale sets.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/varset.h"

namespace fmmsw {

class ExecContext;
class MemCharge;

using Value = int32_t;

/// Order-preserving bias: signed comparison of Value equals unsigned
/// comparison of the biased image. Shared by every packed sort/group key
/// (SortAndDedupe, degree grouping) so the convention cannot diverge.
inline uint32_t BiasValue(Value v) {
  return static_cast<uint32_t>(v) ^ 0x80000000u;
}
inline Value UnbiasValue(uint32_t u) {
  return static_cast<Value>(u ^ 0x80000000u);
}

/// The distinct values of one column as a bitset: bit k of words[i] is
/// value 64 * (first_word + i) + k. A column is kept only when its window
/// hi - lo + 1 is at most 4 values per row (DegreeProfile's dense rule),
/// so its words never outnumber rows / 16 + 2; a wider column has
/// kept == false and constrains nothing. A column of an empty relation is
/// kept with no words: it has no value.
struct ValueSet {
  bool kept = false;
  int64_t first_word = 0;  ///< floor(lo / 64)
  std::vector<uint64_t> words;
};

/// One ValueSet per column, in column order.
using ValueSets = std::vector<ValueSet>;

class Relation {
 public:
  Relation() { col_of_.fill(-1); }
  explicit Relation(VarSet schema)
      : schema_(schema), vars_(schema.Members()) {
    col_of_.fill(-1);
    for (size_t i = 0; i < vars_.size(); ++i) {
      col_of_[vars_[i]] = static_cast<int8_t>(i);
    }
  }

  VarSet schema() const { return schema_; }
  /// Column order: schema variables in increasing index order.
  const std::vector<int>& vars() const { return vars_; }
  int arity() const { return static_cast<int>(vars_.size()); }
  size_t size() const {
    return vars_.empty() ? (empty_nullary_ ? 0 : 1)
                         : data_.size() / vars_.size();
  }
  bool empty() const { return size() == 0; }

  /// Pre-allocates room for `rows` additional tuples.
  void Reserve(size_t rows) { data_.reserve(data_.size() + rows * vars_.size()); }

  /// Appends a tuple; `values` are in column (increasing-variable) order.
  void Add(const std::vector<Value>& values) {
    FMMSW_DCHECK(static_cast<int>(values.size()) == arity());
    value_sets_.reset();
    if (vars_.empty()) {
      empty_nullary_ = false;
      return;
    }
    data_.insert(data_.end(), values.begin(), values.end());
  }

  /// Raw-buffer append of arity() consecutive values in column order.
  void AddRow(const Value* values) {
    value_sets_.reset();
    if (vars_.empty()) {
      empty_nullary_ = false;
      return;
    }
    data_.insert(data_.end(), values, values + vars_.size());
  }

  /// Bulk append of `rows` tuples stored contiguously in column order.
  void AddRows(const Value* values, size_t rows) {
    value_sets_.reset();
    if (vars_.empty()) {
      if (rows > 0) empty_nullary_ = false;
      return;
    }
    data_.insert(data_.end(), values, values + rows * vars_.size());
  }

  /// Value of query variable `var` in row `row`.
  Value Get(size_t row, int var) const {
    const int col = ColumnOf(var);
    return data_[row * vars_.size() + col];
  }

  /// Raw access to row `row` (arity() consecutive values).
  const Value* Row(size_t row) const { return &data_[row * vars_.size()]; }

  /// Column index of a schema variable; O(1) via the cached map.
  int ColumnOf(int var) const {
    FMMSW_DCHECK(var >= 0 && var < kMaxVars);
    const int col = col_of_[var];
    FMMSW_CHECK(col >= 0 && "variable not in schema");
    return col;
  }

  /// Sorts rows lexicographically (signed value order) and removes
  /// duplicates. Comparator-free at every arity: rows route through the
  /// wide-key radix layer (relation/row_sort.h) on `ctx` (nullptr = the
  /// process-default context), which supplies the scratch arena and the
  /// pool for large inputs; the result is bit-identical at any thread
  /// count.
  void SortAndDedupe(ExecContext* ctx = nullptr);

  /// The value sets kept with these rows, or nullptr: never computed, or
  /// dropped by a mutator since.
  const ValueSets* value_sets() const { return value_sets_.get(); }
  /// Computes and keeps value_sets(), charging their bytes to `charge`
  /// before allocating them (see ComputeValueSets).
  void KeepValueSets(MemCharge* charge);

  /// True if the relation contains the given tuple (column order).
  bool Contains(const std::vector<Value>& values) const;

  std::string ToString(int max_rows = 10) const;

 private:
  VarSet schema_;
  std::vector<int> vars_;
  std::array<int8_t, kMaxVars> col_of_;
  std::vector<Value> data_;
  // Nullary relations represent Boolean results: "true" holds one empty
  // tuple. Default-constructed nullary relations are empty ("false").
  bool empty_nullary_ = true;
  // Shared by the copies of one version; reset by every mutator.
  std::shared_ptr<const ValueSets> value_sets_;
};

/// Computes `r`'s ValueSets. One scan finds each column's window, the
/// kept columns' word bytes are charged to `charge` (nullptr: uncharged),
/// and only then are the words allocated and filled.
ValueSets ComputeValueSets(const Relation& r, MemCharge* charge);

/// Shared handle to one immutable relation version. Bindings, the
/// versioned catalog (core/database.h) and engine scratch all share
/// versions by pointer; nothing mutates a Relation behind one of these
/// (copy-on-write: updates build a fresh Relation and swap the pointer).
using RelationPtr = std::shared_ptr<const Relation>;

/// An ordered list of shared, immutable relation versions — the storage
/// behind QueryInput. Element access yields `const Relation&`, so engine
/// code reads bindings exactly as it would a plain vector of relations,
/// while the backing rows are shared by pointer with the catalog and with
/// other bindings. Replacing an element (Set) swaps the pointer and never
/// touches the old version, which stays valid for every other holder.
class RelationList {
 public:
  RelationList() = default;
  RelationList(std::initializer_list<Relation> rels) {
    ptrs_.reserve(rels.size());
    for (const Relation& r : rels) push_back(r);
  }

  size_t size() const { return ptrs_.size(); }
  bool empty() const { return ptrs_.empty(); }
  const Relation& operator[](size_t i) const { return *ptrs_[i]; }
  /// Shared handle to the i-th version (share without copying rows).
  const RelationPtr& ptr(size_t i) const { return ptrs_[i]; }

  void push_back(Relation r) {
    ptrs_.push_back(std::make_shared<const Relation>(std::move(r)));
  }
  void push_back(RelationPtr p) { ptrs_.push_back(std::move(p)); }
  /// Copy-on-write replacement of the i-th version.
  void Set(size_t i, Relation r) {
    ptrs_[i] = std::make_shared<const Relation>(std::move(r));
  }
  void Set(size_t i, RelationPtr p) { ptrs_[i] = std::move(p); }
  void Swap(size_t i, size_t j) { ptrs_[i].swap(ptrs_[j]); }
  void clear() { ptrs_.clear(); }
  void reserve(size_t n) { ptrs_.reserve(n); }

  /// Forward iterator yielding `const Relation&` so range-for over a
  /// binding reads like iteration over a vector of relations.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Relation;
    using reference = const Relation&;
    using pointer = const Relation*;
    using difference_type = std::ptrdiff_t;
    explicit const_iterator(const RelationPtr* it) : it_(it) {}
    const Relation& operator*() const { return **it_; }
    const Relation* operator->() const { return it_->get(); }
    const_iterator& operator++() {
      ++it_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return it_ == o.it_; }
    bool operator!=(const const_iterator& o) const { return it_ != o.it_; }

   private:
    const RelationPtr* it_;
  };
  const_iterator begin() const { return const_iterator(ptrs_.data()); }
  const_iterator end() const {
    return const_iterator(ptrs_.data() + ptrs_.size());
  }

 private:
  std::vector<RelationPtr> ptrs_;
};

/// The relations bound to one query hypergraph: relations[i] is the
/// instance of the i-th hyperedge/atom. Versions are shared, immutable
/// snapshots (see RelationList); a binding built from a catalog Snapshot
/// pins its versions for the query's whole lifetime at zero row-copy
/// cost.
struct QueryInput {
  RelationList relations;

  /// Total input size N = sum of relation sizes.
  size_t TotalSize() const {
    size_t n = 0;
    for (const Relation& r : relations) n += r.size();
    return n;
  }
};

}  // namespace fmmsw

#endif  // FMMSW_RELATION_RELATION_H_
