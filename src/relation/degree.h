#ifndef FMMSW_RELATION_DEGREE_H_
#define FMMSW_RELATION_DEGREE_H_

/// \file
/// Degree statistics and degree-based partitioning (Definition E.9 and the
/// Decomposition Step of Section 2.5 / Theorem E.10).
///
/// deg_R(Y|X) is the maximum, over assignments x of X, of the number of
/// distinct Y\X-values co-occurring with x. The partition step splits R on
/// a threshold Delta: X-values of degree > Delta form the *heavy* part
/// (kept as the projection onto X — there are at most |R|/Delta of them),
/// the rest keep their full tuples in the *light* part. This is the exact
/// database operation matching the proof-sequence step
/// h(XY) -> h(X) + h(Y|X).

#include <vector>

#include "relation/relation.h"

namespace fmmsw {

class ExecContext;

/// deg_R(Y | X): max over x of |pi_{Y\X}(sigma_{X=x}(R))| (Definition E.9).
/// X and Y need not be disjoint; X may include variables outside R's
/// schema (they are ignored, matching the paper's convention).
int64_t Degree(const Relation& r, VarSet y, VarSet x);

/// One value's degree: |pi_{Y\X}(sigma_{X=value}(R))| for a single-variable
/// key X.
struct ValueDegree {
  Value value;
  int64_t degree;
};

/// The degree profile of R for the single-variable key `x` (which must be
/// in R's schema): one entry per distinct x-value, in ascending value
/// order, with its degree over Y. A binary relation in stored form
/// (sorted and duplicate-free, as SortAndDedupe leaves it and every
/// catalog version is kept) with Y covering its other column is counted
/// without a sort: degrees are run lengths when `x` is the first column,
/// and occurrence counts in a dense array when it is the second and its
/// value range is at most 4 values per row. Any other input is grouped by
/// the sort PartitionByDegree(r, y, {x}, ...) uses.
std::vector<ValueDegree> DegreeProfile(const Relation& r, VarSet y, int x,
                                       ExecContext* ctx = nullptr);

struct DegreePartition {
  /// Projection onto X of the X-values with degree > threshold;
  /// |heavy| <= |R| / threshold.
  Relation heavy;
  /// Full tuples whose X-value has degree <= threshold;
  /// deg_light(Y|X) <= threshold.
  Relation light;
};

/// Splits R on deg(Y|X) at `threshold`. The packed-key grouping sort
/// borrows the context's scratch arena instead of allocating.
DegreePartition PartitionByDegree(const Relation& r, VarSet y, VarSet x,
                                  int64_t threshold,
                                  ExecContext* ctx = nullptr);

/// Uniformization: buckets tuples of R by floor(log2 deg(Y|X)) of their
/// X-value. Bucket i holds X-values with degree in [2^i, 2^(i+1)); at most
/// 1 + log2 |R| buckets (the polylog factor in PANDA's ~O).
std::vector<Relation> DegreeBuckets(const Relation& r, VarSet y, VarSet x,
                                    ExecContext* ctx = nullptr);

}  // namespace fmmsw

#endif  // FMMSW_RELATION_DEGREE_H_
