#ifndef FMMSW_ENGINE_FOUR_CYCLE_H_
#define FMMSW_ENGINE_FOUR_CYCLE_H_

/// \file
/// The 4-cycle query Q_square (Eq. 4) with variables X=0, Y=1, Z=2, W=3 and
/// relations [R(X,Y), S(Y,Z), T(Z,W), U(W,X)]:
///
///  - FourCycleTd: the single-TD plan, O(N^2) (fhtw = 2);
///  - FourCycleCombinatorial: degree partitioning at Delta = sqrt(N),
///    achieving the submodular width O(N^{3/2}) (Section 1.1.1 "Data
///    Partitioning"): heavy corners are handled by O(N) probes each, and
///    an all-light residual by intersecting the two light 2-path sets;
///  - FourCycleMm: the Yuster-Zwick-style hybrid (~O(N^{(4w-1)/(2w+1)}),
///    Table 1): light middle vertices combinatorially, the heavy-y /
///    heavy-w core by a rectangular matrix product. The mixed
///    (light-y, heavy-w) residual is resolved by per-heavy-w semijoins
///    against the light 2-path set, so on adversarial instances the
///    measured exponent can exceed the Table 1 value.

#include "relation/relation.h"

namespace fmmsw {

class ExecContext;

struct FourCycleStats {
  int64_t heavy_probes = 0;
  /// Materialized light 2-path tuples. In the combinatorial algorithm the
  /// second light set is fused (existence probe against the first), so
  /// only survivors count — the filtered-away intermediate never exists.
  int64_t light_pairs = 0;
  int64_t mm_dims[3] = {0, 0, 0};
};

/// One-bag-at-a-time TD plan (the O(N^2) baseline the paper's Section 1.1
/// motivates against).
bool FourCycleTd(const QueryInput& db, ExecContext* ctx = nullptr);

/// Degree-partitioned combinatorial algorithm, O(N^{3/2}).
bool FourCycleCombinatorial(const QueryInput& db,
                            FourCycleStats* stats = nullptr,
                            ExecContext* ctx = nullptr);

/// MM hybrid at the given omega.
bool FourCycleMm(const QueryInput& db, double omega,
                 FourCycleStats* stats = nullptr, ExecContext* ctx = nullptr);

}  // namespace fmmsw

#endif  // FMMSW_ENGINE_FOUR_CYCLE_H_
