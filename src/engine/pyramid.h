#ifndef FMMSW_ENGINE_PYRAMID_H_
#define FMMSW_ENGINE_PYRAMID_H_

/// \file
/// The 3-pyramid query (Eq. 31, k = 3): apex Y = 0 joined to X1, X2, X3 by
/// binary relations plus a ternary base relation B(X1,X2,X3). Lemma C.13's
/// new algorithm runs in ~O(N^{2 - 1/w}), beating PANDA's N^{5/3}:
///
///   Delta = N^{1 - 1/w};
///   case 1 (some apex edge has light x_i): join the base with that light
///     part — N * Delta work;
///   case 2 (apex-degree of every x_i small): enumerate (y, x1, x2) from
///     the light-y parts and probe — N * Delta work;
///   case 3 (all heavy): eliminate Y by the matrix multiplication
///     MM(X2; X3; Y | X1) — for each x1 compatible with y, multiply the
///     X2-by-Y and Y-by-X3 Boolean matrices, then probe the base.
///
/// The combinatorial baseline is WcojBoolean(Hypergraph::Pyramid(3), ...)
/// (the PANDA-style N^{2-1/k} plan is within a log factor of it on the
/// generated workloads).
///
/// QueryInput layout per Hypergraph::Pyramid(3): relations
/// [R1(Y,X1), R2(Y,X2), R3(Y,X3), B(X1,X2,X3)].

#include "relation/relation.h"

namespace fmmsw {

class ExecContext;

struct PyramidStats {
  /// Surviving tuples of the fused case-1 join (the base-join intermediate
  /// is filtered by existence probes, never materialized).
  int64_t case1_tuples = 0;
  int64_t case2_tuples = 0;
  int64_t mm_groups = 0;
};

/// The Lemma C.13 MM algorithm at the given omega.
bool Pyramid3Mm(const QueryInput& db, double omega,
                PyramidStats* stats = nullptr, ExecContext* ctx = nullptr);

}  // namespace fmmsw

#endif  // FMMSW_ENGINE_PYRAMID_H_
