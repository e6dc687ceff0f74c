#ifndef FMMSW_WIDTH_OMEGA_SUBW_H_
#define FMMSW_WIDTH_OMEGA_SUBW_H_

/// \file
/// The w-submodular width (Definition 4.7) and the Section-6 algorithm for
/// computing it.
///
/// The computation distributes the min over the max in Eq. (27), yielding
/// one LP per selection of an MM branch for every MM term (Eq. 33/34).
/// We solve the resulting LP family three ways:
///   - full enumeration (the paper's "mechanical algorithm", Example D.1:
///     3^10 = 59049 LPs for the 4-clique);
///   - branch-and-bound over branch selections with a coordinate-ascent
///     warm start (orders of magnitude fewer LPs, same value);
///   - exact re-solve of the winning selection over rationals.
///
/// For *clustered* hypergraphs (Definition C.11; cliques, pyramids) the
/// first elimination dominates (Proposition 4.11 / Eq. 40) and the result
/// is exact. For general hypergraphs the routine reports certified
/// [lower, upper] bounds: the upper bound is min over GVEOs of the per-plan
/// max (max-min <= min-max), the lower bound is the best width attained by
/// a concrete polymatroid (LP argmaxes and user witnesses) evaluated
/// against *all* GVEOs.
///
/// The search is phase-structured so it parallelizes deterministically over
/// an ExecContext's thread pool: (1) all GVEO elimination walks fan out and
/// their per-step digests merge serially in GVEO order into a
/// first-occurrence list of *distinct* steps; (2) every distinct step's MM
/// options enumerate, and its max-min LP tower solves, into its own result
/// slot (each step owns a private warm-start chain); (3) the min/max
/// reductions over GVEOs run serially over the slots. The result — values,
/// bounds, witness, and lps_solved — is therefore exactly identical at
/// every thread count, including 1.

#include <cstdint>
#include <vector>

#include "entropy/polymatroid.h"
#include "hypergraph/decomposition.h"
#include "hypergraph/hypergraph.h"
#include "util/rational.h"
#include "width/mm_expr.h"

namespace fmmsw {

class ExecContext;

struct OmegaSubwOptions {
  /// Enumerate all 3^J selections instead of branch-and-bound (Example D.1
  /// reproduction; exponential, use only for small J).
  bool full_enumeration = false;
  /// Extra lower-bound candidate polymatroids (e.g. the Appendix C
  /// witnesses); each must be a valid edge-dominated polymatroid.
  std::vector<SetFn<Rational>> witnesses;
  /// Chain LP warm starts across the selection towers (see MaxMinSolver).
  /// Off, every LP cold-starts; values and witnesses are identical either
  /// way (the simplex canonicalizes its optima) — tests prove it.
  bool warm_start = true;
  /// Consult/populate the process-wide WidthCache (width_cache.h), keyed
  /// by the hypergraph shape, omega and these options. A hit returns the
  /// stored result with from_cache = true.
  bool use_width_cache = true;
  /// Per-LP pivot budget; exceeding it raises QueryAbort(kCapacityExceeded).
  int max_pivots = 200000;
};

struct OmegaSubwResult {
  /// Certified bounds: lower <= w-subw(H) <= upper. When exact, both equal
  /// `value`.
  Rational lower;
  Rational upper;
  bool exact = false;
  Rational value;  ///< == upper == lower when exact; else == upper.

  /// A polymatroid attaining `lower`.
  SetFn<Rational> worst_case;
  long lps_solved = 0;
  long lp_warm_starts = 0;  ///< LPs that replayed a previous basis
  long lp_pivots = 0;       ///< total simplex pivots across all LPs
  int64_t plan_ns = 0;      ///< wall time of the width computation
  /// Number of MM terms in the clustered-form min (Example D.1: 10).
  int num_mm_terms = 0;
  bool used_clustered_form = false;
  /// True when served from the WidthCache; the counters above then report
  /// the original (cached) computation.
  bool from_cache = false;
};

/// The inner cost of Definition 4.7 for one GVEO on a concrete polymatroid:
/// max over Proposition-4.11-required steps of min(h(U_i), EMM_i).
Rational GveoCostOn(const Hypergraph& h, const Gveo& gveo,
                    const SetFn<Rational>& hfn, const Rational& omega);

/// The width attained by a concrete polymatroid: min over *all* GVEOs of
/// GveoCostOn. This is a certified lower bound on w-subw(H) whenever hfn is
/// a valid edge-dominated polymatroid. Fans the GVEO evaluations across
/// `ctx`'s pool (Default() when null); the exact Rational result is
/// identical at every thread count.
Rational WidthAt(const Hypergraph& h, const SetFn<Rational>& hfn,
                 const Rational& omega, ExecContext* ctx = nullptr);

/// w-subw for clustered hypergraphs, exact (Eq. 40).
OmegaSubwResult OmegaSubwClustered(const Hypergraph& h, const Rational& omega,
                                   const OmegaSubwOptions& opts = {},
                                   ExecContext* ctx = nullptr);

/// General entry point: dispatches to the clustered form when applicable,
/// otherwise computes certified bounds. Consults the process-wide
/// WidthCache first (opts.use_width_cache).
OmegaSubwResult OmegaSubw(const Hypergraph& h, const Rational& omega,
                          const OmegaSubwOptions& opts = {},
                          ExecContext* ctx = nullptr);

/// The full clustered-form term list (h(V) is implicit): all distinct MM
/// options over all first elimination blocks, computed by fanning the
/// subset sweep across `ctx`'s pool (result independent of thread count).
/// Exposed for tests (the 4-clique must yield exactly the 10 terms of
/// Eq. 28) and for the Example-D.1 bench.
std::vector<MmExpr> ClusteredMmTerms(const Hypergraph& h,
                                     ExecContext* ctx = nullptr);

}  // namespace fmmsw

#endif  // FMMSW_WIDTH_OMEGA_SUBW_H_
