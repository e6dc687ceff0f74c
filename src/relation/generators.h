#ifndef FMMSW_RELATION_GENERATORS_H_
#define FMMSW_RELATION_GENERATORS_H_

/// \file
/// Synthetic workload generators: the paper evaluates no concrete
/// datasets, so the benchmark harness drives the
/// engine with instances spanning the degree regimes the theory
/// distinguishes — uniform sparse (light everywhere: combinatorial plans
/// win), dense small-domain (heavy everywhere: MM wins), and Zipf-skewed
/// (mixed: partitioning pays off).

#include <cstdint>

#include "hypergraph/hypergraph.h"
#include "relation/relation.h"
#include "util/random.h"

namespace fmmsw {

/// Uniform random relation over `schema` with ~`tuples` rows drawn from
/// [0, domain) per column (deduplicated).
Relation UniformRelation(VarSet schema, int64_t tuples, int64_t domain,
                         Rng* rng);

/// Zipf-skewed relation: first column Zipf(alpha), rest uniform.
Relation ZipfRelation(VarSet schema, int64_t tuples, int64_t domain,
                      double alpha, Rng* rng);

/// Dense relation: all tuples over [0, domain)^arity, then kept with
/// probability `density`. Small domains make every value heavy.
Relation DenseRelation(VarSet schema, int64_t domain, double density,
                       Rng* rng);

enum class WorkloadKind {
  kUniform,   ///< light everywhere
  kZipf,      ///< skewed degrees (heavy/light mix)
  kDense,     ///< heavy everywhere (the MM-friendly regime)
};

struct WorkloadOptions {
  WorkloadKind kind = WorkloadKind::kUniform;
  int64_t tuples_per_relation = 1000;
  /// Domain per variable; for kDense this is the whole story
  /// (tuples ~ domain^arity * density).
  int64_t domain = 1000;
  double zipf_alpha = 1.2;
  double dense_density = 0.5;
  uint64_t seed = 42;
  /// Insert one satisfying assignment so Boolean answers are positive.
  bool plant_witness = false;
};

/// One relation per hyperedge of `h`.
QueryInput MakeWorkload(const Hypergraph& h, const WorkloadOptions& opts);

/// Brute-force evaluation of the Boolean query by joining all relations
/// (exponential; ground truth for tests on small instances).
bool BruteForceBoolean(const Hypergraph& h, const QueryInput& db);

}  // namespace fmmsw

#endif  // FMMSW_RELATION_GENERATORS_H_
