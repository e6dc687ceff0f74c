// Engine correctness tests: every evaluation strategy (WCOJ, TD plans, the
// GVEO interpreter with and without MM steps, and the specialized
// triangle / 4-cycle / clique / pyramid algorithms) must agree with brute
// force on randomized instances across workload regimes.

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <string>

#include "core/api.h"
#include "core/exec_context.h"
#include "engine/clique.h"
#include "engine/elimination.h"
#include "engine/four_cycle.h"
#include "engine/pyramid.h"
#include "engine/td_eval.h"
#include "engine/triangle.h"
#include "engine/wcoj.h"
#include "gtest/gtest.h"
#include "hypergraph/decomposition.h"
#include "relation/degree.h"
#include "relation/generators.h"
#include "relation/ops.h"
#include "width/emm.h"

namespace fmmsw {
namespace {

Relation MakeRel(VarSet schema, std::vector<std::vector<Value>> rows) {
  Relation r(schema);
  for (const auto& row : rows) r.Add(row);
  return r;
}

QueryInput TriangleDb(std::vector<std::vector<Value>> r,
                    std::vector<std::vector<Value>> s,
                    std::vector<std::vector<Value>> t) {
  QueryInput db;
  db.relations.push_back(MakeRel(VarSet{0, 1}, std::move(r)));
  db.relations.push_back(MakeRel(VarSet{1, 2}, std::move(s)));
  db.relations.push_back(MakeRel(VarSet{0, 2}, std::move(t)));
  return db;
}

// ------------------------------------------------------------------ WCOJ --

TEST(WcojTest, TriangleHandChecked) {
  // Triangle (1, 10, 100) present.
  QueryInput db = TriangleDb({{1, 10}, {2, 20}}, {{10, 100}, {20, 300}},
                           {{1, 100}, {2, 200}});
  EXPECT_TRUE(WcojBoolean(Hypergraph::Triangle(), db));
  // Remove T(1,100): no triangle.
  db.relations.Set(2, MakeRel(VarSet{0, 2}, {{2, 200}}));
  EXPECT_FALSE(WcojBoolean(Hypergraph::Triangle(), db));
}

TEST(WcojTest, CountMatchesJoinSize) {
  Rng rng(21);
  WorkloadOptions opts;
  opts.tuples_per_relation = 60;
  opts.domain = 10;
  Hypergraph h = Hypergraph::Triangle();
  QueryInput db = MakeWorkload(h, opts);
  Relation full = WcojJoin(h, db, VarSet::Full(3));
  EXPECT_EQ(WcojCount(h, db), static_cast<int64_t>(full.size()));
}

TEST(WcojTest, AgreesWithBruteForceAcrossQueries) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    for (const Hypergraph& h :
         {Hypergraph::Triangle(), Hypergraph::Cycle(4),
          Hypergraph::Pyramid(3), Hypergraph::DoubleTriangle()}) {
      WorkloadOptions opts;
      opts.tuples_per_relation = 40;
      opts.domain = 8;
      opts.seed = seed;
      QueryInput db = MakeWorkload(h, opts);
      EXPECT_EQ(WcojBoolean(h, db), BruteForceBoolean(h, db))
          << h.ToString() << " seed=" << seed;
    }
  }
}

// --------------------------------------------------------------- TD eval --

TEST(TdEvalTest, AgreesWithWcoj) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    for (const Hypergraph& h :
         {Hypergraph::Triangle(), Hypergraph::Cycle(4), Hypergraph::Cycle(5),
          Hypergraph::DoubleTriangle()}) {
      WorkloadOptions opts;
      opts.tuples_per_relation = 50;
      opts.domain = 9;
      opts.seed = seed + 100;
      QueryInput db = MakeWorkload(h, opts);
      EXPECT_EQ(TdBooleanBest(h, db), WcojBoolean(h, db))
          << h.ToString() << " seed=" << seed;
    }
  }
}

TEST(TdEvalTest, PositiveOnPlantedWitness) {
  WorkloadOptions opts;
  opts.tuples_per_relation = 30;
  opts.domain = 500;
  opts.plant_witness = true;
  Hypergraph h = Hypergraph::Cycle(4);
  QueryInput db = MakeWorkload(h, opts);
  EXPECT_TRUE(TdBooleanBest(h, db));
}

// --------------------------------------------------- elimination interp. --

TEST(EliminationTest, ForLoopPlanMatchesWcoj) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    for (const Hypergraph& h :
         {Hypergraph::Triangle(), Hypergraph::Cycle(4),
          Hypergraph::Pyramid(3)}) {
      WorkloadOptions opts;
      opts.tuples_per_relation = 40;
      opts.domain = 8;
      opts.seed = seed + 7;
      QueryInput db = MakeWorkload(h, opts);
      EliminationPlan plan = ForLoopPlan(h);
      EXPECT_EQ(ExecutePlan(h, db, plan), WcojBoolean(h, db))
          << h.ToString() << " seed=" << seed;
    }
  }
}

TEST(EliminationTest, MmStepMatchesForLoopOnTriangle) {
  // Plan: eliminate Y by MM(X;Z;Y), then X, Z by for-loops.
  for (uint64_t seed = 0; seed < 8; ++seed) {
    WorkloadOptions opts;
    opts.tuples_per_relation = 50;
    opts.domain = 9;
    opts.seed = seed + 31;
    Hypergraph h = Hypergraph::Triangle();
    QueryInput db = MakeWorkload(h, opts);
    EliminationPlan plan;
    PlanStep mm_step;
    mm_step.block = VarSet{1};
    mm_step.method = StepMethod::kMm;
    mm_step.mm = MmExpr{VarSet{0}, VarSet{2}, VarSet{1}, VarSet::Empty()};
    plan.steps.push_back(mm_step);
    PlanStep s2;
    s2.block = VarSet{0};
    s2.method = StepMethod::kForLoop;
    plan.steps.push_back(s2);
    PlanStep s3;
    s3.block = VarSet{2};
    s3.method = StepMethod::kForLoop;
    plan.steps.push_back(s3);
    EliminationStats stats;
    EXPECT_EQ(ExecutePlan(h, db, plan, {}, &stats), WcojBoolean(h, db))
        << "seed=" << seed;
    EXPECT_EQ(stats.mm_steps, 1);
  }
}

TEST(EliminationTest, MmWithGroupByOnFourClique) {
  // Eliminate X0 from the 4-clique by MM(X1; X2; X0 | X3) — a group-by MM
  // option from Example 4.6 — then finish with for-loops.
  for (uint64_t seed = 0; seed < 6; ++seed) {
    WorkloadOptions opts;
    opts.tuples_per_relation = 40;
    opts.domain = 6;
    opts.seed = seed + 53;
    Hypergraph h = Hypergraph::Clique(4);
    QueryInput db = MakeWorkload(h, opts);
    EliminationPlan plan;
    PlanStep mm_step;
    mm_step.block = VarSet{0};
    mm_step.method = StepMethod::kMm;
    mm_step.mm = MmExpr{VarSet{1}, VarSet{2}, VarSet{0}, VarSet{3}};
    plan.steps.push_back(mm_step);
    for (int v : {1, 2, 3}) {
      PlanStep s;
      s.block = VarSet::Singleton(v);
      s.method = StepMethod::kForLoop;
      plan.steps.push_back(s);
    }
    EXPECT_EQ(ExecutePlan(h, db, plan), WcojBoolean(h, db))
        << "seed=" << seed;
  }
}

TEST(EliminationTest, BitSlicedKernelMatchesBoolean) {
  WorkloadOptions opts;
  opts.tuples_per_relation = 60;
  opts.domain = 10;
  opts.seed = 77;
  Hypergraph h = Hypergraph::Triangle();
  QueryInput db = MakeWorkload(h, opts);
  EliminationPlan plan;
  PlanStep mm_step;
  mm_step.block = VarSet{1};
  mm_step.method = StepMethod::kMm;
  mm_step.mm = MmExpr{VarSet{0}, VarSet{2}, VarSet{1}, VarSet::Empty()};
  plan.steps.push_back(mm_step);
  PlanStep s2;
  s2.block = VarSet{0, 2};
  s2.method = StepMethod::kForLoop;
  plan.steps.push_back(s2);
  EliminationOptions bool_opts, bitsliced_opts;
  bitsliced_opts.kernel = MmKernel::kBitSliced;
  EXPECT_EQ(ExecutePlan(h, db, plan, bool_opts),
            ExecutePlan(h, db, plan, bitsliced_opts));
}

// Every generalized elimination order of every query class, on planted
// and unplanted instances: all-for-loop blocks, then each MM option of the
// first block as a kMm step with for-loops after it; plus the TD plan
// along every canonical tree decomposition. Brute force is the oracle.
TEST(EliminationTest, EveryOrderAndTdMatchesBruteForce) {
  Hypergraph path(4), star(4);
  for (VarSet e : {VarSet{0, 1}, VarSet{1, 2}, VarSet{2, 3}}) path.AddEdge(e);
  for (VarSet e : {VarSet{0, 1}, VarSet{0, 2}, VarSet{0, 3}}) star.AddEdge(e);
  const Hypergraph queries[] = {
      Hypergraph::Triangle(),       Hypergraph::Cycle(4),
      Hypergraph::Cycle(5),         Hypergraph::Pyramid(3),
      Hypergraph::Clique(4),        Hypergraph::DoubleTriangle(),
      Hypergraph::LemmaC15(),       path,
      star};
  for (const Hypergraph& h : queries) {
    // Dense unplanted, sparse unplanted and sparse planted instances; the
    // three together must give both answers.
    bool answers[2] = {false, false};
    for (int regime = 0; regime < 3; ++regime) {
      WorkloadOptions opts;
      opts.tuples_per_relation = regime == 0 ? 12 : 6;
      opts.domain = regime == 0 ? 4 : 200;
      opts.plant_witness = regime == 2;
      opts.seed = 200 + regime;
      const QueryInput db = MakeWorkload(h, opts);
      const bool expect = BruteForceBoolean(h, db);
      answers[expect] = true;
      const std::string where = h.ToString() + " regime=" +
                                std::to_string(regime);
      for (const Gveo& gveo : AllGveos(h)) {
        EliminationPlan plan;
        for (VarSet block : gveo.blocks) {
          PlanStep step;
          step.block = block;
          plan.steps.push_back(step);
        }
        EXPECT_EQ(ExecutePlan(h, db, plan), expect) << where;
        for (const MmExpr& mm : EnumerateMmOptions(h, gveo.blocks[0])) {
          plan.steps[0].method = StepMethod::kMm;
          plan.steps[0].mm = mm;
          EXPECT_EQ(ExecutePlan(h, db, plan), expect)
              << where << " mm=" << mm.ToString(&h.names());
        }
      }
      for (const TreeDecomposition& td : EnumerateTds(h)) {
        EXPECT_EQ(TdBoolean(h, db, td), expect) << where;
      }
    }
    EXPECT_TRUE(answers[0] && answers[1]) << h.ToString();
  }
}

// ---------------------------------------------------------- triangle ----

// Nested-loop oracle for the Boolean triangle query over the canonical
// layout [R(X,Y), S(Y,Z), T(X,Z)].
bool NestedLoopTriangle(const QueryInput& db) {
  const Relation& r = db.relations[0];
  const Relation& s = db.relations[1];
  const Relation& t = db.relations[2];
  for (size_t i = 0; i < r.size(); ++i) {
    for (size_t j = 0; j < s.size(); ++j) {
      if (r.Get(i, 1) != s.Get(j, 1)) continue;
      for (size_t k = 0; k < t.size(); ++k) {
        if (t.Get(k, 0) == r.Get(i, 0) && t.Get(k, 2) == s.Get(j, 2)) {
          return true;
        }
      }
    }
  }
  return false;
}

// `rel` with every value replaced by map(value), deduplicated.
template <typename Map>
Relation MapValues(const Relation& rel, const Map& map) {
  Relation out(rel.schema());
  std::vector<Value> row(rel.arity());
  for (size_t i = 0; i < rel.size(); ++i) {
    for (int c = 0; c < rel.arity(); ++c) row[c] = map(c, rel.Row(i)[c]);
    out.Add(row);
  }
  out.SortAndDedupe();
  return out;
}

// Triangle-free copy of a generated triangle instance: of the two
// relations holding `var`, the first keeps even values and the second odd
// ones (for Z, S even and T odd), so the corner partitioned on `var` has
// no candidate pair.
QueryInput ParitySplit(QueryInput db, int var = 2) {
  int parity = 0;
  for (size_t e = 0; e < 3; ++e) {
    const Relation& rel = db.relations[e];
    if (!rel.schema().Contains(var)) continue;
    const int col = rel.ColumnOf(var);
    db.relations.Set(e, MapValues(rel, [&](int c, Value v) {
                       return c == col ? 2 * v + parity : v;
                     }));
    ++parity;
  }
  return db;
}

// Triangle-free copy on which no corner is empty: T loses every (x, z)
// that some R(x, y), S(y, z) reaches.
QueryInput WithoutClosingEdges(QueryInput db) {
  Relation wedges = Project(Join(db.relations[0], db.relations[1]),
                            VarSet{0, 2});
  wedges.SortAndDedupe();
  const Relation& t = db.relations[2];
  Relation open(t.schema());
  for (size_t i = 0; i < t.size(); ++i) {
    if (!wedges.Contains({t.Row(i)[0], t.Row(i)[1]})) open.AddRow(t.Row(i));
  }
  db.relations.Set(2, std::move(open));
  return db;
}

enum class TriangleFamily {
  kUniform,
  kZipf,
  kDense,
  kHeavyHitter,
  kEmptyRelation,
  kSingleValue,
  kExtremeValues,
  kDenseCore,
};

constexpr TriangleFamily kTriangleFamilies[] = {
    TriangleFamily::kUniform,       TriangleFamily::kZipf,
    TriangleFamily::kDense,         TriangleFamily::kHeavyHitter,
    TriangleFamily::kEmptyRelation, TriangleFamily::kSingleValue,
    TriangleFamily::kExtremeValues, TriangleFamily::kDenseCore};

// One small generated triangle instance; the same (family, seed) gives the
// same instance. Even seeds plant a witness; seeds 1 mod 4 start from a
// triangle-free parity split on Z, whose empty Z corner can then answer
// alone.
QueryInput TriangleInstance(TriangleFamily family, uint64_t seed) {
  WorkloadOptions opts;
  opts.kind = family == TriangleFamily::kZipf    ? WorkloadKind::kZipf
              : family == TriangleFamily::kDense ? WorkloadKind::kDense
                                                 : WorkloadKind::kUniform;
  opts.tuples_per_relation = 15 + static_cast<int64_t>(seed % 5) * 15;
  opts.domain = family == TriangleFamily::kDense
                    ? 3 + static_cast<int64_t>(seed % 6)
                    : 5 + static_cast<int64_t>(seed % 4) * 7;
  opts.dense_density = 0.2 + 0.15 * static_cast<double>(seed % 4);
  opts.seed = 1000 + seed;
  opts.plant_witness = seed % 2 == 0;
  QueryInput db = MakeWorkload(Hypergraph::Triangle(), opts);
  if (seed % 4 == 1) db = ParitySplit(std::move(db));
  const int var = static_cast<int>(seed % 3);  // the family's chosen X/Y/Z
  switch (family) {
    case TriangleFamily::kUniform:
    case TriangleFamily::kZipf:
    case TriangleFamily::kDense:
      break;
    case TriangleFamily::kHeavyHitter: {
      // Value 0 of `var` meets every value of the next variable in the
      // relation the split partitions on `var`: R on X, S on Y, T on Z.
      const size_t rel = static_cast<size_t>(var);
      Relation hub = db.relations[rel];
      const int other = (var + 1) % 3;
      for (Value v = 0; v < static_cast<Value>(opts.domain); ++v) {
        std::vector<Value> row(2);
        row[hub.ColumnOf(var)] = 0;
        row[hub.ColumnOf(other)] = v;
        hub.Add(row);
      }
      hub.SortAndDedupe();
      db.relations.Set(rel, std::move(hub));
      break;
    }
    case TriangleFamily::kEmptyRelation: {
      const size_t rel = static_cast<size_t>(var);
      db.relations.Set(rel, Relation(db.relations[rel].schema()));
      break;
    }
    case TriangleFamily::kSingleValue:
      // Every occurrence of `var` takes one value.
      for (size_t e = 0; e < 3; ++e) {
        const Relation& rel = db.relations[e];
        if (!rel.schema().Contains(var)) continue;
        const int col = rel.ColumnOf(var);
        db.relations.Set(e, MapValues(rel, [&](int c, Value v) {
                           return c == col ? Value{7} : v;
                         }));
      }
      break;
    case TriangleFamily::kExtremeValues: {
      // An injective map of small values onto both ends of Value's range.
      const Value lo = std::numeric_limits<Value>::min();
      const Value hi = std::numeric_limits<Value>::max();
      for (size_t e = 0; e < 3; ++e) {
        db.relations.Set(e, MapValues(db.relations[e], [&](int, Value v) {
                           return v % 2 == 0 ? static_cast<Value>(lo + v / 2)
                                             : static_cast<Value>(hi - v / 2);
                         }));
      }
      break;
    }
    case TriangleFamily::kDenseCore:
      // A complete block on the negative values -12..-1 of every variable,
      // beside the sparse draws (so every instance is positive): the
      // block's values are heavy on every side and cost each corner 12^3
      // pairs, so where the product is priced low a split that sends them
      // to the core and keeps the sparse values light beats every solo
      // corner.
      for (size_t e = 0; e < 3; ++e) {
        Relation rel = db.relations[e];
        for (Value a = -12; a < 0; ++a) {
          for (Value b = -12; b < 0; ++b) rel.Add({a, b});
        }
        rel.SortAndDedupe();
        db.relations.Set(e, std::move(rel));
      }
      break;
  }
  return db;
}

// The chooser's invariants on one run: the chosen split is predicted no
// dearer than the worst-case one, its core fits Figure 1's worst-case
// operand cells, and each side has at most N / Delta heavy values.
void ExpectSplitInvariants(const QueryInput& db, double omega,
                           const TriangleStats& st) {
  const double n = static_cast<double>(db.TotalSize());
  EXPECT_EQ(st.delta_worst_case,
            std::max<int64_t>(1, static_cast<int64_t>(std::ceil(std::pow(
                                     n, (omega - 1.0) / (omega + 1.0))))));
  EXPECT_GE(st.delta, 0);
  EXPECT_LE(static_cast<double>(st.predicted_light_pairs) + st.predicted_mm_ops,
            st.predicted_ops_worst_case);
  // A split with an empty heavy side builds no core: it runs the solo
  // corner on that side, with nothing priced for MM.
  const int64_t heavy[3] = {st.heavy_x, st.heavy_y, st.heavy_z};
  const bool core = heavy[0] > 0 && heavy[1] > 0 && heavy[2] > 0;
  EXPECT_EQ(st.solo_corner < 0, core);
  if (st.solo_corner >= 0) {
    ASSERT_LT(st.solo_corner, 3);
    EXPECT_EQ(heavy[st.solo_corner], 0);
    EXPECT_EQ(st.predicted_mm_ops, 0);
  }
  const double worst_side = n / static_cast<double>(st.delta_worst_case);
  if (core) {
    EXPECT_LE(
        static_cast<double>(st.heavy_x) * static_cast<double>(st.heavy_y) +
            static_cast<double>(st.heavy_y) * static_cast<double>(st.heavy_z),
        2.0 * worst_side * worst_side);
  }
  const int64_t heavy_cap =
      static_cast<int64_t>(n / static_cast<double>(std::max<int64_t>(
                                   st.delta, 1))) +
      1;
  EXPECT_LE(st.heavy_x, heavy_cap);
  EXPECT_LE(st.heavy_y, heavy_cap);
  EXPECT_LE(st.heavy_z, heavy_cap);
}

// Generated differential test: on every family, WCOJ and TriangleMm under
// every kernel and omega (which moves both Delta0 and the MM price, so the
// chosen split) agree with the nested-loop oracle.
TEST(TriangleDifferentialTest, EveryKernelAndOmegaMatchesNestedLoops) {
  const double omegas[] = {1.0, 2.371552, std::log2(7.0), 3.0};
  const MmKernel kernels[] = {MmKernel::kBoolean, MmKernel::kBitSliced};
  int instances = 0, positives = 0;
  // Runs whose split left both light corners and a heavy core, runs that
  // one corner answered alone, and runs whose threshold moved off Delta0.
  int mixed = 0, solo = 0, moved = 0;
  for (TriangleFamily family : kTriangleFamilies) {
    for (uint64_t seed = 0; seed < 30; ++seed) {
      const QueryInput db = TriangleInstance(family, seed);
      const bool expect = NestedLoopTriangle(db);
      EXPECT_EQ(WcojBoolean(Hypergraph::Triangle(), db), expect);
      ++instances;
      positives += expect ? 1 : 0;
      for (MmKernel kernel : kernels) {
        for (double omega : omegas) {
          SCOPED_TRACE("family=" + std::to_string(static_cast<int>(family)) +
                       " seed=" + std::to_string(seed) + " kernel=" +
                       std::to_string(static_cast<int>(kernel)) +
                       " omega=" + std::to_string(omega));
          TriangleStats st;
          ASSERT_EQ(TriangleMm(db, omega, kernel, &st), expect);
          ExpectSplitInvariants(db, omega, st);
          mixed += st.predicted_light_pairs > 0 && st.heavy_x > 0 &&
                   st.heavy_y > 0 && st.heavy_z > 0;
          solo += st.solo_corner >= 0;
          moved += st.delta != st.delta_worst_case;
        }
      }
    }
  }
  EXPECT_GE(instances, 200);
  EXPECT_GT(positives, 0);
  EXPECT_LT(positives, instances);
  EXPECT_GT(mixed, 0);
  EXPECT_GT(solo, 0);
  EXPECT_GT(moved, 0);
}

// The light term of the prediction is the fused joins' probe count: on a
// triangle-free input every candidate pair is probed, so the two agree
// exactly. A parity split empties the Z corner, which then answers alone
// with no pairs; removing T's closing edges leaves every corner pairs.
TEST(TriangleTest, PredictedLightPairsEqualFusedProbes) {
  std::vector<std::pair<std::string, QueryInput>> instances;
  for (WorkloadKind kind :
       {WorkloadKind::kUniform, WorkloadKind::kZipf, WorkloadKind::kDense}) {
    for (int size : {1, 3}) {
      WorkloadOptions opts;
      opts.kind = kind;
      opts.tuples_per_relation = 400 * size;
      opts.domain = kind == WorkloadKind::kDense ? 12 * size : 60 * size;
      opts.seed = static_cast<uint64_t>(40 + size);
      const QueryInput base = MakeWorkload(Hypergraph::Triangle(), opts);
      const std::string name = "kind=" +
                               std::to_string(static_cast<int>(kind)) +
                               " size=" + std::to_string(size);
      instances.emplace_back(name + " parity", ParitySplit(base));
      instances.emplace_back(name + " open", WithoutClosingEdges(base));
    }
  }
  int64_t probed_total = 0;
  for (const auto& [name, db] : instances) {
    for (MmKernel kernel : {MmKernel::kBoolean, MmKernel::kBitSliced}) {
      for (double omega : {2.371552, 3.0}) {
        SCOPED_TRACE(name + " omega=" + std::to_string(omega));
        ExecContext ec(1);
        TriangleStats st;
        EXPECT_FALSE(TriangleMm(db, omega, kernel, &st, &ec));
        EXPECT_EQ(ec.stats().fused_probe_tuples.load(),
                  st.predicted_light_pairs);
        probed_total += st.predicted_light_pairs;
      }
    }
  }
  EXPECT_GT(probed_total, 0);
}

// Every value has degree 4 on both sides of every corner. At omega = 1
// the core is priced near free, so Delta0 = 1 and Delta = 0 (both all
// heavy: 600 rows of fill, predicted alike) beat Delta = 4 (all light,
// where one corner alone probes 50 * 4 * 4 = 800 pairs); the tie goes to
// the larger threshold.
TEST(TriangleTest, ThresholdTiesGoToTheLargerDelta) {
  constexpr Value kN = 50;
  Relation r(VarSet{0, 1}), s(VarSet{1, 2}), t(VarSet{0, 2});
  for (Value v = 0; v < kN; ++v) {
    for (Value j = 0; j < 4; ++j) {
      r.Add({v, (v + j) % kN});
      s.Add({v, (v + j) % kN});
      t.Add({(v + j) % kN, v});
    }
  }
  QueryInput db;
  for (Relation* rel : {&r, &s, &t}) {
    rel->SortAndDedupe();
    db.relations.push_back(std::move(*rel));
  }
  TriangleStats st;
  EXPECT_EQ(TriangleMm(db, 1.0, MmKernel::kBitSliced, &st),
            NestedLoopTriangle(db));
  EXPECT_EQ(st.delta_worst_case, 1);
  EXPECT_EQ(st.delta, 1);
  EXPECT_EQ(st.heavy_x, kN);
  EXPECT_EQ(st.predicted_light_pairs, 0);
}

// The split depends on the input only: answers and every statistic agree
// at 1, 2 and 4 workers.
TEST(TriangleTest, SplitIsIdenticalAcrossThreadCounts) {
  for (TriangleFamily family : kTriangleFamilies) {
    const QueryInput db = TriangleInstance(family, 3);
    for (MmKernel kernel : {MmKernel::kBoolean, MmKernel::kBitSliced}) {
      TriangleStats ref;
      ExecContext ref_ec(1);
      const bool ref_answer = TriangleMm(db, 2.371552, kernel, &ref, &ref_ec);
      for (int threads : {2, 4}) {
        ExecContext ec(threads);
        TriangleStats st;
        EXPECT_EQ(TriangleMm(db, 2.371552, kernel, &st, &ec), ref_answer);
        EXPECT_EQ(st.delta, ref.delta);
        EXPECT_EQ(st.predicted_light_pairs, ref.predicted_light_pairs);
        EXPECT_EQ(st.predicted_mm_ops, ref.predicted_mm_ops);
        EXPECT_EQ(st.heavy_x, ref.heavy_x);
        EXPECT_EQ(st.heavy_y, ref.heavy_y);
        EXPECT_EQ(st.heavy_z, ref.heavy_z);
      }
    }
  }
}

// Each corner's candidate pairs, sum over v of deg_part(v) * deg_probe(v):
// R on X probed by T, S on Y probed by R, T on Z probed by S. Corner i's
// probe relation has index (i + 2) % 3, and that is also its other
// variable.
std::array<int64_t, 3> CornerPairs(const QueryInput& db) {
  std::array<int64_t, 3> pairs{};
  for (int i = 0; i < 3; ++i) {
    const int probe = (i + 2) % 3;
    std::map<Value, int64_t> probe_degree;
    for (const ValueDegree& vd :
         DegreeProfile(db.relations[probe], VarSet{probe}, i)) {
      probe_degree[vd.value] = vd.degree;
    }
    for (const ValueDegree& vd :
         DegreeProfile(db.relations[i], VarSet{(i + 1) % 3}, i)) {
      pairs[i] += vd.degree * probe_degree[vd.value];
    }
  }
  return pairs;
}

// A side with no heavy value answers alone: the split runs that corner
// as one fused join on the unpartitioned relations, partitions nothing,
// and picks the same plan at every worker count. A parity split on a side
// leaves its corner without pairs; on the planted instance the corner
// with the fewest pairs answers.
TEST(TriangleTest, SoloCornerRunsOneFusedJoin) {
  WorkloadOptions opts;
  opts.tuples_per_relation = 3000;
  opts.domain = 3000;
  opts.seed = 7;
  const QueryInput base = MakeWorkload(Hypergraph::Triangle(), opts);
  opts.plant_witness = true;
  const QueryInput planted = MakeWorkload(Hypergraph::Triangle(), opts);
  const std::array<int64_t, 3> planted_pairs = CornerPairs(planted);
  const struct {
    QueryInput db;
    int side;
  } cases[] = {{ParitySplit(base, 0), 0},
               {ParitySplit(base, 1), 1},
               {ParitySplit(base, 2), 2},
               {planted, static_cast<int>(std::min_element(
                             planted_pairs.begin(), planted_pairs.end()) -
                                         planted_pairs.begin())}};
  for (const auto& c : cases) {
    SCOPED_TRACE("side=" + std::to_string(c.side));
    const bool expect = NestedLoopTriangle(c.db);
    TriangleStats ref;
    for (int threads : {1, 2, 4}) {
      ExecContext ec(threads);
      TriangleStats st;
      EXPECT_EQ(TriangleMm(c.db, 2.371552, MmKernel::kBoolean, &st, &ec),
                expect);
      EXPECT_EQ(st.solo_corner, c.side);
      EXPECT_EQ(st.predicted_light_pairs, CornerPairs(c.db)[c.side]);
      EXPECT_EQ(ec.stats().fused_joins.load(), 1);
      EXPECT_EQ(ec.stats().partition_calls.load(), 0);
      EXPECT_EQ(ec.stats().mm_products.load(), 0);
      EXPECT_EQ(st.answer_from_light, expect);
      if (threads == 1) {
        ref = st;
        continue;
      }
      EXPECT_EQ(st.delta, ref.delta);
      EXPECT_EQ(st.predicted_light_pairs, ref.predicted_light_pairs);
      EXPECT_EQ(st.predicted_ops_worst_case, ref.predicted_ops_worst_case);
      EXPECT_EQ(st.heavy_x, ref.heavy_x);
      EXPECT_EQ(st.heavy_y, ref.heavy_y);
      EXPECT_EQ(st.heavy_z, ref.heavy_z);
      EXPECT_EQ(st.light_join_tuples, ref.light_join_tuples);
    }
  }
}

TEST(TriangleTest, CountMatchesWcojCount) {
  WorkloadOptions opts;
  opts.tuples_per_relation = 120;
  opts.domain = 15;
  opts.seed = 5;
  Hypergraph h = Hypergraph::Triangle();
  QueryInput db = MakeWorkload(h, opts);
  EXPECT_EQ(TriangleCountMm(db, MmKernel::kBitSliced), WcojCount(h, db));
}

TEST(TriangleTest, HeavyPartSizeBound) {
  // |heavy| <= N / Delta for each partitioned relation (Section 2.5), at
  // the threshold the split chose, whose core fits Figure 1's worst-case
  // operand cells 2 (N / Delta0)^2.
  WorkloadOptions opts;
  opts.kind = WorkloadKind::kZipf;
  opts.tuples_per_relation = 2000;
  opts.domain = 300;
  opts.seed = 11;
  QueryInput db = MakeWorkload(Hypergraph::Triangle(), opts);
  TriangleStats stats;
  TriangleMm(db, 2.371552, MmKernel::kBoolean, &stats);
  const double n = static_cast<double>(db.TotalSize());
  const double delta = static_cast<double>(std::max<int64_t>(stats.delta, 1));
  EXPECT_LE(stats.heavy_x, static_cast<int64_t>(n / delta) + 1);
  EXPECT_LE(stats.heavy_y, static_cast<int64_t>(n / delta) + 1);
  EXPECT_LE(stats.heavy_z, static_cast<int64_t>(n / delta) + 1);
  const double delta0 = static_cast<double>(stats.delta_worst_case);
  EXPECT_EQ(stats.delta_worst_case,
            static_cast<int64_t>(
                std::ceil(std::pow(n, (2.371552 - 1) / (2.371552 + 1)))));
  EXPECT_LE(stats.heavy_x * stats.heavy_y + stats.heavy_y * stats.heavy_z,
            2.0 * (n / delta0) * (n / delta0));
}

// ----------------------------------------------------------- 4-cycle ----

class FourCycleRegimeTest
    : public ::testing::TestWithParam<std::tuple<WorkloadKind, int>> {};

TEST_P(FourCycleRegimeTest, AllAlgorithmsAgree) {
  auto [kind, seed] = GetParam();
  WorkloadOptions opts;
  opts.kind = kind;
  opts.tuples_per_relation = 70;
  opts.domain = kind == WorkloadKind::kDense ? 10 : 16;
  opts.seed = static_cast<uint64_t>(seed) + 900;
  opts.plant_witness = (seed % 2 == 1);
  Hypergraph h = Hypergraph::Cycle(4);
  QueryInput db = MakeWorkload(h, opts);
  const bool expect = BruteForceBoolean(h, db);
  EXPECT_EQ(FourCycleTd(db), expect) << "seed=" << seed;
  EXPECT_EQ(FourCycleCombinatorial(db), expect) << "seed=" << seed;
  EXPECT_EQ(FourCycleMm(db, 2.0), expect) << "seed=" << seed;
  EXPECT_EQ(FourCycleMm(db, 2.371552), expect) << "seed=" << seed;
  EXPECT_EQ(FourCycleMm(db, 2.371552, MmKernel::kBitSliced), expect)
      << "seed=" << seed;
  EXPECT_EQ(FourCycleMm(db, 2.8073549, MmKernel::kBitSliced), expect)
      << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, FourCycleRegimeTest,
    ::testing::Combine(::testing::Values(WorkloadKind::kUniform,
                                         WorkloadKind::kZipf,
                                         WorkloadKind::kDense),
                       ::testing::Range(0, 6)));

// ------------------------------------------------------------ cliques ----

class CliqueRegimeTest : public ::testing::TestWithParam<int> {};

TEST_P(CliqueRegimeTest, MmAgreesWithCombinatorial) {
  const int k = GetParam();
  for (uint64_t seed = 0; seed < 5; ++seed) {
    WorkloadOptions opts;
    opts.kind = seed % 2 == 0 ? WorkloadKind::kUniform : WorkloadKind::kDense;
    opts.tuples_per_relation = 40;
    opts.domain = opts.kind == WorkloadKind::kDense ? 7 : 10;
    opts.seed = seed + 17 * k;
    opts.plant_witness = (seed == 3);
    Hypergraph h = Hypergraph::Clique(k);
    QueryInput db = MakeWorkload(h, opts);
    const bool expect = WcojBoolean(h, db);
    EXPECT_EQ(CliqueMm(k, db), expect) << "k=" << k << " seed=" << seed;
    EXPECT_EQ(CliqueMm(k, db, MmKernel::kBitSliced), expect)
        << "k=" << k << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(K, CliqueRegimeTest, ::testing::Values(3, 4, 5, 6));

TEST(CliqueTest, GroupDimensionsReported) {
  WorkloadOptions opts;
  opts.kind = WorkloadKind::kDense;
  opts.domain = 8;
  opts.seed = 3;
  QueryInput db = MakeWorkload(Hypergraph::Clique(6), opts);
  CliqueStats stats;
  CliqueMm(6, db, MmKernel::kBoolean, &stats);
  EXPECT_GT(stats.group_cliques[0], 0);
  EXPECT_GT(stats.group_cliques[1], 0);
  EXPECT_GT(stats.group_cliques[2], 0);
}

// ------------------------------------------------------------ pyramid ----

class PyramidRegimeTest
    : public ::testing::TestWithParam<std::tuple<WorkloadKind, int>> {};

TEST_P(PyramidRegimeTest, MmAgreesWithCombinatorial) {
  auto [kind, seed] = GetParam();
  WorkloadOptions opts;
  opts.kind = kind;
  opts.tuples_per_relation = 60;
  opts.domain = kind == WorkloadKind::kDense ? 8 : 12;
  opts.seed = static_cast<uint64_t>(seed) + 400;
  opts.plant_witness = (seed % 3 == 0);
  Hypergraph h = Hypergraph::Pyramid(3);
  QueryInput db = MakeWorkload(h, opts);
  const bool expect = WcojBoolean(h, db);
  EXPECT_EQ(Pyramid3Mm(db, 2.0), expect) << "seed=" << seed;
  EXPECT_EQ(Pyramid3Mm(db, 2.371552), expect) << "seed=" << seed;
  EXPECT_EQ(Pyramid3Mm(db, 3.0), expect) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, PyramidRegimeTest,
    ::testing::Combine(::testing::Values(WorkloadKind::kUniform,
                                         WorkloadKind::kZipf,
                                         WorkloadKind::kDense),
                       ::testing::Range(0, 6)));

// ----------------------------------------------------------- facade -----

TEST(ApiTest, ComputeWidthsTriangle) {
  const Rational omega(2371552, 1000000);
  auto report = ComputeWidths(Hypergraph::Triangle(), omega);
  EXPECT_EQ(report.rho_star, Rational(3, 2));
  EXPECT_EQ(report.subw, Rational(3, 2));
  EXPECT_TRUE(report.omega_subw_exact);
  EXPECT_EQ(report.omega_subw_upper,
            Rational(2) * omega / (omega + Rational(1)));
  std::string text = FormatWidthReport(Hypergraph::Triangle(), omega, report);
  EXPECT_NE(text.find("w-subw"), std::string::npos);
}

TEST(ApiTest, EvaluateStrategiesAgree) {
  WorkloadOptions opts;
  opts.tuples_per_relation = 50;
  opts.domain = 9;
  opts.seed = 12;
  Hypergraph h = Hypergraph::Cycle(4);
  QueryInput db = MakeWorkload(h, opts);
  const bool expect = BruteForceBoolean(h, db);
  EXPECT_EQ(WcojBoolean(h, db), expect);
  EXPECT_EQ(TdBooleanBest(h, db), expect);
  EXPECT_EQ(ExecutePlan(h, db, ForLoopPlan(h)), expect);
}

}  // namespace
}  // namespace fmmsw
