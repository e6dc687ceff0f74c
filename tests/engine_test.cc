// Engine correctness tests: every evaluation strategy (WCOJ, TD plans, the
// GVEO interpreter with and without MM steps, and the specialized
// triangle / 4-cycle / clique / pyramid algorithms) must agree with brute
// force on randomized instances across workload regimes.

#include "core/api.h"
#include "engine/clique.h"
#include "engine/elimination.h"
#include "engine/four_cycle.h"
#include "engine/pyramid.h"
#include "engine/td_eval.h"
#include "engine/triangle.h"
#include "engine/wcoj.h"
#include "gtest/gtest.h"
#include "relation/generators.h"
#include "relation/ops.h"

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

TEST(EliminationTest, StrassenKernelMatchesBoolean) {
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
  EliminationOptions bool_opts, strassen_opts;
  strassen_opts.kernel = MmKernel::kStrassen;
  EXPECT_EQ(ExecutePlan(h, db, plan, bool_opts),
            ExecutePlan(h, db, plan, strassen_opts));
}

// ---------------------------------------------------------- triangle ----

class TriangleRegimeTest
    : public ::testing::TestWithParam<std::tuple<WorkloadKind, int>> {};

TEST_P(TriangleRegimeTest, AllAlgorithmsAgree) {
  auto [kind, seed] = GetParam();
  WorkloadOptions opts;
  opts.kind = kind;
  opts.tuples_per_relation = 80;
  opts.domain = kind == WorkloadKind::kDense ? 12 : 20;
  opts.seed = static_cast<uint64_t>(seed);
  opts.plant_witness = (seed % 2 == 0);
  Hypergraph h = Hypergraph::Triangle();
  QueryInput db = MakeWorkload(h, opts);
  const bool expect = BruteForceBoolean(h, db);
  EXPECT_EQ(WcojBoolean(h, db), expect);
  EXPECT_EQ(TriangleMm(db, 2.0), expect);
  EXPECT_EQ(TriangleMm(db, 2.371552), expect);
  EXPECT_EQ(TriangleMm(db, 2.8073549, MmKernel::kStrassen), expect);
  EXPECT_EQ(TriangleMm(db, 2.8073549, MmKernel::kBitSliced), expect);
  EXPECT_EQ(TriangleMm(db, 3.0), expect);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, TriangleRegimeTest,
    ::testing::Combine(::testing::Values(WorkloadKind::kUniform,
                                         WorkloadKind::kZipf,
                                         WorkloadKind::kDense),
                       ::testing::Range(0, 6)));

TEST(TriangleTest, CountMatchesWcojCount) {
  WorkloadOptions opts;
  opts.tuples_per_relation = 120;
  opts.domain = 15;
  opts.seed = 5;
  Hypergraph h = Hypergraph::Triangle();
  QueryInput db = MakeWorkload(h, opts);
  EXPECT_EQ(TriangleCountMm(db, MmKernel::kNaive), WcojCount(h, db));
  EXPECT_EQ(TriangleCountMm(db, MmKernel::kStrassen), WcojCount(h, db));
  EXPECT_EQ(TriangleCountMm(db, MmKernel::kBitSliced), WcojCount(h, db));
}

TEST(TriangleTest, HeavyPartSizeBound) {
  // |heavy| <= N / Delta for each partitioned relation (Section 2.5).
  WorkloadOptions opts;
  opts.kind = WorkloadKind::kZipf;
  opts.tuples_per_relation = 2000;
  opts.domain = 300;
  opts.seed = 11;
  QueryInput db = MakeWorkload(Hypergraph::Triangle(), opts);
  TriangleStats stats;
  TriangleMm(db, 2.371552, MmKernel::kBoolean, &stats);
  const double n = static_cast<double>(db.TotalSize());
  const double delta = std::pow(n, (2.371552 - 1) / (2.371552 + 1));
  EXPECT_LE(stats.heavy_x, static_cast<int64_t>(n / delta) + 1);
  EXPECT_LE(stats.heavy_y, static_cast<int64_t>(n / delta) + 1);
  EXPECT_LE(stats.heavy_z, static_cast<int64_t>(n / delta) + 1);
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
  EXPECT_EQ(FourCycleMm(db, 2.8073549, MmKernel::kStrassen), expect)
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
    EXPECT_EQ(CliqueMm(k, db, MmKernel::kStrassen), expect)
        << "k=" << k << " seed=" << seed;
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
  EXPECT_EQ(EvaluateBoolean(h, db, EvalStrategy::kWcoj), expect);
  EXPECT_EQ(EvaluateBoolean(h, db, EvalStrategy::kBestTd), expect);
  EXPECT_EQ(EvaluateBoolean(h, db, EvalStrategy::kElimination), expect);
}

}  // namespace
}  // namespace fmmsw
