// Reproduction tests for the width calculators: rho*, fhtw, subw (Eq. 19)
// and w-subw (Definition 4.7) against the closed forms of Appendix C /
// Table 2 — all exact over rationals.

#include "core/api.h"
#include "core/exec_context.h"
#include "core/exec_status.h"
#include "entropy/witnesses.h"
#include "gtest/gtest.h"
#include "hypergraph/hypergraph.h"
#include "query_shapes.h"
#include "util/parallel.h"
#include "util/rational.h"
#include "width/closed_forms.h"
#include "width/cycle_dp.h"
#include "width/emm.h"
#include "width/mm_expr.h"
#include "width/omega_subw.h"
#include "width/subw.h"
#include "width/width_cache.h"

namespace fmmsw {
namespace {

namespace cf = closed_forms;

// ---------------------------------------------------------------- rho* --

TEST(RhoStarTest, KnownValues) {
  EXPECT_EQ(RhoStar(Hypergraph::Triangle()), Rational(3, 2));
  EXPECT_EQ(RhoStar(Hypergraph::Cycle(4)), Rational(2));
  EXPECT_EQ(RhoStar(Hypergraph::Cycle(5)), Rational(5, 2));
  for (int k = 3; k <= 7; ++k) {
    EXPECT_EQ(RhoStar(Hypergraph::Clique(k)), Rational(k, 2)) << k;
  }
  // Pyramid: base edge at weight 1 - 1/k plus 1/k on each {Y, X_i}.
  EXPECT_EQ(RhoStar(Hypergraph::Pyramid(3)), Rational(5, 3));
  EXPECT_EQ(RhoStar(Hypergraph::Pyramid(4)), Rational(7, 4));
}

// ---------------------------------------------------------------- fhtw --

TEST(FhtwTest, KnownValues) {
  EXPECT_EQ(Fhtw(Hypergraph::Triangle()), Rational(3, 2));
  // fhtw(C4) = 2 while subw(C4) = 3/2: the gap data partitioning closes.
  EXPECT_EQ(Fhtw(Hypergraph::Cycle(4)), Rational(2));
  EXPECT_EQ(Fhtw(Hypergraph::DoubleTriangle()), Rational(3, 2));
}

// ---------------------------------------------------------------- subw --

TEST(SubwTest, Triangle) {
  auto r = SubmodularWidth(Hypergraph::Triangle());
  EXPECT_EQ(r.value, cf::SubwTriangle());
  EXPECT_GE(r.lps_solved, 1);
}

TEST(SubwTest, FourCycleExampleA5) {
  auto r = SubmodularWidth(Hypergraph::Cycle(4));
  EXPECT_EQ(r.value, Rational(3, 2));
  EXPECT_GE(r.lps_solved, 1);
}

TEST(SubwTest, Cliques) {
  for (int k = 3; k <= 6; ++k) {
    EXPECT_EQ(SubmodularWidth(Hypergraph::Clique(k)).value,
              cf::SubwClique(k))
        << "k=" << k;
  }
}

TEST(SubwTest, Cycles) {
  for (int k = 4; k <= 6; ++k) {
    EXPECT_EQ(SubmodularWidth(Hypergraph::Cycle(k)).value, cf::SubwCycle(k))
        << "k=" << k;
  }
}

TEST(SubwTest, Pyramids) {
  EXPECT_EQ(SubmodularWidth(Hypergraph::Pyramid(3)).value, Rational(5, 3));
  EXPECT_EQ(SubmodularWidth(Hypergraph::Pyramid(4)).value, Rational(7, 4));
}

TEST(SubwTest, DoubleTriangle) {
  EXPECT_EQ(SubmodularWidth(Hypergraph::DoubleTriangle()).value,
            Rational(3, 2));
}

TEST(SubwTest, LemmaC15) {
  EXPECT_EQ(SubmodularWidth(Hypergraph::LemmaC15()).value,
            cf::SubwLemmaC15());
}

TEST(SubwTest, WorstCaseIsValidWitness) {
  auto r = SubmodularWidth(Hypergraph::Cycle(4));
  EXPECT_TRUE(IsPolymatroid(r.worst_case));
  EXPECT_TRUE(IsEdgeDominated(Hypergraph::Cycle(4), r.worst_case));
}

// ------------------------------------------------------------- MM / EMM --

TEST(MmExprTest, BranchesMatchEquation21) {
  MmExpr e{VarSet{0}, VarSet{1}, VarSet{2}, VarSet{}};
  const Rational gamma(1, 2);
  auto branches = e.Branches(gamma);
  ASSERT_EQ(branches.size(), 3u);
  // Evaluate on the cardinality polymatroid: h(S) = |S|.
  SetFn<Rational> card(VarSet::Full(3));
  for (VarSet s : Subsets(VarSet::Full(3))) card[s] = Rational(s.size());
  for (const auto& lc : branches) {
    EXPECT_EQ(EvaluateLinComb(lc, card), Rational(2) + gamma);
  }
  EXPECT_EQ(e.Evaluate(card, gamma), Rational(2) + gamma);
}

TEST(MmExprTest, GroupByConditioning) {
  // MM(X;Y;Z|G) on the cardinality polymatroid: every conditional is 1,
  // so each branch = 2 + gamma + h(G) = 3 + gamma.
  MmExpr e{VarSet{0}, VarSet{1}, VarSet{2}, VarSet{3}};
  SetFn<Rational> card(VarSet::Full(4));
  for (VarSet s : Subsets(VarSet::Full(4))) card[s] = Rational(s.size());
  EXPECT_EQ(e.Evaluate(card, Rational(1, 3)),
            Rational(3) + Rational(1, 3));
}

TEST(MmExprTest, SymmetryOfMeasure) {
  // The measure is symmetric in x, y, z (footnote 7).
  SetFn<Rational> h(VarSet::Full(3));
  h[VarSet{0}] = Rational(1, 3);
  h[VarSet{1}] = Rational(1, 2);
  h[VarSet{2}] = Rational(1);
  h[VarSet{0, 1}] = Rational(2, 3);
  h[VarSet{0, 2}] = Rational(1);
  h[VarSet{1, 2}] = Rational(5, 4);
  h[VarSet::Full(3)] = Rational(3, 2);
  const Rational gamma(2, 5);
  MmExpr a{VarSet{0}, VarSet{1}, VarSet{2}, VarSet{}};
  MmExpr b{VarSet{2}, VarSet{0}, VarSet{1}, VarSet{}};
  MmExpr c{VarSet{1}, VarSet{2}, VarSet{0}, VarSet{}};
  EXPECT_EQ(a.Evaluate(h, gamma), b.Evaluate(h, gamma));
  EXPECT_EQ(b.Evaluate(h, gamma), c.Evaluate(h, gamma));
}

TEST(EmmTest, TriangleSingleOption) {
  // Eliminating Y from the triangle: the only non-trivial option is
  // MM(X;Z;Y) (Section 2.2).
  auto options = EnumerateMmOptions(Hypergraph::Triangle(), VarSet{1});
  ASSERT_EQ(options.size(), 1u);
  EXPECT_EQ(options[0].z, VarSet{1});
  EXPECT_EQ(options[0].x | options[0].y, VarSet({0, 2}));
  EXPECT_TRUE(options[0].g.empty());
}

TEST(EmmTest, FourCliqueSixOptionsExample46) {
  // Example 4.6: eliminating X from the 4-clique yields exactly 6 options:
  // MM(YZ;W;X), MM(YW;Z;X), MM(ZW;Y;X), MM(Y;Z;X|W), MM(Y;W;X|Z),
  // MM(Z;W;X|Y).
  auto options = EnumerateMmOptions(Hypergraph::Clique(4), VarSet{0});
  EXPECT_EQ(options.size(), 6u);
  int with_groupby = 0;
  for (const auto& o : options) {
    EXPECT_EQ(o.z, VarSet{0});
    if (!o.g.empty()) ++with_groupby;
  }
  EXPECT_EQ(with_groupby, 3);
}

TEST(EmmTest, DoubleTriangleEliminatingYHasCombinedOption) {
  // Section 2.2: eliminating Y from Q_double-triangle allows treating
  // (Z, Z') as one dimension: MM(X;ZZ';Y) must be among the options.
  Hypergraph h = Hypergraph::DoubleTriangle();
  auto options = EnumerateMmOptions(h, VarSet{1});
  bool found = false;
  for (const auto& o : options) {
    if ((o.x == VarSet{0} && o.y == VarSet({2, 3})) ||
        (o.y == VarSet{0} && o.x == VarSet({2, 3}))) {
      found = o.g.empty();
    }
  }
  EXPECT_TRUE(found);
}

// ------------------------------------------------------- clustered terms --

TEST(ClusteredTermsTest, TriangleHasOneTerm) {
  auto terms = ClusteredMmTerms(Hypergraph::Triangle());
  ASSERT_EQ(terms.size(), 1u);  // MM(X;Y;Z) up to symmetry
}

TEST(ClusteredTermsTest, FourCliqueHasTenTermsEq28) {
  auto terms = ClusteredMmTerms(Hypergraph::Clique(4));
  EXPECT_EQ(terms.size(), 10u);
  int with_groupby = 0;
  for (const auto& t : terms) {
    if (!t.g.empty()) ++with_groupby;
  }
  EXPECT_EQ(with_groupby, 4);  // MM(.;.;.|X) for each of the 4 vertices
}

// ------------------------------------------------------------- w-subw ----

class OmegaSweepTest : public ::testing::TestWithParam<Rational> {};

TEST_P(OmegaSweepTest, TriangleMatchesLemmaC5) {
  const Rational omega = GetParam();
  auto r = OmegaSubw(Hypergraph::Triangle(), omega);
  EXPECT_TRUE(r.exact);
  EXPECT_TRUE(r.used_clustered_form);
  EXPECT_EQ(r.value, cf::OmegaSubwTriangle(omega)) << omega.ToString();
}

TEST_P(OmegaSweepTest, FourCliqueMatchesLemmaC6) {
  const Rational omega = GetParam();
  auto r = OmegaSubw(Hypergraph::Clique(4), omega);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.value, cf::OmegaSubwClique4(omega)) << omega.ToString();
}

TEST_P(OmegaSweepTest, Pyramid3MatchesLemmaC13) {
  const Rational omega = GetParam();
  auto r = OmegaSubw(Hypergraph::Pyramid(3), omega);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.value, cf::OmegaSubwPyramid3(omega)) << omega.ToString();
}

INSTANTIATE_TEST_SUITE_P(OmegaValues, OmegaSweepTest,
                         ::testing::Values(Rational(2), Rational(9, 4),
                                           Rational(2371552, 1000000),
                                           Rational(5, 2), Rational(3)));

TEST(OmegaSubwTest, FiveCliqueMatchesLemmaC7) {
  const Rational omega(2371552, 1000000);
  auto r = OmegaSubw(Hypergraph::Clique(5), omega);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.value, cf::OmegaSubwClique5(omega));
}

TEST(OmegaSubwTest, CollapsesToSubwAtOmega3) {
  // Proposition 4.10.
  for (const Hypergraph& h : {Hypergraph::Triangle(), Hypergraph::Clique(4),
                              Hypergraph::Pyramid(3)}) {
    auto subw = SubmodularWidth(h);
    auto osubw = OmegaSubw(h, Rational(3));
    EXPECT_TRUE(osubw.exact);
    EXPECT_EQ(osubw.value, subw.value) << h.ToString();
  }
}

TEST(OmegaSubwTest, NeverExceedsSubw) {
  // Proposition 4.9, at the current best omega.
  const Rational omega(2371552, 1000000);
  for (const Hypergraph& h : {Hypergraph::Triangle(), Hypergraph::Clique(4),
                              Hypergraph::Pyramid(3)}) {
    EXPECT_LE(OmegaSubw(h, omega).value, SubmodularWidth(h).value);
  }
}

TEST(OmegaSubwTest, WorstCasePolymatroidIsValid) {
  const Rational omega(5, 2);
  auto r = OmegaSubw(Hypergraph::Clique(4), omega);
  EXPECT_TRUE(IsPolymatroid(r.worst_case));
  EXPECT_TRUE(IsEdgeDominated(Hypergraph::Clique(4), r.worst_case));
}

TEST(OmegaSubwTest, FullEnumerationMatchesBranchAndBound) {
  // Example D.1 (scaled down: exact agreement of the two solvers on the
  // triangle and 4-clique).
  const Rational omega(7, 3);
  OmegaSubwOptions full;
  full.full_enumeration = true;
  auto a = OmegaSubwClustered(Hypergraph::Clique(4), omega, full);
  auto b = OmegaSubwClustered(Hypergraph::Clique(4), omega);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.num_mm_terms, 10);
  // Full enumeration solves 3^10 leaf LPs plus one exact certification.
  EXPECT_GE(a.lps_solved, 59049);
  EXPECT_LT(b.lps_solved, a.lps_solved / 50);  // B&B must prune hard
}

// ------------------------------------------- witness-based lower bounds --

TEST(WidthAtTest, TriangleWitnessAttainsWidth) {
  for (const Rational& omega :
       {Rational(2), Rational(2371552, 1000000), Rational(3)}) {
    auto w = TriangleWitness(omega);
    EXPECT_EQ(WidthAt(Hypergraph::Triangle(), w, omega),
              cf::OmegaSubwTriangle(omega))
        << omega.ToString();
  }
}

TEST(WidthAtTest, CliqueWitnessAttainsWidth) {
  const Rational omega(2371552, 1000000);
  EXPECT_EQ(WidthAt(Hypergraph::Clique(4), CliqueWitness(4), omega),
            cf::OmegaSubwClique4(omega));
}

TEST(WidthAtTest, FourCycleWitnessesMatchLemmaC9) {
  // High-omega witness attains 3/2 for w >= 5/2 ...
  for (const Rational& omega : {Rational(5, 2), Rational(14, 5),
                                Rational(3)}) {
    EXPECT_EQ(
        WidthAt(Hypergraph::Cycle(4), FourCycleWitnessHigh(), omega),
        Rational(3, 2))
        << omega.ToString();
  }
  // ... and the low-omega witness attains (4w-1)/(2w+1) for w <= 5/2.
  for (const Rational& omega :
       {Rational(2), Rational(9, 4), Rational(2371552, 1000000)}) {
    EXPECT_EQ(
        WidthAt(Hypergraph::Cycle(4), FourCycleWitnessLow(omega), omega),
        cf::OmegaSubwCycle4(omega))
        << omega.ToString();
  }
}

TEST(WidthAtTest, Pyramid3WitnessAttainsWidth) {
  const Rational omega(5, 2);
  EXPECT_EQ(WidthAt(Hypergraph::Pyramid(3), Pyramid3Witness(omega), omega),
            cf::OmegaSubwPyramid3(omega));
}

TEST(OmegaSubwTest, FourCycleBoundsBracketClosedForm) {
  // The 4-cycle is not clustered; the general path must produce certified
  // bounds with lower == the Lemma C.9 value (via the witnesses).
  const Rational omega(2371552, 1000000);
  OmegaSubwOptions opts;
  opts.witnesses.push_back(FourCycleWitnessLow(omega));
  opts.witnesses.push_back(FourCycleWitnessHigh());
  auto r = OmegaSubw(Hypergraph::Cycle(4), omega, opts);
  EXPECT_FALSE(r.used_clustered_form);
  EXPECT_EQ(r.lower, cf::OmegaSubwCycle4(omega));
  EXPECT_GE(r.upper, r.lower);
}

// ------------------------------------- planner determinism, warmth, cache --

// The full OmegaSubwResult must be bit-identical at every thread count —
// values, bounds, witness polymatroid, and all planner counters. The
// search is phase-structured so parallel fan-outs fill disjoint slots and
// every reduction runs serially; this test is the contract.
void ExpectSameResult(const OmegaSubwResult& a, const OmegaSubwResult& b,
                      bool compare_counters) {
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.lower, b.lower);
  EXPECT_EQ(a.upper, b.upper);
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_EQ(a.used_clustered_form, b.used_clustered_form);
  EXPECT_EQ(a.num_mm_terms, b.num_mm_terms);
  EXPECT_TRUE(a.worst_case == b.worst_case);
  if (compare_counters) {
    EXPECT_EQ(a.lps_solved, b.lps_solved);
    EXPECT_EQ(a.lp_warm_starts, b.lp_warm_starts);
    EXPECT_EQ(a.lp_pivots, b.lp_pivots);
  }
}

TEST(PlannerDeterminismTest, ParallelMatchesSerialClusteredForm) {
  const Rational omega(2371552, 1000000);
  OmegaSubwOptions opts;
  opts.use_width_cache = false;
  for (const Hypergraph& h :
       {Hypergraph::Clique(4), Hypergraph::Pyramid(3)}) {
    ExecContext serial(1);
    const auto reference = OmegaSubw(h, omega, opts, &serial);
    ASSERT_TRUE(reference.used_clustered_form);
    for (int threads : {2, 4, 8}) {
      ExecContext ec(threads);
      ExpectSameResult(reference, OmegaSubw(h, omega, opts, &ec),
                       /*compare_counters=*/true);
    }
  }
}

TEST(PlannerDeterminismTest, ParallelMatchesSerialGeneralForm) {
  const Rational omega(2371552, 1000000);
  OmegaSubwOptions opts;
  opts.use_width_cache = false;
  opts.witnesses.push_back(FourCycleWitnessLow(omega));
  opts.witnesses.push_back(FourCycleWitnessHigh());
  ExecContext serial(1);
  const auto reference =
      OmegaSubw(Hypergraph::Cycle(4), omega, opts, &serial);
  ASSERT_FALSE(reference.used_clustered_form);
  for (int threads : {2, 4, 8}) {
    ExecContext ec(threads);
    ExpectSameResult(reference,
                     OmegaSubw(Hypergraph::Cycle(4), omega, opts, &ec),
                     /*compare_counters=*/true);
  }
}

TEST(PlannerDeterminismTest, WidthAtThreadCountInvariant) {
  const Rational omega(2371552, 1000000);
  const auto w = FourCycleWitnessHigh();
  ExecContext serial(1);
  const Rational reference = WidthAt(Hypergraph::Cycle(4), w, omega, &serial);
  for (int threads : {2, 4, 8}) {
    ExecContext ec(threads);
    EXPECT_EQ(reference, WidthAt(Hypergraph::Cycle(4), w, omega, &ec))
        << threads;
  }
}

TEST(PlannerWarmStartTest, ColdSolveMatchesWarmSolve) {
  // Warm starting may change LP trajectories (and so lps_solved /
  // lp_pivots) but never the answer: value, bounds, and the canonical
  // witness polymatroid must be exactly equal.
  const Rational omega(2371552, 1000000);
  OmegaSubwOptions warm;
  warm.use_width_cache = false;
  OmegaSubwOptions cold = warm;
  cold.warm_start = false;
  {
    const auto rw = OmegaSubw(Hypergraph::Clique(4), omega, warm);
    const auto rc = OmegaSubw(Hypergraph::Clique(4), omega, cold);
    ExpectSameResult(rw, rc, /*compare_counters=*/false);
    EXPECT_GT(rw.lp_warm_starts, 0);
    EXPECT_EQ(rc.lp_warm_starts, 0);
    EXPECT_LT(rw.lp_pivots, rc.lp_pivots);
  }
  {
    OmegaSubwOptions warm_g = warm, cold_g = cold;
    warm_g.witnesses.push_back(FourCycleWitnessHigh());
    cold_g.witnesses.push_back(FourCycleWitnessHigh());
    const auto rw = OmegaSubw(Hypergraph::Cycle(4), omega, warm_g);
    const auto rc = OmegaSubw(Hypergraph::Cycle(4), omega, cold_g);
    ExpectSameResult(rw, rc, /*compare_counters=*/false);
    EXPECT_GT(rw.lp_warm_starts, 0);
    EXPECT_EQ(rc.lp_warm_starts, 0);
  }
}

TEST(WidthCacheTest, SecondSolveIsServedFromCache) {
  const Rational omega(2371552, 1000000);
  WidthCache::Global().Clear();
  ExecContext ec(1);
  OmegaSubwOptions opts;  // cache on by default
  const auto first = OmegaSubw(Hypergraph::Clique(4), omega, opts, &ec);
  EXPECT_FALSE(first.from_cache);
  EXPECT_EQ(ec.stats().width_cache_hits.load(), 0);
  const auto second = OmegaSubw(Hypergraph::Clique(4), omega, opts, &ec);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(ec.stats().width_cache_hits.load(), 1);
  EXPECT_EQ(WidthCache::Global().hits(), 1);
  ExpectSameResult(first, second, /*compare_counters=*/true);
  // Distinct options key distinct entries: full enumeration is a miss.
  OmegaSubwOptions full = opts;
  full.full_enumeration = true;
  ExecContext ec2(1);
  // (Use the triangle so the full enumeration stays cheap.)
  const auto tri = OmegaSubw(Hypergraph::Triangle(), omega, full, &ec2);
  EXPECT_FALSE(tri.from_cache);
  WidthCache::Global().Clear();
  EXPECT_EQ(WidthCache::Global().size(), 0u);
}

TEST(WidthCacheTest, CachedEqualsUncachedOverShapeTable) {
  // The cache is keyed by shape alone, so a hit must be indistinguishable
  // from a fresh solve on every query shape the ladder is tested on.
  const Rational omega(2807355, 1000000);  // log2 7
  OmegaSubwOptions uncached;
  uncached.use_width_cache = false;
  for (const QueryShape& shape : QueryShapeTable()) {
    SCOPED_TRACE(shape.name);
    WidthCache::Global().Clear();
    ExecContext ec(1);
    const WidthReport cold = ComputeWidths(shape.h, omega, {}, &ec);
    EXPECT_FALSE(cold.from_cache);
    const OmegaSubwResult hit = OmegaSubw(shape.h, omega, {}, &ec);
    EXPECT_TRUE(hit.from_cache);
    const OmegaSubwResult fresh = OmegaSubw(shape.h, omega, uncached, &ec);
    EXPECT_FALSE(fresh.from_cache);
    ExpectSameResult(hit, fresh, /*compare_counters=*/true);
    EXPECT_EQ(cold.omega_subw_lower, fresh.lower);
    EXPECT_EQ(cold.omega_subw_upper, fresh.upper);
    EXPECT_EQ(cold.omega_subw_exact, fresh.exact);
    EXPECT_EQ(cold.num_mm_terms, fresh.num_mm_terms);
  }
  WidthCache::Global().Clear();
}

TEST(WidthCacheTest, ConcurrentLookupInsertAtEightThreads) {
  // Regression pinned at 8 threads (oversubscribed on the dev sandboxes):
  // planners racing on the global cache — mixed Lookup/Insert/size/hits
  // on overlapping keys — must be free of data races (the CI tsan job
  // runs this under TSan) and converge to exactly one entry per distinct
  // key. Duplicate Insert keeps the first entry, so a key's stored value
  // is whichever thread won; all writers store the same bounds here,
  // mirroring the determinism contract real solvers obey.
  WidthCache::Global().Clear();
  constexpr int kKeys = 8;
  ThreadPool pool(8);
  pool.Run([&](int t) {
    for (int i = 0; i < 200; ++i) {
      const std::string key =
          std::string("hammer-key-") + std::to_string((i + t) % kKeys);
      OmegaSubwResult r;
      if (!WidthCache::Global().Lookup(key, &r)) {
        r.value = Rational(3, 2);
        r.exact = true;
        WidthCache::Global().Insert(key, r);
      } else {
        EXPECT_EQ(r.value, Rational(3, 2));
        EXPECT_TRUE(r.exact);
      }
      (void)WidthCache::Global().size();
      (void)WidthCache::Global().hits();
    }
  });
  EXPECT_EQ(WidthCache::Global().size(), static_cast<size_t>(kKeys));
  EXPECT_GT(WidthCache::Global().hits(), 0);
  WidthCache::Global().Clear();
}

TEST(PlannerGuardrailTest, PivotBudgetRaisesRecoverableAbort) {
  // An absurdly small per-LP pivot budget must surface as a catchable
  // QueryAbort(kCapacityExceeded), not a process abort.
  OmegaSubwOptions opts;
  opts.use_width_cache = false;
  opts.max_pivots = 1;
  try {
    OmegaSubw(Hypergraph::Clique(4), Rational(5, 2), opts);
    FAIL() << "expected QueryAbort";
  } catch (const QueryAbort& e) {
    EXPECT_EQ(e.status(), ExecStatus::kCapacityExceeded);
  }
}

TEST(PlannerGuardrailTest, FaultMidSolveNeverCachesPartialResults) {
  // A QueryAbort unwinding out of OmegaSubw mid-solve must never insert
  // a partial entry into the process WidthCache: fault the lp plane at
  // several poll ordinals, then verify a clean re-solve is a cache
  // *miss* that computes the correct exact value.
  const Rational omega(5, 2);
  OmegaSubwOptions opts;  // use_width_cache = true by default
  ExecContext ec(2);
  for (int64_t k : {1, 2, 5}) {
    WidthCache::Global().Clear();
    FaultPlan plan;
    std::string err;
    ASSERT_TRUE(ParseFaultPlan("lp:" + std::to_string(k), &plan, &err))
        << err;
    ec.guard().SetFaultPlan(plan);
    const ExecResult r = RunGuarded(ec, {}, [&] {
      OmegaSubw(Hypergraph::Clique(4), omega, opts, &ec);
    });
    EXPECT_EQ(r.status, ExecStatus::kMemoryLimitExceeded) << "lp:" << k;
    EXPECT_EQ(WidthCache::Global().size(), 0u)
        << "aborted solve leaked a partial cache entry at lp:" << k;
    ec.guard().SetFaultPlan(FaultPlan{});
    const auto clean = OmegaSubw(Hypergraph::Clique(4), omega, opts, &ec);
    EXPECT_FALSE(clean.from_cache) << "lp:" << k;
    EXPECT_TRUE(clean.exact);
    EXPECT_EQ(clean.value, cf::OmegaSubwClique4(omega));
    EXPECT_EQ(WidthCache::Global().size(), 1u);
  }
  WidthCache::Global().Clear();
}

TEST(PlannerStatsTest, CountersFlowIntoExecContext) {
  const Rational omega(2371552, 1000000);
  ExecContext ec(1);
  OmegaSubwOptions opts;
  opts.use_width_cache = false;
  const auto r = OmegaSubw(Hypergraph::Clique(4), omega, opts, &ec);
  EXPECT_GT(r.lps_solved, 0);
  EXPECT_GT(r.plan_ns, 0);
  EXPECT_EQ(ec.stats().lp_solves.load(), r.lps_solved);
  EXPECT_EQ(ec.stats().lp_warm_starts.load(), r.lp_warm_starts);
  EXPECT_EQ(ec.stats().lp_pivots.load(), r.lp_pivots);
  EXPECT_GE(ec.stats().plan_ns.load(), r.plan_ns);
}

// ------------------------------------------------------- closed forms ----

TEST(ClosedFormsTest, Table2AtOmega2) {
  // At w = 2 (optimal MM), Table 2 collapses to the well-known values.
  const Rational two(2);
  EXPECT_EQ(cf::OmegaSubwTriangle(two), Rational(4, 3));
  EXPECT_EQ(cf::OmegaSubwClique4(two), Rational(3, 2));
  EXPECT_EQ(cf::OmegaSubwClique5(two), Rational(2));
  EXPECT_EQ(cf::OmegaSubwCycle4(two), Rational(7, 5));
  EXPECT_EQ(cf::OmegaSubwPyramid3(two), Rational(3, 2));
  EXPECT_EQ(cf::OmegaSubwClique(6, two), Rational(3, 2) + Rational(1, 2));
}

TEST(ClosedFormsTest, Table2AtOmega3CollapsesToSubw) {
  const Rational three(3);
  EXPECT_EQ(cf::OmegaSubwTriangle(three), cf::SubwTriangle());
  EXPECT_EQ(cf::OmegaSubwClique4(three), cf::SubwClique(4));
  EXPECT_EQ(cf::OmegaSubwClique5(three), cf::SubwClique(5));
  EXPECT_EQ(cf::OmegaSubwCycle4(three), cf::SubwCycle(4));
  EXPECT_EQ(cf::OmegaSubwPyramid3(three), cf::SubwPyramid(3));
  for (int k = 6; k <= 9; ++k) {
    EXPECT_EQ(cf::OmegaSubwClique(k, three), cf::SubwClique(k)) << k;
  }
}

TEST(ClosedFormsTest, OmegaSquareBasics) {
  const Rational omega(2371552, 1000000);
  // Square case: omega-square(1,1,1) = omega.
  EXPECT_EQ(cf::OmegaSquare(Rational(1), Rational(1), Rational(1), omega),
            omega);
  // Degenerate inner dimension: linear cost.
  EXPECT_EQ(
      cf::OmegaSquare(Rational(1), Rational(1), Rational(0), omega),
      Rational(2));
  // At omega = 2 it is simply a + b + c - min.
  EXPECT_EQ(cf::OmegaSquare(Rational(1), Rational(1, 2), Rational(1, 4),
                            Rational(2)),
            Rational(3, 2));
}

TEST(ClosedFormsTest, PyramidUpperBoundBeatsPanda) {
  // Table 1's new-algorithm row: for w < 3 the k-pyramid bound improves on
  // PANDA's 2 - 1/k.
  const Rational omega(2371552, 1000000);
  for (int k = 3; k <= 6; ++k) {
    EXPECT_LT(cf::OmegaSubwPyramidUpper(k, omega), cf::PriorPyramid(k)) << k;
  }
  for (int k = 3; k <= 6; ++k) {
    EXPECT_EQ(cf::OmegaSubwPyramidUpper(k, Rational(3)),
              cf::PriorPyramid(k));
  }
}

// ------------------------------------------------------------ cycle DP ---

TEST(CycleDpTest, FourCycleBracketsClosedForm) {
  // Our realizable DP composes sub-paths with a full inner dimension (no
  // light-split-vertex bookkeeping), so it upper-bounds c-square_4 =
  // 2 - 3/(2 min(w, 5/2) + 1) and never exceeds subw(C4) = 3/2; for
  // w >= 5/2 the closed form equals 3/2 and the DP is tight.
  for (double omega : {2.0, 2.371552, 2.5, 2.8, 3.0}) {
    const double closed = 2.0 - 3.0 / (2.0 * std::min(omega, 2.5) + 1.0);
    auto r = CycleCsquare(4, omega, 40);
    EXPECT_GE(r.value, closed - 0.02) << "omega=" << omega;
    EXPECT_LE(r.value, 1.5 + 0.02) << "omega=" << omega;
    if (omega >= 2.5) {
      EXPECT_NEAR(r.value, closed, 0.02) << "omega=" << omega;
    }
  }
}

TEST(CycleDpTest, MonotoneInOmega) {
  for (int k = 4; k <= 6; ++k) {
    double prev = 0;
    for (double omega : {2.0, 2.4, 2.8}) {
      double v = CycleCsquare(k, omega, 24).value;
      EXPECT_GE(v + 1e-9, prev) << "k=" << k << " omega=" << omega;
      prev = v;
    }
  }
}

TEST(CycleDpTest, BoundedBySubw) {
  // c-square_k <= subw(C_k) = 2 - 1/ceil(k/2) at omega = 3 (no MM gain).
  for (int k = 4; k <= 7; ++k) {
    double v = CycleCsquare(k, 3.0, 24).value;
    EXPECT_LE(v, cf::SubwCycle(k).ToDouble() + 0.02) << k;
  }
}

TEST(CycleDpTest, OddCycleAtOmega2) {
  // Known value (Table 2 of [12] at omega=2): c_5 = 2 - 2/5? For odd k,
  // c_k = 2 - 2/k at omega = 2. Allow grid slack.
  auto r = CycleCsquare(5, 2.0, 30);
  EXPECT_NEAR(r.value, 2.0 - 2.0 / 5.0, 0.03);
}

}  // namespace
}  // namespace fmmsw
