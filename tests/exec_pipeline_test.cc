// Tests for the ExecContext pipeline: fused join–semijoin probes (the
// exist_filter / SemijoinAll contracts of relation/ops.h), the parallel
// WCOJ fan-out (identical canonical output across thread counts, including
// skewed heavy-hitter inputs), the WCOJ dense leaf bitmaps against a
// nested-loop oracle, the partition sort-order cache, and the radix-sort
// path of SortAndDedupe.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/api.h"
#include "core/exec_context.h"
#include "engine/elimination.h"
#include "engine/four_cycle.h"
#include "engine/td_eval.h"
#include "engine/triangle.h"
#include "engine/wcoj.h"
#include "gtest/gtest.h"
#include "relation/degree.h"
#include "relation/flat_index.h"
#include "relation/generators.h"
#include "relation/ops.h"
#include "util/random.h"
#include "wcoj_rules.h"

namespace fmmsw {
namespace {

std::vector<std::vector<Value>> Rows(const Relation& r) {
  std::vector<std::vector<Value>> out;
  out.reserve(r.size());
  for (size_t i = 0; i < r.size(); ++i) {
    out.emplace_back(r.Row(i), r.Row(i) + r.arity());
  }
  return out;
}

Relation Sorted(Relation r) {
  r.SortAndDedupe();
  return r;
}

// ------------------------------------------------- fused-probe contract --

TEST(FusedJoinTest, ExistFilterMatchesSemijoinOfJoin) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    Relation a = UniformRelation(VarSet{0, 1}, 120, 25, &rng);
    Relation b = UniformRelation(VarSet{1, 2}, 120, 25, &rng);
    Relation c = UniformRelation(VarSet{0, 2}, 80, 25, &rng);
    Relation fused = Join(a, b, {.exist_filter = &c});
    Relation reference = Semijoin(Join(a, b), c);
    EXPECT_EQ(Rows(Sorted(fused)), Rows(Sorted(reference)))
        << "trial " << trial;
  }
}

TEST(FusedJoinTest, MultipleFiltersMatchSemijoinChain) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    Relation a = UniformRelation(VarSet{0, 1}, 150, 20, &rng);
    Relation b = UniformRelation(VarSet{1, 2}, 150, 20, &rng);
    Relation c = UniformRelation(VarSet{0, 2}, 60, 20, &rng);
    Relation d = UniformRelation(VarSet{2}, 12, 20, &rng);
    Relation fused = Join(a, b, {.exist_filters = {&c, &d}});
    Relation reference = Semijoin(Semijoin(Join(a, b), c), d);
    EXPECT_EQ(Rows(Sorted(fused)), Rows(Sorted(reference)))
        << "trial " << trial;
  }
}

TEST(FusedJoinTest, LimitCapsSurvivors) {
  Rng rng(13);
  Relation a = UniformRelation(VarSet{0, 1}, 200, 10, &rng);
  Relation b = UniformRelation(VarSet{1, 2}, 200, 10, &rng);
  Relation c = UniformRelation(VarSet{0, 2}, 90, 10, &rng);
  Relation full = Join(a, b, {.exist_filter = &c});
  Relation one = Join(a, b, {.exist_filter = &c, .limit = 1});
  ASSERT_FALSE(full.empty());
  EXPECT_EQ(one.size(), 1u);
  // The survivor is a genuine result tuple.
  EXPECT_TRUE(full.Contains({one.Row(0)[0], one.Row(0)[1], one.Row(0)[2]}));
  // An unsatisfiable filter yields an empty result regardless of limit.
  Relation never(VarSet{0, 2});
  EXPECT_TRUE(Join(a, b, {.exist_filter = &never, .limit = 1}).empty());
}

TEST(FusedJoinTest, NullaryFilterActsAsBooleanConstant) {
  Rng rng(17);
  Relation a = UniformRelation(VarSet{0, 1}, 50, 8, &rng);
  Relation b = UniformRelation(VarSet{1, 2}, 50, 8, &rng);
  Relation truth(VarSet::Empty());
  truth.Add({});
  Relation falsity(VarSet::Empty());
  EXPECT_EQ(Join(a, b, {.exist_filter = &truth}).size(), Join(a, b).size());
  EXPECT_TRUE(Join(a, b, {.exist_filter = &falsity}).empty());
}

TEST(SemijoinAllTest, MatchesSemijoinChain) {
  Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    Relation a = UniformRelation(VarSet{0, 1, 2}, 200, 12, &rng);
    Relation b = UniformRelation(VarSet{0}, 8, 12, &rng);
    Relation c = UniformRelation(VarSet{1, 2}, 100, 12, &rng);
    Relation fused = SemijoinAll(a, {&b, &c});
    Relation reference = Semijoin(Semijoin(a, b), c);
    EXPECT_EQ(Rows(fused), Rows(reference)) << "trial " << trial;
  }
  // Empty filter list is the identity; an empty filter annihilates.
  Relation a = UniformRelation(VarSet{0, 1}, 40, 9, &rng);
  EXPECT_EQ(Rows(SemijoinAll(a, std::vector<const Relation*>{})), Rows(a));
  Relation empty_filter(VarSet{1});
  EXPECT_TRUE(SemijoinAll(a, {&empty_filter}).empty());
}

// Triangle-free instance with no empty corner: n uniform draws per
// relation over domain d, R keeping x + y even, S keeping y + z even and T
// keeping x + z odd. (A parity split of one variable between two
// relations would leave that variable's corner without candidate pairs,
// and that corner would answer alone.)
QueryInput OddTriangle(int64_t n, int64_t d, uint64_t seed) {
  Rng rng(seed);
  QueryInput db;
  for (VarSet schema : {VarSet{0, 1}, VarSet{1, 2}, VarSet{0, 2}}) {
    const Relation raw = UniformRelation(schema, n, d, &rng);
    const bool odd = schema == VarSet{0, 2};
    Relation rel(schema);
    for (size_t i = 0; i < raw.size(); ++i) {
      if (((raw.Row(i)[0] + raw.Row(i)[1]) % 2 == 1) == odd) {
        rel.AddRow(raw.Row(i));
      }
    }
    db.relations.push_back(std::move(rel));
  }
  return db;
}

// The acceptance check for the fused light paths: on a negative instance
// the triangle/4-cycle engines probe light-join candidates but materialize
// none of them (the old pipeline allocated the full filtered-away join).
TEST(FusedStatsTest, TriangleLightPathMaterializesNothingWhenNegative) {
  {
    // Dense square: each value meets about a third of the other side's
    // values, and one small product over all values is predicted far
    // cheaper than the light corners Delta0 would leave, so the split
    // sends every value to the core and the corners probe nothing.
    const QueryInput db = OddTriangle(3000, 55, 19);
    ExecContext ec(1);
    TriangleStats stats;
    EXPECT_FALSE(TriangleMm(db, 2.371552, MmKernel::kBoolean, &stats, &ec));
    EXPECT_FALSE(stats.answer_from_light);
    EXPECT_EQ(stats.light_join_tuples, 0);
    EXPECT_EQ(stats.solo_corner, -1);
    int64_t min_degree = std::numeric_limits<int64_t>::max();
    for (const auto& [rel, y, x] : {std::tuple{0, 1, 0}, std::tuple{1, 2, 1},
                                    std::tuple{2, 0, 2}}) {
      for (const ValueDegree& vd :
           DegreeProfile(db.relations[rel], VarSet{y}, x)) {
        min_degree = std::min(min_degree, vd.degree);
      }
    }
    EXPECT_LT(stats.delta, min_degree);
    EXPECT_EQ(ec.stats().fused_probe_tuples.load(), 0);
  }
  // Sparse: every degree is small, so one light corner answers alone, on
  // the unpartitioned relations.
  const QueryInput db = OddTriangle(3000, 2000, 19);
  ExecContext ec(1);
  TriangleStats stats;
  EXPECT_FALSE(TriangleMm(db, 2.371552, MmKernel::kBoolean, &stats, &ec));
  EXPECT_FALSE(stats.answer_from_light);
  EXPECT_GE(stats.solo_corner, 0);
  EXPECT_EQ(stats.light_join_tuples, 0);  // nothing materialized
  const ExecStats& st = ec.stats();
  EXPECT_EQ(st.fused_joins.load(), 1);         // the solo corner
  EXPECT_EQ(st.partition_calls.load(), 0);
  EXPECT_GT(st.fused_probe_tuples.load(), 0);  // candidates were probed...
  EXPECT_EQ(st.fused_emit_tuples.load(), 0);   // ...but none survived
  EXPECT_EQ(st.fused_probe_tuples.load(), st.fused_drop_tuples.load());
}

TEST(FusedStatsTest, FourCycleResidualIsFused) {
  WorkloadOptions opts;
  opts.kind = WorkloadKind::kUniform;
  opts.tuples_per_relation = 400;
  opts.domain = 900;  // sparse: likely negative, light middles
  opts.seed = 5;
  QueryInput db = MakeWorkload(Hypergraph::Cycle(4), opts);
  ExecContext ec(1);
  FourCycleStats stats;
  const bool ans = FourCycleCombinatorial(db, &stats, &ec);
  EXPECT_EQ(ans, BruteForceBoolean(Hypergraph::Cycle(4), db));
  EXPECT_GE(ec.stats().fused_joins.load(), 1);
  if (!ans) {
    EXPECT_EQ(ec.stats().fused_emit_tuples.load(), 0);
  }
}

// ------------------------------------------------- sharded index builds --

TEST(ShardedIndexTest, TableCapacityComputedIn64Bits) {
  using flat_internal::TableCapacity;
  EXPECT_EQ(TableCapacity(0), 8u);
  EXPECT_EQ(TableCapacity(4), 8u);
  EXPECT_EQ(TableCapacity(5), 16u);
  EXPECT_EQ(TableCapacity(size_t{1} << 29), uint32_t{1} << 30);
  // The boundary where a 32-bit `cap <<= 1` wrapped to 0 and hung the
  // build loop forever (no allocation here — capacity math only).
  EXPECT_EQ(TableCapacity((size_t{1} << 30) - 1), 2147483648u);
  EXPECT_EQ(TableCapacity(size_t{1} << 30), 2147483648u);
}

/// Binary relation above the sharded-build threshold with a planted
/// heavy-hitter key in the first column.
Relation SkewedBinary(VarSet schema, size_t n, int domain, Value hot,
                      size_t hot_rows, uint64_t seed) {
  Rng rng(seed);
  Relation r(schema);
  for (size_t i = 0; i < n; ++i) {
    const Value k = i < hot_rows
                        ? hot
                        : static_cast<Value>(rng.Uniform(0, domain - 1));
    r.Add({k, static_cast<Value>(rng.Uniform(-domain, domain))});
  }
  return r;
}

TEST(ShardedIndexTest, MultimapChainsIdenticalToSerial) {
  const size_t n = 20000;
  ASSERT_GE(n, flat_internal::kShardedBuildMinRows);
  Relation r = SkewedBinary(VarSet{0, 1}, n, 4000, /*hot=*/77,
                            /*hot_rows=*/3000, /*seed=*/51);
  const KeySpec spec(r, VarSet{0});
  const FlatMultimap serial(r, spec);
  for (int threads : {1, 2, 4, 8}) {
    ExecContext ec(threads);
    const FlatMultimap built(r, spec, &ec);
    EXPECT_EQ(built.sharded(), threads > 1) << "threads=" << threads;
    for (Value v = -2; v < 4000; ++v) {
      const uint64_t key = static_cast<uint32_t>(v);
      int32_t a = serial.First(key);
      int32_t b = built.First(key);
      while (a >= 0 && b >= 0) {
        ASSERT_EQ(a, b) << "key=" << v << " threads=" << threads;
        a = serial.Next(a);
        b = built.Next(b);
      }
      ASSERT_EQ(a, b) << "key=" << v << " threads=" << threads;
    }
    if (threads > 1) {
      EXPECT_GE(ec.stats().index_sharded_builds.load(), 1);
    }
    EXPECT_GE(ec.stats().index_builds.load(), 1);
    EXPECT_EQ(ec.stats().index_build_rows.load(),
              static_cast<int64_t>(n));
  }
}

TEST(ShardedIndexTest, OpsBitIdenticalAcrossThreadCounts) {
  // Join / fused Join / Semijoin / Antijoin / SemijoinAll over
  // sharded-size skewed inputs: outputs must be byte-identical to the
  // 1-thread serial-build outputs (same row order, not just same set),
  // because equal-key chains keep their reverse-row order.
  Relation a = SkewedBinary(VarSet{0, 1}, 20000, 4000, 7, 2000, 61);
  Relation b = SkewedBinary(VarSet{1, 2}, 16000, 4000, 9, 1500, 62);
  Relation c = SkewedBinary(VarSet{0, 2}, 12000, 4000, 7, 1000, 63);
  ExecContext base(1);
  const Relation jref = Join(a, b, {}, &base);
  const Relation fref = Join(a, b, {.exist_filter = &c}, &base);
  const Relation sref = Semijoin(a, b, &base);
  const Relation aref = Antijoin(a, b, &base);
  const Relation mref = SemijoinAll(a, {&b, &c}, &base);
  EXPECT_EQ(base.stats().index_sharded_builds.load(), 0);
  for (int threads : {2, 4, 8}) {
    ExecContext ec(threads);
    EXPECT_EQ(Rows(Join(a, b, {}, &ec)), Rows(jref)) << threads;
    EXPECT_EQ(Rows(Join(a, b, {.exist_filter = &c}, &ec)), Rows(fref))
        << threads;
    EXPECT_EQ(Rows(Semijoin(a, b, &ec)), Rows(sref)) << threads;
    EXPECT_EQ(Rows(Antijoin(a, b, &ec)), Rows(aref)) << threads;
    EXPECT_EQ(Rows(SemijoinAll(a, {&b, &c}, &ec)), Rows(mref)) << threads;
    EXPECT_GT(ec.stats().index_sharded_builds.load(), 0) << threads;
  }
}

TEST(ShardedIndexTest, BulkInternerMatchesSerialFirstOccurrenceOrder) {
  Rng rng(52);
  Relation r(VarSet{3});
  for (int i = 0; i < 20000; ++i) {
    r.Add({static_cast<Value>(rng.Uniform(-3000, 3000))});
  }
  FlatInterner ref(r.size());
  for (size_t i = 0; i < r.size(); ++i) ref.InternValue(r.Row(i)[0]);
  const KeySpec spec(r, r.schema());
  for (int threads : {1, 2, 4, 8}) {
    ExecContext ec(threads);
    const FlatInterner built(r, spec, &ec);
    ASSERT_EQ(built.size(), ref.size()) << "threads=" << threads;
    EXPECT_EQ(built.sharded(), threads > 1) << "threads=" << threads;
    for (Value v = -3001; v <= 3001; ++v) {
      ASSERT_EQ(built.FindValue(v), ref.FindValue(v))
          << "v=" << v << " threads=" << threads;
    }
  }
}

TEST(ExecContextTest, ScratchArenaMovePreservesBuffersWhenFree) {
  ScratchArena a;
  ASSERT_TRUE(a.TryAcquire());
  a.u64().assign(100, 7);
  a.Release();
  ScratchArena b(std::move(a));
  EXPECT_EQ(b.u64().size(), 100u);
  EXPECT_TRUE(b.TryAcquire());
  b.Release();
}

// -------------------------------------------- parallel WCOJ determinism --

/// Runs WcojJoin/WcojCount/WcojBoolean under private pools of 1, 2, 4 and
/// 8 threads (the in-process equivalent of FMMSW_THREADS=1,2,4,8) and
/// checks the canonical outputs are identical.
void ExpectDeterministicAcrossThreadCounts(const Hypergraph& h,
                                           const QueryInput& db,
                                           VarSet output_vars) {
  ExecContext base(1);
  Relation ref = WcojJoin(h, db, output_vars, nullptr, &base);
  const int64_t ref_count = WcojCount(h, db, &base);
  const bool ref_bool = WcojBoolean(h, db, &base);
  for (int threads : {2, 4, 8}) {
    ExecContext ec(threads);
    Relation got = WcojJoin(h, db, output_vars, nullptr, &ec);
    EXPECT_EQ(Rows(got), Rows(ref)) << "threads=" << threads;
    EXPECT_EQ(WcojCount(h, db, &ec), ref_count) << "threads=" << threads;
    EXPECT_EQ(WcojBoolean(h, db, &ec), ref_bool) << "threads=" << threads;
    // Inputs are sized to actually exercise the task fan-out.
    EXPECT_GT(ec.stats().wcoj_parallel_runs.load(), 0)
        << "threads=" << threads;
  }
}

/// Plants a heavy hitter: `hot` appears in the first column of the first
/// relation against many partners (skew regime of the paper).
void PlantHeavyHitter(QueryInput* db, Value hot, int fanout) {
  Relation r = db->relations[0];  // copy-on-write: edit a copy, swap it in
  for (int i = 0; i < fanout; ++i) {
    r.Add({hot, static_cast<Value>(i)});
  }
  db->relations.Set(0, std::move(r));
}

TEST(ParallelWcojTest, TriangleDeterministicAcrossThreadCounts) {
  for (uint64_t seed : {1u, 2u}) {
    WorkloadOptions opts;
    opts.kind = WorkloadKind::kUniform;
    opts.tuples_per_relation = 1500;
    opts.domain = 120;
    opts.seed = seed;
    opts.plant_witness = true;
    Hypergraph h = Hypergraph::Triangle();
    QueryInput db = MakeWorkload(h, opts);
    ExpectDeterministicAcrossThreadCounts(h, db, h.vertices());
  }
}

TEST(ParallelWcojTest, TriangleSkewedHeavyHitter) {
  WorkloadOptions opts;
  opts.kind = WorkloadKind::kZipf;
  opts.tuples_per_relation = 1200;
  opts.domain = 100;
  opts.zipf_alpha = 1.4;
  opts.seed = 3;
  Hypergraph h = Hypergraph::Triangle();
  QueryInput db = MakeWorkload(h, opts);
  PlantHeavyHitter(&db, /*hot=*/0, /*fanout=*/100);
  ExpectDeterministicAcrossThreadCounts(h, db, h.vertices());
  // Projected outputs too (exercises the merge + canonical sort).
  ExpectDeterministicAcrossThreadCounts(h, db, VarSet{0, 2});
}

TEST(ParallelWcojTest, FourCycleDeterministicAcrossThreadCounts) {
  WorkloadOptions opts;
  opts.kind = WorkloadKind::kUniform;
  opts.tuples_per_relation = 1100;
  opts.domain = 70;
  opts.seed = 4;
  Hypergraph h = Hypergraph::Cycle(4);
  QueryInput db = MakeWorkload(h, opts);
  ExpectDeterministicAcrossThreadCounts(h, db, h.vertices());
}

TEST(ParallelWcojTest, FiveVariableGenericQuery) {
  // 5-cycle: a 5-variable query with no specialized engine.
  for (WorkloadKind kind : {WorkloadKind::kUniform, WorkloadKind::kZipf}) {
    WorkloadOptions opts;
    opts.kind = kind;
    opts.tuples_per_relation = 900;
    opts.domain = 60;
    opts.zipf_alpha = 1.3;
    opts.seed = 9;
    Hypergraph h = Hypergraph::Cycle(5);
    QueryInput db = MakeWorkload(h, opts);
    PlantHeavyHitter(&db, /*hot=*/1, /*fanout=*/80);
    ExpectDeterministicAcrossThreadCounts(h, db, h.vertices());
  }
}

TEST(ParallelWcojTest, SubLevelStealingOnDominantTask) {
  // One top-level X value whose depth-1 fanout dwarfs every other task:
  // without sub-level splitting this single task serializes the join.
  // The dominant task must run cooperatively (claimed in depth-1 blocks)
  // and the output must stay bit-identical across thread counts.
  Hypergraph h = Hypergraph::Triangle();
  Rng rng(61);
  Relation r(VarSet{0, 1}), s(VarSet{1, 2}), t(VarSet{0, 2});
  for (int i = 0; i < 3000; ++i) {
    r.Add({0, static_cast<Value>(i)});  // hot x = 0: depth-1 span 3000
  }
  for (Value x = 1; x <= 40; ++x) {
    for (int j = 0; j < 5; ++j) {
      r.Add({x, static_cast<Value>(rng.Uniform(0, 2999))});
    }
  }
  for (int i = 0; i < 6000; ++i) {
    s.Add({static_cast<Value>(rng.Uniform(0, 2999)),
           static_cast<Value>(rng.Uniform(0, 399))});
  }
  for (int i = 0; i < 4000; ++i) {
    t.Add({static_cast<Value>(rng.Uniform(0, 40)),
           static_cast<Value>(rng.Uniform(0, 399))});
  }
  r.SortAndDedupe();
  s.SortAndDedupe();
  t.SortAndDedupe();
  QueryInput db;
  db.relations = {r, s, t};
  ExpectDeterministicAcrossThreadCounts(h, db, h.vertices());
  ExpectDeterministicAcrossThreadCounts(h, db, VarSet{1, 2});
  // WcojOrder binds Z (400 candidates) before Y (about 2600), and X = 0
  // meets only about 100 Z values in T; the hot depth-1 range is Y's, so
  // the index order is given explicitly.
  ASSERT_EQ(WcojOrder(h, db), (std::vector<int>{0, 2, 1}));
  const std::vector<int> index_order = {0, 1, 2};
  ExecContext ec(4);
  Relation out = WcojJoin(h, db, h.vertices(), &index_order, &ec);
  EXPECT_EQ(Rows(out), Rows(WcojJoin(h, db, h.vertices(), nullptr, &ec)));
  EXPECT_FALSE(out.empty());
  EXPECT_GT(ec.stats().wcoj_coop_tasks.load(), 0);
}

TEST(ParallelWcojTest, StealCursorsStableUnderRepeatedEightWorkerRuns) {
  // Regression pinned at 8 workers — oversubscribed on the dev sandboxes,
  // so the coop morsel cursors and depth-1 steal claims race under real
  // preemption. Repeated runs must stay bit-identical to the serial
  // reference; the CI tsan job runs this under TSan, which validates the
  // work-claim cursors' relaxed fetch_adds empirically.
  WorkloadOptions opts;
  opts.kind = WorkloadKind::kZipf;
  opts.tuples_per_relation = 1200;
  opts.domain = 100;
  opts.zipf_alpha = 1.4;
  opts.seed = 9;
  Hypergraph h = Hypergraph::Triangle();
  QueryInput db = MakeWorkload(h, opts);
  PlantHeavyHitter(&db, /*hot=*/0, /*fanout=*/150);
  ExecContext ref(1);
  const Relation expect = WcojJoin(h, db, h.vertices(), nullptr, &ref);
  for (int round = 0; round < 5; ++round) {
    ExecContext ec(8);
    Relation got = WcojJoin(h, db, h.vertices(), nullptr, &ec);
    EXPECT_EQ(Rows(got), Rows(expect)) << "round " << round;
    EXPECT_GT(ec.stats().wcoj_parallel_runs.load(), 0);
  }
}

TEST(ParallelWcojTest, EnginesAgreeUnderParallelContext) {
  WorkloadOptions opts;
  opts.kind = WorkloadKind::kZipf;
  opts.tuples_per_relation = 800;
  opts.domain = 90;
  opts.seed = 21;
  Hypergraph h = Hypergraph::Triangle();
  QueryInput db = MakeWorkload(h, opts);
  ExecContext ec(4);
  const bool expect = WcojBoolean(h, db, &ec);
  EXPECT_EQ(WcojBoolean(h, db, &ec), expect);  // rerun on the warm context
  EXPECT_EQ(TdBooleanBest(h, db, &ec), expect);
  EXPECT_EQ(ExecutePlan(h, db, ForLoopPlan(h), {}, nullptr, &ec), expect);
  EXPECT_EQ(TriangleMm(db, 2.371552, MmKernel::kBoolean, nullptr, &ec),
            expect);
}

// ------------------------------------------------- dense leaf bitmaps --

/// WcojJoin, WcojCount and WcojBoolean against the nested-loop oracle at
/// threads {1, 2, 4} and on the process pool (sized by FMMSW_THREADS).
/// Every run must give exactly the relations ComputeWcojRules names a
/// direct top level and last-level bitmaps. Returns those rules.
WcojRules ExpectMatchesOracle(const Hypergraph& h, const QueryInput& db,
                              const std::string& where) {
  const WcojRules rules = ComputeWcojRules(h, db, WcojOrder(h, db));
  const std::vector<std::vector<Value>> expect = NestedLoopJoin(h, db);
  for (int threads : {1, 2, 4, 0}) {
    const std::string at = where + " threads=" + std::to_string(threads);
    auto ec = threads == 0 ? std::make_unique<ExecContext>()
                           : std::make_unique<ExecContext>(threads);
    EXPECT_EQ(Rows(WcojJoin(h, db, h.vertices(), nullptr, ec.get())), expect)
        << at;
    EXPECT_EQ(WcojCount(h, db, ec.get()), static_cast<int64_t>(expect.size()))
        << at;
    EXPECT_EQ(WcojBoolean(h, db, ec.get()), !expect.empty()) << at;
    const int64_t runs = ec->stats().wcoj_runs.load();
    EXPECT_EQ(runs, 3) << at;
    EXPECT_EQ(ec->stats().wcoj_top_index.load(), rules.top_index * runs)
        << at;
    EXPECT_EQ(ec->stats().wcoj_bitmap_relations.load(),
              rules.bitmap_relations * runs)
        << at;
  }
  return rules;
}

QueryInput Generated(const Hypergraph& h, WorkloadKind kind, int64_t tuples,
                     int64_t domain, uint64_t seed, double density = 0.3) {
  WorkloadOptions opts;
  opts.kind = kind;
  opts.tuples_per_relation = tuples;
  opts.domain = domain;
  opts.dense_density = density;
  opts.seed = seed;
  opts.plant_witness = true;
  return MakeWorkload(h, opts);
}

/// `db` with `delta` added to variable `var` in every relation.
QueryInput Shifted(const QueryInput& db, int var, int64_t delta) {
  QueryInput out;
  for (const Relation& r : db.relations) {
    Relation moved(r.schema());
    std::vector<Value> row(r.arity());
    for (size_t i = 0; i < r.size(); ++i) {
      for (int c = 0; c < r.arity(); ++c) {
        row[c] = static_cast<Value>(
            r.Row(i)[c] + (r.vars()[c] == var ? delta : 0));
      }
      moved.AddRow(row.data());
    }
    moved.SortAndDedupe();
    out.relations.push_back(std::move(moved));
  }
  return out;
}

// ------------------------------------------------- last-level bitmaps --

TEST(WcojBitmapTest, GeneratedFamiliesMatchOracle) {
  const std::vector<std::pair<std::string, Hypergraph>> shapes = {
      {"triangle", Hypergraph::Triangle()},
      {"cycle4", Hypergraph::Cycle(4)},
      {"cycle5", Hypergraph::Cycle(5)},
      {"clique4", Hypergraph::Clique(4)},
      {"clique5", Hypergraph::Clique(5)},
      {"pyramid3", Hypergraph::Pyramid(3)},
  };
  for (const auto& [name, h] : shapes) {
    for (uint64_t seed : {1u, 2u}) {
      const std::string where = name + " seed=" + std::to_string(seed);
      // Dense: a small domain, so every run is a few words wide and
      // every first-column window is within its rows.
      const WcojRules dense = ExpectMatchesOracle(
          h, Generated(h, WorkloadKind::kDense, 0, 14, seed), where + " dense");
      EXPECT_GT(dense.bitmap_relations, 0) << where;
      EXPECT_GT(dense.top_index, 0) << where;
      // Sparse: a domain far wider than each relation's degrees.
      const WcojRules sparse = ExpectMatchesOracle(
          h, Generated(h, WorkloadKind::kUniform, 300, 2000, seed),
          where + " sparse");
      EXPECT_EQ(sparse.bitmap_relations, 0) << where;
      EXPECT_EQ(sparse.top_index, 0) << where;
      ExpectMatchesOracle(h, Generated(h, WorkloadKind::kZipf, 200, 150, seed),
                          where + " zipf");
    }
  }
}

TEST(WcojBitmapTest, ValuesAtAndNearTheEndsOfTheRange) {
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = Generated(h, WorkloadKind::kDense, 0, 24, 5);
  const Value min = std::numeric_limits<Value>::min();
  const Value max = std::numeric_limits<Value>::max();
  // Y ends R(X, Y), Z ends S(Y, Z) and T(X, Z): shift each to straddle
  // zero, to start at INT32_MIN and to end at INT32_MAX.
  for (int var : {1, 2}) {
    const std::string v = "var " + std::to_string(var);
    for (int64_t delta : {int64_t{-12}, int64_t{min},
                          int64_t{max} - 23}) {
      const WcojRules rules = ExpectMatchesOracle(
          h, Shifted(db, var, delta), v + " + " + std::to_string(delta));
      EXPECT_EQ(rules.bitmap_relations, 3) << v << " + " << delta;
    }
  }
  // S(Y, Z) holds one Z at each end of the range: its own window of 2^32
  // values fails the test, so S keeps its sorted last level and stays
  // out of Z's window, while T(X, Z) and R(X, Y) keep their bitmaps.
  QueryInput ends = db;
  Relation s = db.relations[1];
  s.Add({0, min});
  s.Add({1, max});
  s.SortAndDedupe();
  ends.relations.Set(1, s);
  EXPECT_EQ(ExpectMatchesOracle(h, ends, "Z at both ends").bitmap_relations,
            2);
}

TEST(WcojBitmapTest, UnaryRelationsOnEveryVariable) {
  Hypergraph h(3);
  h.AddEdge({0, 1});
  h.AddEdge({1, 2});
  h.AddEdge({0, 2});
  h.AddEdge({0});
  h.AddEdge({1});
  h.AddEdge({2});
  const QueryInput tri =
      Generated(Hypergraph::Triangle(), WorkloadKind::kDense, 0, 24, 6);
  QueryInput db;
  for (const Relation& r : tri.relations) db.relations.push_back(r);
  for (int var : {0, 1, 2}) {
    Relation u(VarSet{var});
    for (Value x = 0; x < 24; x += 2 + var) u.Add({x});
    db.relations.push_back(std::move(u));
  }
  EXPECT_EQ(ExpectMatchesOracle(h, db, "triangle + U(X), U(Y), U(Z)")
                .bitmap_relations,
            6);
}

TEST(WcojBitmapTest, TernaryRelationLastLevel) {
  // R(X, Y, Z) ends at Z behind the prefix (X, Y), so its bitmaps fold
  // at Y's bindings, with S(Y, Z); T(X, Z) folds at X's.
  Hypergraph h(3);
  h.AddEdge({0, 1, 2});
  h.AddEdge({1, 2});
  h.AddEdge({0, 2});
  Rng rng(73);
  Relation r(VarSet{0, 1, 2}), s(VarSet{1, 2}), t(VarSet{0, 2});
  for (Value x = 0; x < 6; ++x) {
    for (Value y = 0; y < 6; ++y) {
      for (int j = 0; j < 30; ++j) {
        r.Add({x, y, static_cast<Value>(rng.Uniform(0, 99))});
      }
    }
  }
  for (int j = 0; j < 300; ++j) {
    s.Add({static_cast<Value>(rng.Uniform(0, 5)),
           static_cast<Value>(rng.Uniform(0, 99))});
    t.Add({static_cast<Value>(rng.Uniform(0, 5)),
           static_cast<Value>(rng.Uniform(0, 99))});
  }
  r.SortAndDedupe();
  s.SortAndDedupe();
  t.SortAndDedupe();
  QueryInput db;
  db.relations = {r, s, t};
  ASSERT_FALSE(NestedLoopJoin(h, db).empty());
  EXPECT_EQ(ExpectMatchesOracle(h, db, "R(X, Y, Z)").bitmap_relations, 3);
}

TEST(WcojBitmapTest, DenseAndSparseRelationEndAtOneVariable) {
  // T(X, Z) is dense (4 runs over a 7-word window, 1600 rows); S(Y, Z)
  // holds one Z per Y, so 200 runs x 7 words > 200 rows. Each relation
  // is decided on its own over Z's shared window: T and R(X, Y) take
  // bitmaps, S keeps its sorted last level and is probed per candidate.
  const Hypergraph h = Hypergraph::Triangle();
  Relation r(VarSet{0, 1}), s(VarSet{1, 2}), t(VarSet{0, 2});
  for (Value x = 0; x < 4; ++x) {
    for (Value y = 0; y < 200; ++y) r.Add({x, y});
    for (Value z = 0; z < 400; ++z) t.Add({x, z});
  }
  for (Value y = 0; y < 200; ++y) s.Add({y, (y * 37) % 400});
  QueryInput db;
  db.relations = {r, s, t};
  EXPECT_EQ(ExpectMatchesOracle(h, db, "dense T + sparse S").bitmap_relations,
            2);
}

TEST(WcojBitmapTest, MaskEmptiesTwoLevelsAboveTheLeaf) {
  // Order X0, X1, X2, X3 over a 16-value domain, every value a candidate
  // of every variable, so WcojOrder keeps the index order. A(X0, X1)
  // holds the pairs of equal parity, C(X0, X3) those of equal parity and
  // D(X1, X3) those of unequal parity, so X3's mask empties as soon as
  // X1 is bound: each binding of (X0, X1), one per row of A, is pruned
  // there, two levels above X3, and X2 is never bound. Were they not
  // pruned, E(X2, X3) would fold at each of the 16 X2 bindings below.
  constexpr Value kDomain = 16;
  Hypergraph h(4);
  h.AddEdge({0, 1});
  h.AddEdge({1, 2});
  h.AddEdge({0, 3});
  h.AddEdge({1, 3});
  h.AddEdge({2, 3});
  Relation a(VarSet{0, 1}), b(VarSet{1, 2}), c(VarSet{0, 3}), d(VarSet{1, 3}),
      e(VarSet{2, 3});
  for (Value x = 0; x < kDomain; ++x) {
    for (Value y = 0; y < kDomain; ++y) {
      const bool same = (x + y) % 2 == 0;
      if (same) a.Add({x, y});
      b.Add({x, y});
      e.Add({x, y});
      (same ? c : d).Add({x, y});
    }
  }
  QueryInput db;
  db.relations = {a, b, c, d, e};
  ASSERT_EQ(WcojOrder(h, db), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(ExpectMatchesOracle(h, db, "parity X3").bitmap_relations, 5);
  for (int threads : {1, 2, 4}) {
    ExecContext ec(threads);
    EXPECT_EQ(WcojCount(h, db, &ec), 0);
    EXPECT_EQ(ec.stats().wcoj_pruned_bindings.load(),
              static_cast<int64_t>(a.size()))
        << threads;
    EXPECT_EQ(ec.stats().wcoj_empty_candidates.load(), 0) << threads;
  }
}

TEST(WcojBitmapTest, CountingLeafAddsWholeMasks) {
  // A positive dense 4-clique with no parity filter: X3's candidates are
  // the AND of three bitmaps with no sorted relation left, so the count
  // adds each mask's popcount instead of visiting its bits: one leaf per
  // (X0, X1, X2) binding that survives its folds, i.e. per distinct
  // prefix of the results.
  const Hypergraph h = Hypergraph::Clique(4);
  const QueryInput db = Generated(h, WorkloadKind::kDense, 0, 24, 9, 0.6);
  const WcojRules rules = ExpectMatchesOracle(h, db, "dense clique4");
  EXPECT_EQ(rules.bitmap_relations, 6);
  const std::vector<std::vector<Value>> expect = NestedLoopJoin(h, db);
  std::set<std::vector<Value>> prefixes;
  for (const std::vector<Value>& row : expect) {
    prefixes.insert({row[0], row[1], row[2]});
  }
  ASSERT_GT(expect.size(), 10000u);
  for (int threads : {1, 2, 4}) {
    ExecContext ec(threads);
    EXPECT_EQ(WcojCount(h, db, &ec), static_cast<int64_t>(expect.size()))
        << threads;
    EXPECT_EQ(ec.stats().wcoj_popcount_leaves.load(),
              static_cast<int64_t>(prefixes.size()))
        << threads;
    // Join and Boolean emit per bit.
    WcojJoin(h, db, h.vertices(), nullptr, &ec);
    WcojBoolean(h, db, &ec);
    EXPECT_EQ(ec.stats().wcoj_popcount_leaves.load(),
              static_cast<int64_t>(prefixes.size()))
        << threads;
  }
}

TEST(WcojBitmapTest, CooperativeClaimsReachTheLeaf) {
  // Two variables: the depth-1 cooperative blocks of the hot X = 0 task
  // are leaf calls, each covering only part of the pivot range, and both
  // relations at Y are masked, so the blocks split the mask's bits.
  Hypergraph h(2);
  h.AddEdge({0, 1});
  h.AddEdge({1});
  Rng rng(67);
  Relation r(VarSet{0, 1}), u(VarSet{1});
  for (Value y = 0; y < 3000; ++y) r.Add({0, y});
  for (Value x = 1; x <= 40; ++x) {
    for (int j = 0; j < 5; ++j) {
      r.Add({x, static_cast<Value>(rng.Uniform(0, 2999))});
    }
  }
  for (int i = 0; i < 1500; ++i) {
    u.Add({static_cast<Value>(rng.Uniform(0, 2999))});
  }
  r.SortAndDedupe();
  u.SortAndDedupe();
  QueryInput db;
  db.relations = {r, u};
  EXPECT_EQ(ExpectMatchesOracle(h, db, "R(X, Y) + U(Y)").bitmap_relations, 2);
  for (int threads : {2, 4}) {
    ExecContext ec(threads);
    WcojCount(h, db, &ec);
    EXPECT_GT(ec.stats().wcoj_coop_tasks.load(), 0) << threads;
    EXPECT_EQ(ec.stats().wcoj_bitmap_relations.load(), 2) << threads;
  }
}

TEST(WcojBitmapTest, CounterMarksDensePyramidNotSparseZipf) {
  const Hypergraph pyramid = Hypergraph::Pyramid(3);
  const QueryInput dense = Generated(pyramid, WorkloadKind::kDense, 0, 20, 7);
  ExecContext dense_ec(1);
  WcojBoolean(pyramid, dense, &dense_ec);
  const int64_t n =
      ComputeWcojRules(pyramid, dense, WcojOrder(pyramid, dense))
          .bitmap_relations;
  EXPECT_EQ(n, 4);
  EXPECT_EQ(dense_ec.stats().wcoj_bitmap_relations.load(), n);
  EXPECT_NE(dense_ec.stats().ToString().find("wcoj_bitmap_relations : 4"),
            std::string::npos);
  const Hypergraph tri = Hypergraph::Triangle();
  ExecContext zipf_ec(1);
  WcojBoolean(tri, Generated(tri, WorkloadKind::kZipf, 3000, 100000, 8),
              &zipf_ec);
  EXPECT_EQ(zipf_ec.stats().wcoj_runs.load(), 1);
  EXPECT_EQ(zipf_ec.stats().wcoj_bitmap_relations.load(), 0);
}

// -------------------------------------------- direct-addressed top level --

/// Triangle whose S(Y, Z) holds one row (s_ys[i], 1000 (i % 9)) per entry
/// of `s_ys`, probed by R(X, Y) with Y in [y_lo, y_hi]. T(X, Z) holds only
/// X = 0 and 1, so X has two candidates, and Z's values are spread too
/// widely to keep a value set, so it has no count: WcojOrder binds X, then
/// Y, then Z, and S(Y, Z) is probed at its Y level.
QueryInput TopWindowTriangle(const std::vector<Value>& s_ys, Value y_lo,
                             Value y_hi) {
  Rng rng(71);
  Relation r(VarSet{0, 1}), s(VarSet{1, 2}), t(VarSet{0, 2});
  for (Value x = 0; x < 12; ++x) {
    for (int j = 0; j < 20; ++j) {
      r.Add({x, static_cast<Value>(rng.Uniform(y_lo, y_hi))});
    }
  }
  for (Value x = 0; x < 2; ++x) {
    for (Value z = 0; z < 9; z += 1 + x) t.Add({x, 1000 * z});
  }
  for (size_t i = 0; i < s_ys.size(); ++i) {
    s.Add({s_ys[i], static_cast<Value>(1000 * (i % 9))});
  }
  r.SortAndDedupe();
  s.SortAndDedupe();
  t.SortAndDedupe();
  QueryInput db;
  db.relations = {r, s, t};
  return db;
}

TEST(WcojTopIndexTest, WindowOfRowsEngagesOneMoreDeclines) {
  // Y = 0, 1, ..., 39: 40 rows over a window of exactly 40.
  std::vector<Value> ys;
  for (Value y = 0; y < 40; ++y) ys.push_back(y);
  QueryInput exact = TopWindowTriangle(ys, 0, 40);
  ASSERT_EQ(exact.relations[1].size(), 40u);
  EXPECT_EQ(ExpectMatchesOracle(Hypergraph::Triangle(), exact,
                                "window = rows")
                .top_index,
            1);
  // Move the last value one up: 40 rows over a window of 41.
  ys.back() = 40;
  QueryInput wide = TopWindowTriangle(ys, 0, 40);
  ASSERT_EQ(wide.relations[1].size(), 40u);
  EXPECT_EQ(ExpectMatchesOracle(Hypergraph::Triangle(), wide,
                                "window = rows + 1")
                .top_index,
            0);
}

TEST(WcojTopIndexTest, ProbesOutsideTheWindowAndExtremeValues) {
  // S holds Y in [10, 40) only; R probes it with Y in [0, 50], so some
  // probes fall below lo and some above hi.
  std::vector<Value> ys;
  for (Value y = 10; y < 40; ++y) ys.push_back(y);
  const QueryInput db = TopWindowTriangle(ys, 0, 50);
  const Hypergraph h = Hypergraph::Triangle();
  EXPECT_EQ(ExpectMatchesOracle(h, db, "probes outside").top_index, 1);
  // The same with Y straddling zero, and at the bottom of the value range.
  EXPECT_EQ(
      ExpectMatchesOracle(h, Shifted(db, 1, -25), "y - 25").top_index, 1);
  EXPECT_EQ(ExpectMatchesOracle(
                h, Shifted(db, 1, std::numeric_limits<Value>::min()),
                "y + INT32_MIN")
                .top_index,
            1);
  // S's window at INT32_MIN, probed from both ends of the value range:
  // value - lo reaches 2^32 - 1, which only a 64-bit offset represents.
  const Value min = std::numeric_limits<Value>::min();
  const Value max = std::numeric_limits<Value>::max();
  Relation r(VarSet{0, 1});
  for (Value x = 0; x < 12; ++x) {
    r.Add({x, min});
    r.Add({x, max});
  }
  QueryInput low = TopWindowTriangle({min, min + 1, min + 2}, 0, 0);
  low.relations.Set(0, r);
  EXPECT_EQ(ExpectMatchesOracle(h, low, "INT32_MIN window").top_index, 1);
  // Two rows at INT32_MIN and INT32_MAX: a window of 2^32 values, which
  // must decline (in 32 bits it would wrap to 0).
  QueryInput ends = TopWindowTriangle({min, max}, 0, 0);
  ends.relations.Set(0, r);
  EXPECT_EQ(
      ExpectMatchesOracle(h, ends, "INT32_MIN..MAX window").top_index, 0);
}

TEST(WcojTopIndexTest, HeavyHitterDepthOneProbesTheIndex) {
  // X = 0 meets 3000 Y values in R, so its task runs cooperatively and its
  // depth-1 claims probe S(Y, Z), 6000 rows over a Y window of 3000,
  // through the direct index. Z's values are multiples of 1000, too
  // widely spread to keep a value set, so WcojOrder binds Z last.
  const Hypergraph h = Hypergraph::Triangle();
  Rng rng(83);
  Relation r(VarSet{0, 1}), s(VarSet{1, 2}), t(VarSet{0, 2});
  for (Value y = 0; y < 3000; ++y) r.Add({0, y});
  for (Value x = 1; x <= 40; ++x) {
    for (int j = 0; j < 5; ++j) {
      r.Add({x, static_cast<Value>(rng.Uniform(0, 2999))});
    }
  }
  for (Value y = 0; y < 3000; ++y) {
    s.Add({y, static_cast<Value>(1000 * ((y * 7) % 50))});
    s.Add({y, static_cast<Value>(1000 * ((y * 13 + 1) % 50))});
  }
  for (Value x = 0; x <= 40; ++x) {
    for (int j = 0; j < 10; ++j) {
      t.Add({x, static_cast<Value>(1000 * rng.Uniform(0, 49))});
    }
  }
  r.SortAndDedupe();
  s.SortAndDedupe();
  t.SortAndDedupe();
  QueryInput db;
  db.relations = {r, s, t};
  EXPECT_EQ(ExpectMatchesOracle(h, db, "heavy X = 0").top_index, 1);
  ExecContext ref_ec(1);
  const Relation ref = WcojJoin(h, db, h.vertices(), nullptr, &ref_ec);
  ASSERT_FALSE(ref.empty());
  for (int threads : {2, 4}) {
    ExecContext ec(threads);
    const Relation got = WcojJoin(h, db, h.vertices(), nullptr, &ec);
    EXPECT_EQ(Rows(got), Rows(ref)) << threads;
    EXPECT_GT(ec.stats().wcoj_coop_tasks.load(), 0) << threads;
    EXPECT_EQ(ec.stats().wcoj_top_index.load(), 1) << threads;
  }
}

TEST(WcojTopIndexTest, RelationsHoldingTheFirstVariableNeverTakeIt) {
  // A star around X: U(X) leaves X 8 candidates, fewer than Y's 15 and
  // Z's 10, so X is order[0]; every relation holds it and is dense, so
  // none takes the index.
  Hypergraph star(3);
  star.AddEdge({0, 1});
  star.AddEdge({0, 2});
  star.AddEdge({0});
  Relation a(VarSet{0, 1}), b(VarSet{0, 2}), u(VarSet{0});
  for (Value x = 0; x < 30; ++x) {
    for (Value y = 0; y < 30; y += 2) a.Add({x, y});
    for (Value z = 0; z < 30; z += 3) b.Add({x, z});
    if (x < 8) u.Add({x});
  }
  QueryInput star_db;
  star_db.relations = {a, b, u};
  EXPECT_EQ(ExpectMatchesOracle(star, star_db, "star").top_index, 0);
  // In a dense triangle, R(X, Y) and T(X, Z) hold X; only S(Y, Z) does
  // not, so exactly one relation takes it.
  const Hypergraph tri = Hypergraph::Triangle();
  EXPECT_EQ(ExpectMatchesOracle(
                tri, Generated(tri, WorkloadKind::kDense, 0, 20, 4),
                "dense triangle")
                .top_index,
            1);
}

// ------------------------------------------------------- radix sorting ---

TEST(RadixSortTest, LargeSortAndDedupeMatchesReference) {
  Rng rng(41);
  // Arity 2 with negative and extreme values: crosses the radix threshold.
  Relation r(VarSet{0, 1});
  std::set<std::pair<Value, Value>> ref;
  for (int i = 0; i < 60000; ++i) {
    Value a = static_cast<Value>(rng.Uniform(-50000, 50000));
    Value b = static_cast<Value>(rng.Uniform(-50000, 50000));
    if (i % 997 == 0) a = std::numeric_limits<Value>::min();
    if (i % 991 == 0) b = std::numeric_limits<Value>::max();
    r.Add({a, b});
    r.Add({a, b});  // duplicates must collapse
    ref.emplace(a, b);
  }
  r.SortAndDedupe();
  ASSERT_EQ(r.size(), ref.size());
  size_t i = 0;
  for (const auto& [a, b] : ref) {
    EXPECT_EQ(r.Row(i)[0], a);
    EXPECT_EQ(r.Row(i)[1], b);
    ++i;
  }
  // Arity 1, same treatment.
  Relation u(VarSet{3});
  std::set<Value> uref;
  for (int i = 0; i < 30000; ++i) {
    const Value v = static_cast<Value>(rng.Uniform(-40000, 40000));
    u.Add({v});
    uref.insert(v);
  }
  u.SortAndDedupe();
  ASSERT_EQ(u.size(), uref.size());
  size_t j = 0;
  for (Value v : uref) EXPECT_EQ(u.Row(j++)[0], v);
}

// --------------------------------------------------- wide-key sort layer --

/// Dup-heavy arity-4 relation large enough to cross the pool-parallel
/// radix floor, with a skewed hot key so bucket sizes are uneven.
Relation WideSortInput(size_t n, uint64_t seed) {
  Rng rng(seed);
  Relation r(VarSet{0, 1, 2, 3});
  Value row[4];
  for (size_t i = 0; i < n; ++i) {
    const bool hot = rng.Uniform(0, 9) < 3;
    row[0] = hot ? 7 : static_cast<Value>(rng.Uniform(-300, 300));
    row[1] = static_cast<Value>(rng.Uniform(-40, 40));
    row[2] = static_cast<Value>(rng.Uniform(-40, 40));
    row[3] = static_cast<Value>(rng.Zipf(200, 1.3));
    r.AddRow(row);
  }
  return r;
}

TEST(WideSortTest, ParallelSortAndDedupeBitIdenticalAcrossThreadCounts) {
  const Relation input = WideSortInput(70000, 51);
  ExecContext base(1);
  Relation ref = input;
  ref.SortAndDedupe(&base);
  EXPECT_EQ(base.stats().sort_parallel.load(), 0);  // 1 worker: serial
  for (int threads : {2, 4, 8}) {
    ExecContext ec(threads);
    Relation got = input;
    got.SortAndDedupe(&ec);
    EXPECT_EQ(Rows(got), Rows(ref)) << "threads=" << threads;
    // 70000 rows on an idle multi-worker pool must take the parallel
    // radix path.
    EXPECT_EQ(ec.stats().sort_parallel.load(), 1) << "threads=" << threads;
    EXPECT_EQ(ec.stats().sort_calls.load(), 1) << "threads=" << threads;
  }
}

TEST(WideSortTest, SortStatsAccounted) {
  ExecContext ec(1);
  Relation r = WideSortInput(3000, 52);
  const size_t n = r.size();
  r.SortAndDedupe(&ec);
  EXPECT_EQ(ec.stats().sort_calls.load(), 1);
  EXPECT_EQ(ec.stats().sort_rows.load(), static_cast<int64_t>(n));
  EXPECT_GE(ec.stats().sort_ns.load(), 0);
  // A WCOJ run sorts each relation's trie buffer plus the canonical
  // output sort.
  ec.stats().Reset();
  Rng rng(53);
  QueryInput db;
  Hypergraph h = Hypergraph::Triangle();
  for (int e = 0; e < 3; ++e) {
    db.relations.push_back(
        UniformRelation(h.edges()[e], 400, 30, &rng));
  }
  WcojJoin(h, db, h.vertices(), nullptr, &ec);
  EXPECT_GE(ec.stats().sort_calls.load(), 4);
}

// ------------------------------------------------ execution guardrails --

/// Triangle workload big enough that every engine layer (index builds,
/// trie sorts, WCOJ fan-out, canonical output sort) passes many poll
/// points.
QueryInput GuardWorkload(uint64_t seed) {
  WorkloadOptions opts;
  opts.kind = WorkloadKind::kUniform;
  opts.tuples_per_relation = 4000;
  opts.domain = 90;
  opts.seed = seed;
  opts.plant_witness = true;
  return MakeWorkload(Hypergraph::Triangle(), opts);
}

/// The one-clause plan `<site>:<at>`: every poll of `site` from the
/// at-th on aborts with a retryable kMemoryLimitExceeded.
FaultPlan SitePlan(FaultSite site, int64_t at) {
  FaultPlan plan;
  plan.at[static_cast<int>(site)] = at;
  return plan;
}

/// Checks that an aborted run left `ec` balanced: no leaked memory
/// charges, every scratch arena re-acquirable.
void ExpectBalanced(ExecContext& ec, const std::string& where) {
  EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0) << where;
  for (int w = 0; w < ec.threads(); ++w) {
    EXPECT_TRUE(ec.scratch(w).TryAcquire())
        << where << ": arena " << w << " stuck";
    ec.scratch(w).Release();
  }
}

TEST(GuardrailTest, FaultInjectionUnwindsAndContextIsReusable) {
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = GuardWorkload(71);
  ExecContext ref_ec(1);
  const Relation ref = WcojJoin(h, db, h.vertices(), nullptr, &ref_ec);
  ASSERT_FALSE(ref.empty());
  for (int threads : {1, 2, 4, 8}) {
    ExecContext ec(threads);
    // The serial run crosses ~a dozen WCOJ morsel boundaries on this
    // input; the parallel runs (task + coop block claims) cross ~100.
    // Sweep fault points across the span each regime actually reaches.
    std::vector<int64_t> fault_points = {1, 3, 10};
    if (threads > 1) {
      fault_points.push_back(40);
      fault_points.push_back(90);
    }
    for (int64_t fault_at : fault_points) {
      const std::string where = "threads=" + std::to_string(threads) +
                                " wcoj:" + std::to_string(fault_at);
      ec.guard().SetFaultPlan(SitePlan(FaultSite::kWcoj, fault_at));
      Relation out, again;
      const ExecResult r = RunGuarded(
          ec, {}, [&] { out = WcojJoin(h, db, h.vertices(), nullptr, &ec); });
      ASSERT_EQ(r.status, ExecStatus::kMemoryLimitExceeded) << where;
      EXPECT_NE(r.message.find("fault plan fired at site wcoj"),
                std::string::npos);
      EXPECT_TRUE(out.empty()) << where;
      ExpectBalanced(ec, where);
      // With the plan cleared, the same context runs the same query to
      // completion, bit-identically.
      ec.guard().SetFaultPlan(FaultPlan{});
      const ExecResult ok = RunGuarded(
          ec, {}, [&] { again = WcojJoin(h, db, h.vertices(), nullptr, &ec); });
      ASSERT_TRUE(ok.ok()) << StatusString(ok.status) << ": " << ok.message;
      EXPECT_EQ(Rows(again), Rows(ref)) << where;
    }
  }
}

TEST(GuardrailTest, FaultInjectionMidSortAndMidIndexBuild) {
  // Target the sort layer and the sharded index build directly: both run
  // enough polls on their own for early fault points to land inside them.
  const Relation input = WideSortInput(70000, 72);
  Relation big = SkewedBinary(VarSet{0, 1}, 40000, 5000, 7, 4000, 73);
  const KeySpec spec(big, VarSet{0});
  Relation ref = input;
  ref.SortAndDedupe();
  for (int threads : {1, 4}) {
    const std::string where = "threads=" + std::to_string(threads);
    ExecContext ec(threads);
    ec.guard().SetFaultPlan(SitePlan(FaultSite::kSort, 2));
    ExecResult r = RunGuarded(ec, {}, [&] {
      Relation s = input;
      s.SortAndDedupe(&ec);
    });
    EXPECT_EQ(r.status, ExecStatus::kMemoryLimitExceeded) << where;
    ExpectBalanced(ec, where + " sort:2");
    ec.guard().SetFaultPlan(SitePlan(FaultSite::kIndex, 2));
    r = RunGuarded(ec, {}, [&] { FlatMultimap idx(big, spec, &ec); });
    // Poll points sit at the sharded build's chunk claims; the 1-thread
    // serial build is a poll-free tight loop and completes.
    EXPECT_EQ(r.status, threads > 1 ? ExecStatus::kMemoryLimitExceeded
                                    : ExecStatus::kOk)
        << where;
    ExpectBalanced(ec, where + " index:2");
    // With the plan cleared, the context still sorts and builds
    // correctly, bit-identically.
    ec.guard().SetFaultPlan(FaultPlan{});
    Relation s = input;
    ExecResult ok = RunGuarded(ec, {}, [&] { s.SortAndDedupe(&ec); });
    ASSERT_TRUE(ok.ok()) << ok.message;
    EXPECT_EQ(Rows(s), Rows(ref)) << where;
    ok = RunGuarded(ec, {}, [&] { FlatMultimap idx(big, spec, &ec); });
    ASSERT_TRUE(ok.ok()) << ok.message;
  }
}

// Driven by the CI sanitizer jobs: FMMSW_FAULT_PLAN in the environment
// (e.g. "wcoj:7") is read at Arm() time and must abort the guarded run
// exactly like the in-process SetFaultPlan. Run standalone
// (gtest_filter) — the env plan poisons every other guarded run in this
// file.
TEST(GuardrailTest, EnvFaultInjection) {
  const char* spec = std::getenv("FMMSW_FAULT_PLAN");
  if (spec == nullptr || *spec == '\0') {
    GTEST_SKIP() << "set FMMSW_FAULT_PLAN=<site>:<n> to run";
  }
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = GuardWorkload(79);
  ExecContext ec;  // process pool, sized by FMMSW_THREADS
  Relation out, again;
  const ExecResult r = RunGuarded(
      ec, {}, [&] { out = WcojJoin(h, db, h.vertices(), nullptr, &ec); });
  EXPECT_EQ(r.status, ExecStatus::kMemoryLimitExceeded) << spec;
  EXPECT_NE(r.message.find("fault plan fired"), std::string::npos);
  EXPECT_TRUE(out.empty());
  ExpectBalanced(ec, spec);
  // With the env plan gone, the same context completes the same query.
  unsetenv("FMMSW_FAULT_PLAN");
  const ExecResult ok = RunGuarded(
      ec, {}, [&] { again = WcojJoin(h, db, h.vertices(), nullptr, &ec); });
  ASSERT_TRUE(ok.ok()) << ok.message;
  ExecContext ref_ec(1);
  EXPECT_EQ(Rows(again),
            Rows(WcojJoin(h, db, h.vertices(), nullptr, &ref_ec)));
}

TEST(GuardrailTest, CancellationViaPollHook) {
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = GuardWorkload(74);
  ExecContext ec(4);
  ec.guard().SetPollHook([&ec](int64_t poll) {
    if (poll == 10) ec.guard().Cancel();
  });
  int64_t count = -1;
  const auto run_count = [&] { count = WcojCount(h, db, &ec); };
  const ExecResult r = RunGuarded(ec, {}, run_count);
  ec.guard().SetPollHook(nullptr);
  EXPECT_EQ(r.status, ExecStatus::kCancelled);
  EXPECT_EQ(count, -1);  // output untouched on failure
  EXPECT_GE(ec.guard().polls(), 10);
  // Reusable afterwards, and cancellation did not stick.
  const ExecResult ok = RunGuarded(ec, {}, run_count);
  ASSERT_TRUE(ok.ok()) << ok.message;
  ExecContext ref_ec(1);
  EXPECT_EQ(count, WcojCount(h, db, &ref_ec));
}

TEST(GuardrailTest, PollHookFiresConcurrentlyAtEightWorkers) {
  // Regression for the hook_mu_ handshake: the poll hook is a non-atomic
  // std::function invoked from every worker's PollSlow, serialized by
  // hook_mu_ behind the relaxed has_hook_ gate. With 8 oversubscribed
  // workers polling, the CI tsan job checks the gate/lock pairing
  // empirically; the counts check that every armed poll fired the hook
  // exactly once.
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = GuardWorkload(76);
  ExecContext ec(8);
  std::atomic<int64_t> fires(0);
  ec.guard().SetPollHook([&fires](int64_t) { fires.fetch_add(1); });
  int64_t count = -1;
  const ExecResult r =
      RunGuarded(ec, {}, [&] { count = WcojCount(h, db, &ec); });
  ec.guard().SetPollHook(nullptr);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_GT(fires.load(), 0);
  EXPECT_EQ(fires.load(), ec.guard().polls());
  ExecContext ref_ec(1);
  EXPECT_EQ(count, WcojCount(h, db, &ref_ec));
}

TEST(GuardrailTest, DeadlineExceededTerminatesEarly) {
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = GuardWorkload(75);
  ExecContext ec(4);
  // Each armed poll sleeps ~1ms and an armed deadline reads the clock at
  // every poll, so the 5ms budget expires within the first handful of
  // polls — deterministic regardless of machine speed.
  ec.guard().SetPollHook([](int64_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  // A count visits the whole join (no witness short-circuit), so the run
  // is guaranteed to keep polling until the deadline trips.
  int64_t count = -1;
  const ExecResult r = RunGuarded(ec, {.deadline_ms = 5},
                                  [&] { count = WcojCount(h, db, &ec); });
  ec.guard().SetPollHook(nullptr);
  EXPECT_EQ(r.status, ExecStatus::kDeadlineExceeded);
  EXPECT_EQ(count, -1);
  // Fresh run on the same context succeeds.
  bool answer = false;
  const ExecResult ok = EvaluateBooleanWithRecovery(h, db, &answer, &ec);
  ASSERT_TRUE(ok.ok()) << ok.message;
  EXPECT_TRUE(answer);  // witness planted
}

TEST(GuardrailTest, MemoryBudgetExceededAndBalancedAfter) {
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = GuardWorkload(76);
  ExecContext ec(2);
  Relation out;
  const auto run_join = [&] {
    out = WcojJoin(h, db, h.vertices(), nullptr, &ec);
  };
  // The trie build alone charges ~3 * 4000 rows * 2 cols * 8 bytes.
  const ExecResult r =
      RunGuarded(ec, {.memory_budget_bytes = 16384}, run_join);
  EXPECT_EQ(r.status, ExecStatus::kMemoryLimitExceeded);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
  EXPECT_GT(ec.stats().mem_peak_bytes.load(), 0);
  // An ample budget lets the same query through on the same context.
  const ExecResult ok =
      RunGuarded(ec, {.memory_budget_bytes = int64_t{1} << 32}, run_join);
  ASSERT_TRUE(ok.ok()) << ok.message;
  EXPECT_FALSE(out.empty());
  EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
}

TEST(GuardrailTest, NullaryJoinBuildsOneTrieSet) {
  // A join with no output variables is an existence test. It must build
  // and charge one set of tries and count one WCOJ run, so the tracked
  // peak of one WcojBoolean run is budget enough.
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = GuardWorkload(77);
  for (int threads : {1, 4}) {
    ExecContext ref_ec(threads);
    const bool expect = WcojBoolean(h, db, &ref_ec);
    const int64_t one_set = ref_ec.stats().mem_peak_bytes.load();
    ASSERT_GT(one_set, 0);
    ExecContext ec(threads);
    Relation out;
    const ExecResult r =
        RunGuarded(ec, {.memory_budget_bytes = one_set},
                   [&] { out = WcojJoin(h, db, VarSet{}, nullptr, &ec); });
    ASSERT_TRUE(r.ok()) << r.message << " threads=" << threads;
    EXPECT_EQ(out.size(), expect ? 1u : 0u) << threads;
    EXPECT_EQ(ec.stats().wcoj_runs.load(), 1) << threads;
    EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0) << threads;
  }
}

TEST(GuardrailTest, RowLimitExceeded) {
  // A join with a huge output: every a-row matches every b-row on y=0.
  Relation a(VarSet{0, 1}), b(VarSet{1, 2});
  for (Value i = 0; i < 300; ++i) {
    a.Add({i, 0});
    b.Add({0, i});
  }
  ExecContext ec(1);
  const ExecResult r = RunGuarded(ec, {.max_output_rows = 1000},
                                  [&] { Join(a, b, {}, &ec); });
  EXPECT_EQ(r.status, ExecStatus::kCapacityExceeded);
  EXPECT_NE(r.message.find("max_output_rows"), std::string::npos);
  // 90000 output rows pass well within budget when no limit is armed.
  const ExecResult ok = RunGuarded(ec, {}, [&] {
    EXPECT_EQ(Join(a, b, {}, &ec).size(), 90000u);
  });
  ASSERT_TRUE(ok.ok()) << ok.message;
}

TEST(GuardrailTest, InvalidArgumentFromValidation) {
  const Hypergraph h = Hypergraph::Triangle();
  QueryInput db = GuardWorkload(77);
  bool answer = false;
  // Relation-count mismatch.
  QueryInput short_db;
  short_db.relations.push_back(db.relations.ptr(0));
  EXPECT_EQ(EvaluateBooleanWithRecovery(h, short_db, &answer).status,
            ExecStatus::kInvalidArgument);
  // Schema mismatch: swap two relations so schemas disagree with edges.
  QueryInput swapped = db;
  swapped.relations.Swap(0, 1);
  EXPECT_EQ(EvaluateBooleanWithRecovery(h, swapped, &answer).status,
            ExecStatus::kInvalidArgument);
  EXPECT_EQ(ValidateQuery(h, swapped).status, ExecStatus::kInvalidArgument);
  // The untouched database validates and evaluates.
  EXPECT_TRUE(ValidateQuery(h, db).ok());
  const ExecResult ok = EvaluateBooleanWithRecovery(h, db, &answer);
  ASSERT_TRUE(ok.ok()) << ok.message;
  EXPECT_TRUE(answer);
}

TEST(GuardrailTest, GuardedMatchesUnguardedForEveryStrategy) {
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = GuardWorkload(78);
  const QueryLimits limits = {.deadline_ms = 60000};
  const std::vector<std::function<bool(ExecContext&)>> engines = {
      [&](ExecContext& ec) { return WcojBoolean(h, db, &ec); },
      [&](ExecContext& ec) { return TdBooleanBest(h, db, &ec); },
      [&](ExecContext& ec) {
        return ExecutePlan(h, db, ForLoopPlan(h), {}, nullptr, &ec);
      }};
  for (const auto& engine : engines) {
    ExecContext ec(4);
    const bool plain = engine(ec);
    bool guarded = !plain;
    const ExecResult r =
        RunGuarded(ec, limits, [&] { guarded = engine(ec); });
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_EQ(guarded, plain);
  }
  // The ladder walk under the same limits agrees with them.
  ExecContext ec(4);
  bool recovered = false;
  const ExecResult r =
      EvaluateBooleanWithRecovery(h, db, &recovered, &ec, limits);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_EQ(recovered, WcojBoolean(h, db, &ec));
}

TEST(GuardrailTest, FlatIndexCapacityOverflowThrowsQueryAbort) {
  // Beyond the 2^30-entry cap the build reports kCapacityExceeded
  // instead of aborting the process (capacity math only, no allocation).
  try {
    flat_internal::TableCapacity(size_t{1} << 31);
    FAIL() << "expected QueryAbort";
  } catch (const QueryAbort& e) {
    EXPECT_EQ(e.status(), ExecStatus::kCapacityExceeded);
    EXPECT_NE(std::string(e.what()).find("2^30"), std::string::npos);
  }
  // The boundary itself still fits.
  EXPECT_EQ(flat_internal::TableCapacity(size_t{1} << 30), 2147483648u);
}

TEST(WideSortTest, TrieBuildOrderInvariantUnderColumnPermutation) {
  // An instantiation order that reverses the relations' column order
  // forces the trie sort to run (no presorted short-circuit); results
  // must agree with the default order's canonical output.
  Rng rng(54);
  Hypergraph h = Hypergraph::Triangle();
  QueryInput db;
  for (int e = 0; e < 3; ++e) {
    db.relations.push_back(
        UniformRelation(h.edges()[e], 2500, 45, &rng));
  }
  ExecContext ec(1);
  Relation ref = WcojJoin(h, db, h.vertices(), nullptr, &ec);
  const std::vector<int> reversed = {2, 1, 0};
  Relation got = WcojJoin(h, db, h.vertices(), &reversed, &ec);
  EXPECT_EQ(Rows(got), Rows(ref));
}

}  // namespace
}  // namespace fmmsw
