// Tests for the ExecContext pipeline: fused join–semijoin probes (the
// exist_filter / SemijoinAll contracts of relation/ops.h), the parallel
// WCOJ fan-out (identical canonical output across thread counts, including
// skewed heavy-hitter inputs), the partition sort-order cache, and the
// radix-sort path of SortAndDedupe.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/api.h"
#include "core/exec_context.h"
#include "engine/four_cycle.h"
#include "engine/triangle.h"
#include "engine/wcoj.h"
#include "gtest/gtest.h"
#include "relation/degree.h"
#include "relation/flat_index.h"
#include "relation/generators.h"
#include "relation/ops.h"
#include "util/random.h"

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

// The acceptance check for the fused light paths: on a negative instance
// the triangle/4-cycle engines probe light-join candidates but materialize
// none of them (the old pipeline allocated the full filtered-away join).
TEST(FusedStatsTest, TriangleLightPathMaterializesNothingWhenNegative) {
  // Dense-square triangle-free instance: S carries even Z, T odd Z.
  Rng rng(19);
  QueryInput db;
  const int64_t n = 3000, d = 55;
  db.relations.push_back(UniformRelation(VarSet{0, 1}, n, d, &rng));
  Relation raw_s = UniformRelation(VarSet{1, 2}, n, d, &rng);
  Relation raw_t = UniformRelation(VarSet{0, 2}, n, d, &rng);
  Relation s(VarSet{1, 2}), t(VarSet{0, 2});
  for (size_t i = 0; i < raw_s.size(); ++i) {
    s.Add({raw_s.Row(i)[0], 2 * raw_s.Row(i)[1]});
  }
  for (size_t i = 0; i < raw_t.size(); ++i) {
    t.Add({raw_t.Row(i)[0], 2 * raw_t.Row(i)[1] + 1});
  }
  db.relations.push_back(std::move(s));
  db.relations.push_back(std::move(t));

  ExecContext ec(1);
  TriangleStats stats;
  EXPECT_FALSE(TriangleMm(db, 2.371552, MmKernel::kBoolean, &stats, &ec));
  EXPECT_FALSE(stats.answer_from_light);
  EXPECT_EQ(stats.light_join_tuples, 0);  // nothing materialized
  const ExecStats& st = ec.stats();
  EXPECT_GE(st.fused_joins.load(), 3);       // one per light corner
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
  ExecContext ec(4);
  Relation out = WcojJoin(h, db, h.vertices(), nullptr, &ec);
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
  const bool expect = TriangleCombinatorial(db, &ec);
  EXPECT_EQ(EvaluateBoolean(h, db, EvalStrategy::kWcoj, &ec), expect);
  EXPECT_EQ(EvaluateBoolean(h, db, EvalStrategy::kBestTd, &ec), expect);
  EXPECT_EQ(EvaluateBoolean(h, db, EvalStrategy::kElimination, &ec), expect);
  EXPECT_EQ(TriangleMm(db, 2.371552, MmKernel::kBoolean, nullptr, &ec),
            expect);
}

// --------------------------------------------------- sort-order cache ----

TEST(ExecContextTest, SortOrderCacheReusedAcrossPartitions) {
  Rng rng(31);
  Relation r = UniformRelation(VarSet{0, 1}, 500, 40, &rng);
  ExecContext ec(1);
  DegreePartition no_cache2 = PartitionByDegree(r, VarSet{1}, VarSet{0}, 2);
  DegreePartition no_cache9 = PartitionByDegree(r, VarSet{1}, VarSet{0}, 9);
  {
    ExecContext::SortOrderScope scope(ec);
    DegreePartition p2 = PartitionByDegree(r, VarSet{1}, VarSet{0}, 2, &ec);
    // Second partition of the same pinned relation: different threshold,
    // same grouping order — served from the cache.
    DegreePartition p9 = PartitionByDegree(r, VarSet{1}, VarSet{0}, 9, &ec);
    EXPECT_GE(ec.stats().sort_order_hits.load(), 1);
    EXPECT_EQ(Rows(Sorted(p2.heavy)), Rows(Sorted(no_cache2.heavy)));
    EXPECT_EQ(Rows(Sorted(p2.light)), Rows(Sorted(no_cache2.light)));
    EXPECT_EQ(Rows(Sorted(p9.heavy)), Rows(Sorted(no_cache9.heavy)));
    EXPECT_EQ(Rows(Sorted(p9.light)), Rows(Sorted(no_cache9.light)));
  }
  // Outside the scope the cache is inert.
  const int64_t hits = ec.stats().sort_order_hits.load();
  PartitionByDegree(r, VarSet{1}, VarSet{0}, 2, &ec);
  PartitionByDegree(r, VarSet{1}, VarSet{0}, 2, &ec);
  EXPECT_EQ(ec.stats().sort_order_hits.load(), hits);
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
  for (EvalStrategy strategy : {EvalStrategy::kWcoj, EvalStrategy::kBestTd,
                                EvalStrategy::kElimination}) {
    ExecContext ec(4);
    const bool plain = EvaluateBoolean(h, db, strategy, &ec);
    bool guarded = !plain;
    const ExecResult r = RunGuarded(ec, limits, [&] {
      guarded = EvaluateBoolean(h, db, strategy, &ec);
    });
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_EQ(guarded, plain);
  }
  // The ladder walk under the same limits agrees with them.
  ExecContext ec(4);
  bool recovered = false;
  const ExecResult r =
      EvaluateBooleanWithRecovery(h, db, &recovered, &ec, limits);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_EQ(recovered, EvaluateBoolean(h, db, EvalStrategy::kWcoj, &ec));
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
