// Tests for the versioned catalog / snapshot plane (PR 10): epoch-stamped
// immutable relation versions, snapshot isolation (readers pin an epoch
// while commits stream past), copy-on-write staging with atomic
// commit/rollback under fault injection, the version-digest-keyed and
// LRU-bounded WidthCache, fuzz coverage for the FMMSW_FAULT_PLAN parser
// and ValidateQuery, and the headline reader/writer torture harness:
// concurrent readers at 1/4/8 threads during a stream of commits must
// each return results bit-identical to *some* single pinned epoch.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/api.h"
#include "core/database.h"
#include "core/exec_context.h"
#include "core/exec_status.h"
#include "engine/wcoj.h"
#include "gtest/gtest.h"
#include "hypergraph/hypergraph.h"
#include "relation/generators.h"
#include "relation/relation.h"
#include "util/random.h"
#include "util/rational.h"
#include "width/width_cache.h"

namespace fmmsw {
namespace {

Relation MakeRel(VarSet schema, const std::vector<std::vector<Value>>& rows) {
  Relation r(schema);
  for (const auto& t : rows) r.Add(t);
  r.SortAndDedupe();
  return r;
}

std::vector<std::vector<Value>> Rows(const Relation& r) {
  std::vector<std::vector<Value>> out;
  for (size_t i = 0; i < r.size(); ++i) {
    out.emplace_back(r.Row(i), r.Row(i) + r.arity());
  }
  return out;
}

const std::vector<std::string> kTriangleAtoms = {"R", "S", "T"};

/// Deterministic triangle relations for torture/atomicity tests: edge
/// lists over a small domain so appends keep changing the count.
Relation TriangleSide(VarSet schema, uint64_t seed, int tuples, int domain) {
  Rng rng(seed);
  return UniformRelation(schema, tuples, domain, &rng);
}

/// The deterministic per-epoch delta: rows planted into every relation
/// at epoch `e` (same function in the writer and in the serial oracle).
Relation EpochDelta(VarSet schema, int e) {
  Relation d(schema);
  // A tiny clique on two fresh vertices far above every seed domain used
  // in this file, so the delta rows never dedupe against the base and the
  // triangle count strictly changes every epoch.
  const Value a = static_cast<Value>(100000 + 3 * e);
  const Value b = static_cast<Value>(100000 + 3 * e + 1);
  d.Add({a, b});
  d.Add({a, a});
  d.Add({b, b});
  return d;
}

// ---------------------------------------------------------------------
// Catalog basics

TEST(CatalogTest, EmptyCatalogAndFirstCommit) {
  ExecContext ec(1);
  Database db;
  EXPECT_EQ(db.epoch(), 0);
  Snapshot s0 = db.snapshot(&ec);
  EXPECT_EQ(s0.epoch(), 0);
  EXPECT_EQ(s0.num_relations(), 0u);
  EXPECT_EQ(s0.Find("R"), nullptr);
  EXPECT_EQ(ec.stats().snapshots_pinned.load(), 1);

  const int64_t mem_before = ec.stats().mem_current_bytes.load();
  {
    Database::Transaction txn = db.Begin(&ec);
    txn.Replace("R", MakeRel(VarSet{0, 1}, {{1, 2}, {2, 3}}));
    // Nothing visible before the swap.
    EXPECT_EQ(db.epoch(), 0);
    EXPECT_EQ(db.snapshot(&ec).Find("R"), nullptr);
    txn.Commit();
    EXPECT_FALSE(txn.active());
  }
  EXPECT_EQ(db.epoch(), 1);
  EXPECT_EQ(ec.stats().commits.load(), 1);
  // Staged bytes graduated to catalog-owned state: transient balance
  // returns to its pre-transaction level.
  EXPECT_EQ(ec.stats().mem_current_bytes.load(), mem_before);

  Snapshot s1 = db.snapshot(&ec);
  EXPECT_EQ(s1.epoch(), 1);
  ASSERT_NE(s1.Find("R"), nullptr);
  EXPECT_EQ(s1.Find("R")->size(), 2u);
  EXPECT_NE(s1.VersionDigest("R"), 0u);
  // The pre-commit snapshot still sees the empty catalog.
  EXPECT_EQ(s0.Find("R"), nullptr);
  EXPECT_EQ(s0.epoch(), 0);
}

TEST(CatalogTest, SnapshotPinsEpochAcrossCommits) {
  ExecContext ec(1);
  Database db;
  {
    Database::Transaction txn = db.Begin(&ec);
    txn.Replace("R", MakeRel(VarSet{0, 1}, {{1, 10}}));
    txn.Commit();
  }
  Snapshot pinned = db.snapshot(&ec);
  RelationPtr v1 = pinned.Share("R");
  {
    Database::Transaction txn = db.Begin(&ec);
    txn.Replace("R", MakeRel(VarSet{0, 1}, {{7, 70}, {8, 80}}));
    txn.Commit();
  }
  // The pinned snapshot still reads version 1, pointer-identical.
  EXPECT_EQ(pinned.epoch(), 1);
  EXPECT_EQ(pinned.Share("R").get(), v1.get());
  EXPECT_EQ(pinned.Find("R")->size(), 1u);
  // A fresh snapshot reads version 2.
  Snapshot fresh = db.snapshot(&ec);
  EXPECT_EQ(fresh.epoch(), 2);
  EXPECT_EQ(fresh.Find("R")->size(), 2u);
  EXPECT_NE(fresh.Share("R").get(), v1.get());
  EXPECT_NE(fresh.VersionDigest("R"), pinned.VersionDigest("R"));
}

TEST(CatalogTest, UntouchedVersionsAreSharedByPointer) {
  ExecContext ec(1);
  Database db;
  {
    Database::Transaction txn = db.Begin(&ec);
    txn.Replace("R", MakeRel(VarSet{0, 1}, {{1, 2}}));
    txn.Replace("S", MakeRel(VarSet{1, 2}, {{2, 3}}));
    txn.Commit();
  }
  Snapshot before = db.snapshot(&ec);
  {
    Database::Transaction txn = db.Begin(&ec);
    txn.Replace("R", MakeRel(VarSet{0, 1}, {{5, 6}}));
    txn.Commit();
  }
  Snapshot after = db.snapshot(&ec);
  // Copy-on-write: S was untouched, so epoch 2 shares epoch 1's version.
  EXPECT_EQ(after.Share("S").get(), before.Share("S").get());
  EXPECT_NE(after.Share("R").get(), before.Share("R").get());
  EXPECT_EQ(ec.stats().versions_retired.load(), 1);
}

TEST(CatalogTest, VersionsFreeWhenLastSnapshotDrops) {
  ExecContext ec(1);
  Database db;
  {
    Database::Transaction txn = db.Begin(&ec);
    txn.Replace("R", MakeRel(VarSet{0, 1}, {{1, 2}}));
    txn.Commit();
  }
  std::weak_ptr<const Relation> v1_watch;
  {
    Snapshot pinned = db.snapshot(&ec);
    v1_watch = pinned.Share("R");
    {
      Database::Transaction txn = db.Begin(&ec);
      txn.Replace("R", MakeRel(VarSet{0, 1}, {{9, 9}}));
      txn.Commit();
    }
    // Retired version survives while the snapshot pins it.
    EXPECT_FALSE(v1_watch.expired());
  }
  // Last reference gone: the retired version is freed.
  EXPECT_TRUE(v1_watch.expired());
}

TEST(CatalogTest, AppendBuildsUnionDropRemoves) {
  ExecContext ec(1);
  Database db;
  {
    Database::Transaction txn = db.Begin(&ec);
    txn.Replace("R", MakeRel(VarSet{0, 1}, {{1, 2}, {3, 4}}));
    txn.Commit();
  }
  {
    Database::Transaction txn = db.Begin(&ec);
    txn.Append("R", MakeRel(VarSet{0, 1}, {{3, 4}, {5, 6}}));  // {3,4} dupe
    txn.Commit();
  }
  Snapshot s = db.snapshot(&ec);
  EXPECT_EQ(Rows(*s.Find("R")),
            (std::vector<std::vector<Value>>{{1, 2}, {3, 4}, {5, 6}}));
  {
    Database::Transaction txn = db.Begin(&ec);
    txn.Drop("R");
    txn.Commit();
  }
  EXPECT_EQ(db.snapshot(&ec).Find("R"), nullptr);
  // The dropped version stays pinned by the older snapshot.
  EXPECT_EQ(s.Find("R")->size(), 3u);
}

TEST(CatalogTest, AppendSchemaMismatchAndDropMissingThrow) {
  ExecContext ec(1);
  Database db;
  {
    Database::Transaction txn = db.Begin(&ec);
    txn.Replace("R", MakeRel(VarSet{0, 1}, {{1, 2}}));
    txn.Commit();
  }
  Database::Transaction txn = db.Begin(&ec);
  try {
    txn.Append("R", MakeRel(VarSet{1, 2}, {{1, 2}}));
    FAIL() << "schema mismatch must throw";
  } catch (const QueryAbort& e) {
    EXPECT_EQ(e.status(), ExecStatus::kInvalidArgument);
  }
  try {
    txn.Drop("nope");
    FAIL() << "dropping an unknown relation must throw";
  } catch (const QueryAbort& e) {
    EXPECT_EQ(e.status(), ExecStatus::kInvalidArgument);
  }
  // The transaction is still usable and rolls back cleanly.
  EXPECT_TRUE(txn.active());
}

TEST(CatalogTest, RollbackExplicitAndOnDestruction) {
  ExecContext ec(1);
  Database db;
  const int64_t mem_before = ec.stats().mem_current_bytes.load();
  {
    Database::Transaction txn = db.Begin(&ec);
    txn.Replace("R", MakeRel(VarSet{0, 1}, {{1, 2}}));
    txn.Rollback();
    EXPECT_FALSE(txn.active());
  }
  EXPECT_EQ(db.epoch(), 0);
  EXPECT_EQ(ec.stats().rollbacks.load(), 1);
  {
    Database::Transaction txn = db.Begin(&ec);
    txn.Replace("S", MakeRel(VarSet{1, 2}, {{2, 3}}));
    // No Commit: destructor rolls back.
  }
  EXPECT_EQ(db.epoch(), 0);
  EXPECT_EQ(db.snapshot(&ec).num_relations(), 0u);
  EXPECT_EQ(ec.stats().rollbacks.load(), 2);
  EXPECT_EQ(ec.stats().mem_current_bytes.load(), mem_before);
}

// ---------------------------------------------------------------------
// Fault-injected mid-commit atomicity sweep (satellite): for every
// staging/commit fault ordinal, the catalog equals the pre-transaction
// version (pointer-identical entries = bit-identical), the memory
// balance is restored, and an immediate retry of the same transaction
// succeeds.

void SeedTriangleCatalog(Database* db, ExecContext* ec, int tuples,
                         int domain) {
  Database::Transaction txn = db->Begin(ec);
  txn.Replace("R", TriangleSide(VarSet{0, 1}, 11, tuples, domain));
  txn.Replace("S", TriangleSide(VarSet{1, 2}, 22, tuples, domain));
  txn.Replace("T", TriangleSide(VarSet{0, 2}, 33, tuples, domain));
  txn.Commit();
}

/// One full update transaction: append the epoch-2 delta to every side,
/// drop nothing. Shared by the faulted attempt and the clean retry.
void StageUpdate(Database::Transaction* txn) {
  txn->Append("R", EpochDelta(VarSet{0, 1}, 2));
  txn->Append("S", EpochDelta(VarSet{1, 2}, 2));
  txn->Append("T", EpochDelta(VarSet{0, 2}, 2));
  txn->Commit();
}

TEST(AtomicityTest, FaultAtEveryStagingOrdinalRollsBackBitIdentical) {
  int faulted_ordinals = 0;
  bool exhausted = false;
  for (int ordinal = 1; ordinal <= 64 && !exhausted; ++ordinal) {
    ExecContext ec(1);
    Database db;
    SeedTriangleCatalog(&db, &ec, 6000, 80);  // > kStageChunkRows rows
    Snapshot before = db.snapshot(&ec);
    const RelationPtr r0 = before.Share("R");
    const RelationPtr s0 = before.Share("S");
    const RelationPtr t0 = before.Share("T");
    const int64_t mem_before = ec.stats().mem_current_bytes.load();
    const int64_t rollbacks_before = ec.stats().rollbacks.load();

    FaultPlan plan;
    plan.at[static_cast<int>(FaultSite::kOps)] = ordinal;
    ec.guard().SetFaultPlan(plan);
    bool threw = false;
    try {
      Database::Transaction txn = db.Begin(&ec);
      StageUpdate(&txn);
    } catch (const QueryAbort& e) {
      threw = true;
      EXPECT_EQ(e.status(), ExecStatus::kMemoryLimitExceeded)
          << "plan faults are retryable resource pressure";
    }
    ec.guard().SetFaultPlan(FaultPlan{});  // clear the sticky plan
    ec.guard().Disarm();

    if (!threw) {
      // Ordinal beyond the transaction's last poll: the sweep is done.
      exhausted = true;
      EXPECT_EQ(db.epoch(), 2);
      continue;
    }
    ++faulted_ordinals;
    // Catalog bit-identical to the pre-transaction state: same epoch,
    // same version pointers (shared_ptr identity implies identical
    // bytes — versions are immutable).
    Snapshot after = db.snapshot(&ec);
    EXPECT_EQ(after.epoch(), 1);
    EXPECT_EQ(after.Share("R").get(), r0.get());
    EXPECT_EQ(after.Share("S").get(), s0.get());
    EXPECT_EQ(after.Share("T").get(), t0.get());
    // Memory balance restored; the rollback was counted.
    EXPECT_EQ(ec.stats().mem_current_bytes.load(), mem_before);
    EXPECT_EQ(ec.stats().rollbacks.load(), rollbacks_before + 1);
    // An immediate retry of the same transaction succeeds.
    {
      Database::Transaction txn = db.Begin(&ec);
      StageUpdate(&txn);
    }
    EXPECT_EQ(db.epoch(), 2);
    EXPECT_GT(db.snapshot(&ec).Find("R")->size(), r0->size());
  }
  // The sweep must actually have exercised faults at several ordinals
  // and found the end of the transaction's poll stream.
  EXPECT_GE(faulted_ordinals, 5);
  EXPECT_TRUE(exhausted) << "64 ordinals did not exhaust the transaction";
}

// ---------------------------------------------------------------------
// Service entry points: snapshot-bound queries match direct evaluation
// and compose admission.

TEST(ServiceTest, QueryEntryPointsMatchDirectEvaluate) {
  ExecContext ec(1);
  Database db;
  SeedTriangleCatalog(&db, &ec, 1500, 60);
  Snapshot snap = db.snapshot(&ec);
  const Hypergraph h = Hypergraph::Triangle();

  QueryInput direct;
  ASSERT_TRUE(snap.Bind(kTriangleAtoms, &direct).ok());

  // Direct engine answers on the same binding.
  bool direct_bool = false;
  int64_t direct_count = -1;
  Relation direct_join;
  ASSERT_TRUE(RunGuarded(ec, {}, [&] {
                direct_bool = WcojBoolean(h, direct, &ec);
                direct_count = WcojCount(h, direct, &ec);
                direct_join = WcojJoin(h, direct, h.vertices(), nullptr, &ec);
              }).ok());

  // Default options, then the heavy class with armed limits: both go
  // bind -> admit -> ladder and must match the direct answers.
  QueryOptions armed;
  armed.klass = QueryClass::kHeavyAnalytic;
  armed.limits = {.deadline_ms = 60000, .memory_budget_bytes = 1 << 30};
  for (const QueryOptions& opts : {QueryOptions{}, armed}) {
    bool b = !direct_bool;
    ASSERT_TRUE(db.QueryBoolean(snap, h, kTriangleAtoms, &b, opts, &ec).ok());
    EXPECT_EQ(b, direct_bool);
    int64_t c = -1;
    ASSERT_TRUE(db.QueryCount(snap, h, kTriangleAtoms, &c, opts, &ec).ok());
    EXPECT_EQ(c, direct_count);
    Relation j;
    ASSERT_TRUE(
        db.QueryJoin(snap, h, kTriangleAtoms, h.vertices(), &j, opts, &ec)
            .ok());
    EXPECT_EQ(Rows(j), Rows(direct_join));
  }
  EXPECT_GE(ec.stats().admitted.load(), 6);

  // Unknown atom name: clean kInvalidArgument from the binding step.
  int64_t c = -1;
  ExecResult bad =
      db.QueryCount(snap, h, {"R", "S", "missing"}, &c, {}, &ec);
  EXPECT_EQ(bad.status, ExecStatus::kInvalidArgument);
  EXPECT_EQ(c, -1);
}

TEST(ServiceTest, AdmissionShedsWhenSaturated) {
  ExecContext ec(1);
  AdmissionConfig cfg;
  cfg.small_slots = 1;
  cfg.heavy_slots = 1;
  cfg.max_queued = 0;  // no queue: a busy slot sheds immediately
  Database db(cfg);
  SeedTriangleCatalog(&db, &ec, 200, 30);
  Snapshot snap = db.snapshot(&ec);

  AdmissionController::Ticket held;
  ASSERT_TRUE(
      db.admission().Admit(QueryClass::kSmallProbe, {}, ec, &held).ok());
  int64_t c = -1;
  ExecResult shed =
      db.QueryCount(snap, Hypergraph::Triangle(), kTriangleAtoms, &c, {}, &ec);
  EXPECT_EQ(shed.status, ExecStatus::kRejected);
  EXPECT_GE(ec.stats().shed.load(), 1);
}

// ---------------------------------------------------------------------
// WidthCache: version-digest keying + LRU bounding (satellites).

TEST(WidthCachePlaneTest, SnapshotDigestKeysPlansAcrossCommits) {
  ExecContext ec(1);
  WidthCache::Global().Clear();
  Database db;
  SeedTriangleCatalog(&db, &ec, 300, 40);
  const Hypergraph h = Hypergraph::Triangle();
  const Rational omega(3, 1);

  Snapshot snap1 = db.snapshot(&ec);
  WidthReport rep;
  ASSERT_TRUE(
      db.PlanWidths(snap1, h, kTriangleAtoms, omega, &rep, {}, &ec).ok());
  EXPECT_FALSE(rep.from_cache);
  ASSERT_TRUE(
      db.PlanWidths(snap1, h, kTriangleAtoms, omega, &rep, {}, &ec).ok());
  EXPECT_TRUE(rep.from_cache) << "same snapshot -> cache hit";

  {
    Database::Transaction txn = db.Begin(&ec);
    txn.Append("R", EpochDelta(VarSet{0, 1}, 5));
    txn.Commit();
  }
  Snapshot snap2 = db.snapshot(&ec);
  ASSERT_TRUE(
      db.PlanWidths(snap2, h, kTriangleAtoms, omega, &rep, {}, &ec).ok());
  EXPECT_FALSE(rep.from_cache)
      << "a commit to a bound relation must miss the cache";
  // The pinned old snapshot still hits its own keyed entry.
  ASSERT_TRUE(
      db.PlanWidths(snap1, h, kTriangleAtoms, omega, &rep, {}, &ec).ok());
  EXPECT_TRUE(rep.from_cache);
}

TEST(WidthCachePlaneTest, LruEvictionBoundsTheCache) {
  WidthCache cache(2);
  EXPECT_EQ(cache.capacity(), 2u);
  OmegaSubwResult r;
  EXPECT_EQ(cache.Insert("k1", r), 0u);
  EXPECT_EQ(cache.Insert("k2", r), 0u);
  EXPECT_EQ(cache.size(), 2u);
  OmegaSubwResult out;
  EXPECT_TRUE(cache.Lookup("k1", &out));  // k1 -> MRU; k2 is now LRU
  EXPECT_EQ(cache.Insert("k3", r), 1u);   // evicts k2
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.Lookup("k2", &out));
  EXPECT_TRUE(cache.Lookup("k1", &out));
  EXPECT_TRUE(cache.Lookup("k3", &out));
  EXPECT_EQ(cache.evictions(), 1);
  // Re-inserting an existing key refreshes recency without growth.
  EXPECT_EQ(cache.Insert("k1", r), 0u);
  EXPECT_EQ(cache.size(), 2u);
  // Rebounding evicts down immediately; capacity 0 holds nothing.
  EXPECT_EQ(cache.SetCapacity(1), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.SetCapacity(0), 1u);
  EXPECT_EQ(cache.Insert("k4", r), 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(WidthCachePlaneTest, GlobalEvictionsLandInExecStats) {
  ExecContext ec(1);
  WidthCache::Global().Clear();
  const size_t old_cap = WidthCache::Global().capacity();
  WidthCache::Global().SetCapacity(1);
  const Rational omega(3, 1);
  OmegaSubwOptions opts;
  // Two distinct shapes through a capacity-1 cache: the second insert
  // evicts the first, and the planner call site reports it.
  ComputeWidths(Hypergraph::Triangle(), omega, opts, &ec);
  ComputeWidths(Hypergraph::Cycle(4), omega, opts, &ec);
  EXPECT_GE(ec.stats().width_cache_evictions.load(), 1);
  WidthCache::Global().SetCapacity(old_cap);
  WidthCache::Global().Clear();
}

// ---------------------------------------------------------------------
// Fuzz/property tests (satellite): hostile FMMSW_FAULT_PLAN specs and
// malformed query/database pairs surface clean errors, never UB/abort.

TEST(FuzzTest, FaultPlanParserSurvivesHostileSpecs) {
  const std::vector<std::string> sites = {"wcoj", "sort",  "index", "mm",
                                          "lp",   "panda", "ops",   "bogus",
                                          "",     "OPS",   "ops "};
  const std::vector<std::string> counts = {
      "1",
      "64",
      "0",
      "-3",
      "",
      "7x",
      "every-8",
      "every-",
      "every-0",
      "99999999999999999999999999",  // overflow ordinal
      "184467440737095516150",       // > uint64 range
      "000000000000000000000000001",
      std::string(1, '\0'),
      std::string("1\0003", 3),  // embedded NUL
  };
  Rng rng(1234);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string spec;
    const int clauses = static_cast<int>(rng.Uniform(0, 4));
    for (int c = 0; c < clauses; ++c) {
      if (c > 0 || rng.Flip(0.2)) spec += ";";
      if (rng.Flip(0.1)) continue;  // empty segment
      spec += sites[rng.Uniform(0, sites.size() - 1)];
      if (rng.Flip(0.9)) spec += ":";
      spec += counts[rng.Uniform(0, counts.size() - 1)];
    }
    if (rng.Flip(0.05)) spec += std::string(1, '\0');
    FaultPlan plan;
    std::string error;
    const bool ok = ParseFaultPlan(spec, &plan, &error);
    if (!ok) {
      EXPECT_FALSE(error.empty()) << "spec: " << spec;
    } else {
      // Parsed plans carry only positive ordinals.
      for (int s = 0; s < kNumFaultSites; ++s) {
        EXPECT_GE(plan.at[s], 0);
        EXPECT_GE(plan.every[s], 0);
      }
    }
  }
  // Property anchors: known-good and known-bad specs.
  FaultPlan plan;
  EXPECT_TRUE(ParseFaultPlan("wcoj:7;sort:every-64", &plan, nullptr));
  EXPECT_EQ(plan.at[static_cast<int>(FaultSite::kWcoj)], 7);
  EXPECT_EQ(plan.every[static_cast<int>(FaultSite::kSort)], 64);
  EXPECT_TRUE(ParseFaultPlan(";;;", &plan, nullptr));
  EXPECT_FALSE(ParseFaultPlan("ops:99999999999999999999999999", &plan,
                              nullptr));
  EXPECT_FALSE(ParseFaultPlan(std::string("ops:1\0003", 7), &plan, nullptr));
  EXPECT_FALSE(ParseFaultPlan(std::string("ops:1\0", 6), &plan, nullptr));
}

TEST(FuzzTest, ValidateQueryRejectsMalformedPairsCleanly) {
  Rng rng(77);
  const Hypergraph shapes[] = {Hypergraph::Triangle(), Hypergraph::Cycle(4),
                               Hypergraph::Clique(4)};
  for (int iter = 0; iter < 500; ++iter) {
    const Hypergraph& h = shapes[rng.Uniform(0, 2)];
    QueryInput db;
    // Random structural corruption: wrong relation count, shuffled or
    // junk schemas, or a fully valid pair.
    const size_t n_rel =
        rng.Flip(0.3) ? rng.Uniform(0, h.edges().size() + 2)
                      : h.edges().size();
    bool valid = n_rel == h.edges().size();
    for (size_t i = 0; i < n_rel; ++i) {
      VarSet schema = i < h.edges().size() ? h.edges()[i] : VarSet{0, 1};
      if (rng.Flip(0.25)) {
        schema = VarSet(static_cast<uint32_t>(
            rng.Uniform(0, (1u << kMaxVars) - 1)));
        if (i < h.edges().size() && schema != h.edges()[i]) valid = false;
      }
      Relation r(schema);
      if (rng.Flip(0.5)) {
        std::vector<Value> row(static_cast<size_t>(r.arity()), 1);
        r.Add(row);
      }
      db.relations.push_back(std::move(r));
    }
    const ExecResult res = ValidateQuery(h, db);
    if (valid) {
      EXPECT_TRUE(res.ok()) << "iter " << iter;
    } else {
      EXPECT_EQ(res.status, ExecStatus::kInvalidArgument) << "iter " << iter;
      EXPECT_FALSE(res.message.empty());
    }
    // Every status-returning entry point converts the same corruption to
    // the same status, never an abort, and leaves its output untouched.
    bool out_bool = true;
    int64_t out_count = -7;
    Relation out_join = MakeRel(VarSet{0}, {{-7}});
    EXPECT_EQ(EvaluateBooleanWithRecovery(h, db, &out_bool).status,
              res.status);
    EXPECT_EQ(EvaluateCountWithRecovery(h, db, &out_count).status,
              res.status);
    EXPECT_EQ(EvaluateJoinWithRecovery(h, db, h.vertices(), &out_join).status,
              res.status);
    if (!valid) {
      EXPECT_TRUE(out_bool) << "iter " << iter;
      EXPECT_EQ(out_count, -7) << "iter " << iter;
      EXPECT_EQ(Rows(out_join), (std::vector<std::vector<Value>>{{-7}}))
          << "iter " << iter;
    }
  }
}

// ---------------------------------------------------------------------
// Headline torture harness: concurrent readers during a stream of
// commits each return results bit-identical to some single pinned epoch.

struct EpochOracle {
  std::vector<int64_t> count;                           // by epoch
  std::vector<std::vector<std::vector<Value>>> rows;    // join rows by epoch
};

/// Serially precomputes the expected triangle count and join rows for
/// every epoch the torture writer will commit.
EpochOracle BuildOracle(int base_tuples, int domain, int last_epoch) {
  EpochOracle oracle;
  oracle.count.resize(last_epoch + 1, -1);
  oracle.rows.resize(last_epoch + 1);
  ExecContext ec(1);
  const Hypergraph h = Hypergraph::Triangle();
  Relation r = TriangleSide(VarSet{0, 1}, 11, base_tuples, domain);
  Relation s = TriangleSide(VarSet{1, 2}, 22, base_tuples, domain);
  Relation t = TriangleSide(VarSet{0, 2}, 33, base_tuples, domain);
  for (int e = 1; e <= last_epoch; ++e) {
    if (e > 1) {
      // Same deltas the writer commits for epoch e.
      Relation dr = EpochDelta(VarSet{0, 1}, e);
      Relation ds = EpochDelta(VarSet{1, 2}, e);
      Relation dt = EpochDelta(VarSet{0, 2}, e);
      for (size_t i = 0; i < dr.size(); ++i) r.AddRow(dr.Row(i));
      for (size_t i = 0; i < ds.size(); ++i) s.AddRow(ds.Row(i));
      for (size_t i = 0; i < dt.size(); ++i) t.AddRow(dt.Row(i));
      r.SortAndDedupe(&ec);
      s.SortAndDedupe(&ec);
      t.SortAndDedupe(&ec);
    }
    QueryInput db;
    db.relations = {r, s, t};
    oracle.count[e] = WcojCount(h, db, &ec);
    oracle.rows[e] = Rows(WcojJoin(h, db, h.vertices(), nullptr, &ec));
  }
  return oracle;
}

/// Readers loop {pin snapshot, query, check against the oracle at the
/// pinned epoch} while the writer commits epochs 2..last. `fault_plan`
/// additionally injects a sticky ops-site fault into every first commit
/// attempt, proving aborted transactions stay invisible to readers.
void RunTorture(int reader_threads, int last_epoch, bool fault_plan) {
  const int kBaseTuples = 1200;
  const int kDomain = 50;
  const EpochOracle oracle = BuildOracle(kBaseTuples, kDomain, last_epoch);

  Database db;
  ExecContext writer_ec(1);
  SeedTriangleCatalog(&db, &writer_ec, kBaseTuples, kDomain);
  ASSERT_EQ(db.epoch(), 1);
  const Hypergraph h = Hypergraph::Triangle();

  std::atomic<bool> done{false};
  std::atomic<int64_t> reads{0};
  std::vector<std::thread> readers;
  readers.reserve(static_cast<size_t>(reader_threads));
  for (int i = 0; i < reader_threads; ++i) {
    readers.emplace_back([&db, &h, &oracle, &done, &reads, i]() {
      ExecContext ec(1);
      uint64_t iter = 0;
      while (!done.load(std::memory_order_acquire)) {
        Snapshot snap = db.snapshot(&ec);
        const int64_t epoch = snap.epoch();
        ASSERT_GE(epoch, 1);
        ASSERT_LT(epoch, static_cast<int64_t>(oracle.count.size()));
        if ((iter + static_cast<uint64_t>(i)) % 4 == 0) {
          // Full-join read: bit-identical rows for the pinned epoch.
          Relation j;
          ASSERT_TRUE(db.QueryJoin(snap, h, kTriangleAtoms, h.vertices(),
                                   &j, {}, &ec)
                          .ok());
          ASSERT_EQ(Rows(j), oracle.rows[static_cast<size_t>(epoch)])
              << "reader " << i << " epoch " << epoch;
        } else {
          int64_t c = -1;
          ASSERT_TRUE(
              db.QueryCount(snap, h, kTriangleAtoms, &c, {}, &ec).ok());
          ASSERT_EQ(c, oracle.count[static_cast<size_t>(epoch)])
              << "reader " << i << " epoch " << epoch;
        }
        ++iter;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // The commit stream starts only once the readers have read: on a
  // loaded machine the writer could otherwise land every epoch before
  // any reader is scheduled, and the test would exercise no concurrency.
  // Bounded, because a reader that failed an assertion stops reading.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (reads.load() < reader_threads &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  for (int e = 2; e <= last_epoch; ++e) {
    if (fault_plan) {
      // First attempt aborts at a staging ordinal: readers must never
      // observe it. The retry below lands the epoch.
      FaultPlan plan;
      plan.at[static_cast<int>(FaultSite::kOps)] = 2;
      writer_ec.guard().SetFaultPlan(plan);
      // Arm resets the per-site poll ordinals so the one-shot at=2 fault
      // fires for THIS attempt (ordinals are cumulative while armed).
      writer_ec.guard().Arm(QueryLimits{});
      bool threw = false;
      try {
        Database::Transaction txn = db.Begin(&writer_ec);
        txn.Append("R", EpochDelta(VarSet{0, 1}, e));
        txn.Append("S", EpochDelta(VarSet{1, 2}, e));
        txn.Append("T", EpochDelta(VarSet{0, 2}, e));
        txn.Commit();
      } catch (const QueryAbort&) {
        threw = true;
      }
      writer_ec.guard().SetFaultPlan(FaultPlan{});
      writer_ec.guard().Disarm();
      ASSERT_TRUE(threw);
      ASSERT_EQ(db.epoch(), e - 1);
    }
    {
      Database::Transaction txn = db.Begin(&writer_ec);
      txn.Append("R", EpochDelta(VarSet{0, 1}, e));
      txn.Append("S", EpochDelta(VarSet{1, 2}, e));
      txn.Append("T", EpochDelta(VarSet{0, 2}, e));
      txn.Commit();
    }
    ASSERT_EQ(db.epoch(), e);
    std::this_thread::yield();
  }

  done.store(true, std::memory_order_release);
  for (std::thread& th : readers) th.join();
  EXPECT_GT(reads.load(), 0);
  EXPECT_EQ(writer_ec.stats().commits.load(), last_epoch);
  if (fault_plan) {
    EXPECT_EQ(writer_ec.stats().rollbacks.load(), last_epoch - 1);
  }
  // Final state: one more reader validates the last epoch serially.
  ExecContext ec(1);
  int64_t c = -1;
  Snapshot fin = db.snapshot(&ec);
  EXPECT_EQ(fin.epoch(), last_epoch);
  ASSERT_TRUE(db.QueryCount(fin, h, kTriangleAtoms, &c, {}, &ec).ok());
  EXPECT_EQ(c, oracle.count[static_cast<size_t>(last_epoch)]);
}

TEST(TortureTest, SingleReaderDuringCommitStream) { RunTorture(1, 10, false); }

TEST(TortureTest, FourReadersDuringCommitStream) { RunTorture(4, 10, false); }

TEST(TortureTest, EightReadersDuringCommitStream) { RunTorture(8, 10, false); }

TEST(TortureTest, FourReadersUnderSiteKeyedFaultPlan) {
  RunTorture(4, 8, true);
}

}  // namespace
}  // namespace fmmsw
