// The generic join's data-aware variable order (engine/wcoj.h WcojOrder)
// and the value sets it reads (Relation::value_sets): answers through
// Database::Query* under every renaming of a query's variables and every
// order of its edges, the order itself under renaming, the sets' exact
// bytes on a catalog version and on a direct QueryInput, and the negative
// instances bench_exponents sweeps.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/exec_context.h"
#include "engine/td_eval.h"
#include "engine/wcoj.h"
#include "gtest/gtest.h"
#include "hypergraph/hypergraph.h"
#include "query_shapes.h"
#include "relation/generators.h"
#include "relation/relation.h"
#include "wcoj_rules.h"

namespace fmmsw {
namespace {

struct Case {
  std::string name;
  Hypergraph h;
  QueryInput db;
};

/// `db` with variable `var` split by parity: even in the first relation
/// holding it, odd in the others, so it has no candidate.
QueryInput SplitByParity(const QueryInput& db, int var) {
  QueryInput out;
  bool first = true;
  for (const Relation& r : db.relations) {
    if (!r.schema().Contains(var)) {
      out.relations.push_back(r);
      continue;
    }
    const int col = r.ColumnOf(var);
    Relation split(r.schema());
    std::vector<Value> row(r.arity());
    for (size_t i = 0; i < r.size(); ++i) {
      std::copy(r.Row(i), r.Row(i) + r.arity(), row.begin());
      row[col] = 2 * row[col] + (first ? 0 : 1);
      split.AddRow(row.data());
    }
    split.SortAndDedupe();
    out.relations.push_back(std::move(split));
    first = false;
  }
  return out;
}

/// Triangle, 4-cycle, 3-pyramid and 4-clique on a planted dense and a
/// planted Zipf instance, each also with its last variable split by
/// parity.
std::vector<Case> Families() {
  const std::vector<std::pair<std::string, Hypergraph>> shapes = {
      {"triangle", Hypergraph::Triangle()},
      {"cycle4", Hypergraph::Cycle(4)},
      {"pyramid3", Hypergraph::Pyramid(3)},
      {"clique4", Hypergraph::Clique(4)},
  };
  std::vector<Case> out;
  for (const auto& [name, h] : shapes) {
    WorkloadOptions dense;
    dense.kind = WorkloadKind::kDense;
    dense.domain = 8;
    dense.dense_density = 0.5;
    dense.seed = 3;
    dense.plant_witness = true;
    WorkloadOptions zipf;
    zipf.kind = WorkloadKind::kZipf;
    zipf.tuples_per_relation = 40;
    zipf.domain = 12;
    zipf.zipf_alpha = 1.3;
    zipf.seed = 5;
    zipf.plant_witness = true;
    for (const auto& [kind, opts] : {std::pair{"dense", dense},
                                     std::pair{"zipf", zipf}}) {
      const QueryInput db = MakeWorkload(h, opts);
      out.push_back({name + " " + kind, h, db});
      out.push_back({name + " " + kind + " split", h,
                     SplitByParity(db, h.num_vars() - 1)});
    }
  }
  return out;
}

std::vector<std::vector<int>> AllPermutations(int n) {
  std::vector<int> p(n);
  std::iota(p.begin(), p.end(), 0);
  std::vector<std::vector<int>> out;
  do {
    out.push_back(p);
  } while (std::next_permutation(p.begin(), p.end()));
  return out;
}

/// `c`'s query with variable v renamed to var_perm[v] and, at position i,
/// the edge that was at edge_perm[i], each relation carried along.
Case Permute(const Case& c, const std::vector<int>& var_perm,
             const std::vector<int>& edge_perm) {
  Case out{c.name, Hypergraph(c.h.num_vars()), {}};
  for (int e : edge_perm) {
    const Relation& r = c.db.relations[e];
    VarSet schema;
    for (int v : r.vars()) schema.Add(var_perm[v]);
    out.h.AddEdge(schema);
    Relation moved(schema);
    std::vector<Value> row(r.arity());
    for (size_t i = 0; i < r.size(); ++i) {
      for (int col = 0; col < r.arity(); ++col) {
        row[moved.ColumnOf(var_perm[r.vars()[col]])] = r.Row(i)[col];
      }
      moved.AddRow(row.data());
    }
    out.db.relations.push_back(std::move(moved));
  }
  return out;
}

/// Loads `c` into a fresh catalog as atoms A0, A1, ... and checks every
/// answer of Database::Query* against `expect` (the oracle's rows over
/// the unpermuted variables) on each context, and, when the original
/// order had no tie, that WcojOrder of the bound query is the original
/// order renamed.
void ExpectInvariant(const Case& c, const std::vector<int>& var_perm,
                     const std::vector<std::vector<Value>>& expect,
                     const std::vector<int>* untied_order,
                     const std::vector<std::unique_ptr<ExecContext>>& contexts,
                     const std::string& where) {
  Database catalog;
  std::vector<std::string> atoms;
  {
    Database::Transaction txn = catalog.Begin();
    for (size_t e = 0; e < c.db.relations.size(); ++e) {
      atoms.push_back("A" + std::to_string(e));
      txn.Replace(atoms.back(), c.db.relations[e]);
    }
    txn.Commit();
  }
  const Snapshot snap = catalog.snapshot();
  if (untied_order != nullptr) {
    QueryInput bound;
    ASSERT_TRUE(snap.Bind(atoms, &bound).ok());
    std::vector<int> renamed;
    for (int v : *untied_order) renamed.push_back(var_perm[v]);
    EXPECT_EQ(WcojOrder(c.h, bound), renamed) << where;
  }
  for (const std::unique_ptr<ExecContext>& ctx : contexts) {
    ExecContext& ec = *ctx;
    const std::string at = where + " threads=" + std::to_string(ec.threads());
    bool any = !expect.empty();
    ASSERT_TRUE(catalog.QueryBoolean(snap, c.h, atoms, &any, {}, &ec).ok())
        << at;
    EXPECT_EQ(any, !expect.empty()) << at;
    int64_t count = -1;
    ASSERT_TRUE(catalog.QueryCount(snap, c.h, atoms, &count, {}, &ec).ok())
        << at;
    EXPECT_EQ(count, static_cast<int64_t>(expect.size())) << at;
    Relation joined;
    ASSERT_TRUE(catalog
                    .QueryJoin(snap, c.h, atoms, c.h.vertices(), &joined, {},
                               &ec)
                    .ok())
        << at;
    std::vector<std::vector<Value>> rows;
    for (size_t i = 0; i < joined.size(); ++i) {
      std::vector<Value> row(c.h.num_vars());
      for (int v = 0; v < c.h.num_vars(); ++v) {
        row[v] = joined.Get(i, var_perm[v]);
      }
      rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end());
    EXPECT_EQ(rows, expect) << at;
  }
}

TEST(WcojOrderTest, RenamingVariablesAndReorderingEdgesKeepsAnswers) {
  std::vector<std::unique_ptr<ExecContext>> contexts;
  for (int threads : {1, 2, 4}) {
    contexts.push_back(std::make_unique<ExecContext>(threads));
  }
  int untied = 0, split_cases = 0;
  for (const Case& c : Families()) {
    const std::vector<std::vector<Value>> expect = NestedLoopJoin(c.h, c.db);
    bool tied = false;
    const std::vector<int> order = GreedyOrderOracle(c.h, c.db, &tied);
    EXPECT_EQ(WcojOrder(c.h, c.db), order) << c.name;
    untied += tied ? 0 : 1;
    if (NoCandidate(c.h, c.db)) {
      ++split_cases;
      EXPECT_TRUE(expect.empty()) << c.name;
    }
    const int k = c.h.num_vars();
    const int m = static_cast<int>(c.h.edges().size());
    std::vector<int> identity_vars(k), identity_edges(m);
    std::iota(identity_vars.begin(), identity_vars.end(), 0);
    std::iota(identity_edges.begin(), identity_edges.end(), 0);
    for (const std::vector<int>& var_perm : AllPermutations(k)) {
      ExpectInvariant(Permute(c, var_perm, identity_edges), var_perm, expect,
                      tied ? nullptr : &order, contexts,
                      c.name + " vars " + ::testing::PrintToString(var_perm));
    }
    for (const std::vector<int>& edge_perm : AllPermutations(m)) {
      ExpectInvariant(
          Permute(c, identity_vars, edge_perm), identity_vars, expect,
          tied ? nullptr : &order, contexts,
          c.name + " edges " + ::testing::PrintToString(edge_perm));
    }
  }
  // Every split copy must end before its tries, and some orders must be
  // free of ties, or the renamed-order check never runs.
  EXPECT_EQ(split_cases, 8);
  EXPECT_GT(untied, 0);
}

TEST(WcojOrderTest, CountersMarkReorderedAndEmptyRuns) {
  // Z has 10 candidates, X and Y 40: the order is Z, X, Y.
  const Hypergraph h = Hypergraph::Triangle();
  Relation r(VarSet{0, 1}), s(VarSet{1, 2}), t(VarSet{0, 2});
  for (Value i = 0; i < 40; ++i) {
    r.Add({i, i});
    s.Add({i, i % 10});
    t.Add({i, i % 10});
  }
  QueryInput db;
  db.relations = {r, s, t};
  EXPECT_EQ(WcojOrder(h, db), (std::vector<int>{2, 0, 1}));
  ExecContext ec(1);
  EXPECT_EQ(WcojCount(h, db, &ec), 40);
  EXPECT_EQ(ec.stats().wcoj_reordered.load(), 1);
  EXPECT_EQ(ec.stats().wcoj_empty_candidates.load(), 0);
  // An explicit index order is honoured and is not a reordering.
  const std::vector<int> index_order = {0, 1, 2};
  EXPECT_EQ(WcojJoin(h, db, h.vertices(), &index_order, &ec).size(), 40u);
  EXPECT_EQ(ec.stats().wcoj_reordered.load(), 1);
  // Split Z by parity: no candidate, so the run builds nothing.
  const QueryInput split = SplitByParity(db, 2);
  const int64_t sorts = ec.stats().sort_calls.load();
  EXPECT_FALSE(WcojBoolean(h, split, &ec));
  EXPECT_EQ(WcojCount(h, split, &ec), 0);
  EXPECT_TRUE(WcojJoin(h, split, h.vertices(), nullptr, &ec).empty());
  EXPECT_EQ(ec.stats().wcoj_empty_candidates.load(), 3);
  EXPECT_EQ(ec.stats().wcoj_reordered.load(), 1);
  EXPECT_EQ(ec.stats().wcoj_runs.load(), 5);
  EXPECT_EQ(ec.stats().sort_calls.load(), sorts);
  const std::string dump = ec.stats().ToString();
  EXPECT_NE(dump.find("wcoj_reordered       : 1"), std::string::npos) << dump;
  EXPECT_NE(dump.find("wcoj_empty_candidates : 3"), std::string::npos)
      << dump;
  ec.stats().Reset();
  EXPECT_EQ(ec.stats().wcoj_reordered.load(), 0);
  EXPECT_EQ(ec.stats().wcoj_empty_candidates.load(), 0);
}

/// R(X, Y, Z) with X in [-70, 30), Y = 1000 + (7 i mod 50) and Z = 1000 i
/// for row i. X's window of 100 spans words -2 .. 0 (3 words), Y's of 50
/// words 15 .. 16 (2 words); Z's of 99001 exceeds 4 x 100 rows, so it
/// keeps no set.
Relation ThreeColumns() {
  Relation r(VarSet{0, 1, 2});
  for (Value i = 0; i < 100; ++i) {
    r.Add({i - 70, 1000 + (7 * i) % 50, 1000 * i});
  }
  return r;
}
constexpr int64_t kThreeColumnSetBytes = (3 + 2) * 8;

TEST(ValueSetTest, CatalogVersionKeepsSetsChargedWithItsRows) {
  ExecContext ec(1);
  Database catalog;
  Database::Transaction txn = catalog.Begin(&ec);
  txn.Replace("R", ThreeColumns());
  EXPECT_EQ(ec.stats().mem_current_bytes.load(),
            100 * 3 * static_cast<int64_t>(sizeof(Value)) +
                kThreeColumnSetBytes);
  txn.Commit();
  EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
  const Snapshot snap = catalog.snapshot();
  const Relation& version = *snap.Find("R");
  ASSERT_NE(version.value_sets(), nullptr);
  const ValueSets& sets = *version.value_sets();
  ASSERT_EQ(sets.size(), 3u);
  EXPECT_TRUE(sets[0].kept);
  EXPECT_EQ(sets[0].first_word, -2);
  // Values -70 .. 29: bits 58 .. 63 of word -2, all of word -1, bits
  // 0 .. 29 of word 0.
  EXPECT_EQ(sets[0].words, (std::vector<uint64_t>{
                               ~uint64_t{0} << 58, ~uint64_t{0},
                               (uint64_t{1} << 30) - 1}));
  EXPECT_TRUE(sets[1].kept);
  EXPECT_EQ(sets[1].first_word, 15);
  EXPECT_EQ(sets[1].words.size(), 2u);
  EXPECT_FALSE(sets[2].kept);
  EXPECT_TRUE(sets[2].words.empty());
  // Every handle to the version carries the same sets, also through the
  // ear pass, which passes a cyclic query's versions on untouched.
  EXPECT_EQ(snap.Share("R")->value_sets(), version.value_sets());
  Database::Transaction tri = catalog.Begin(&ec);
  Relation r(VarSet{0, 1}), s(VarSet{1, 2}), t(VarSet{0, 2});
  for (Value i = 0; i < 8; ++i) {
    r.Add({i, i});
    s.Add({i, i});
    t.Add({i, i});
  }
  tri.Replace("R2", r);
  tri.Replace("S2", s);
  tri.Replace("T2", t);
  tri.Commit();
  QueryInput bound;
  ASSERT_TRUE(catalog.snapshot().Bind({"R2", "S2", "T2"}, &bound).ok());
  Hypergraph core;
  QueryInput core_db;
  ASSERT_TRUE(
      ReduceEars(Hypergraph::Triangle(), bound, &core, &core_db, &ec));
  ASSERT_EQ(core_db.relations.size(), 3u);
  for (size_t e = 0; e < 3; ++e) {
    ASSERT_NE(bound.relations[e].value_sets(), nullptr);
    EXPECT_EQ(core_db.relations[e].value_sets(),
              bound.relations[e].value_sets());
  }
  // A catalog-bound run reads the kept sets: it charges nothing to order
  // its variables, and the AND is word by word, with no scratch.
  ExecContext run_ec(1);
  Relation empty_s(VarSet{1, 2});
  for (Value i = 0; i < 8; ++i) empty_s.Add({i, 100 + i});
  Database::Transaction split = catalog.Begin(&run_ec);
  split.Replace("S3", empty_s);
  split.Commit();
  ASSERT_TRUE(catalog.snapshot().Bind({"R2", "S3", "T2"}, &bound).ok());
  run_ec.stats().Reset();
  EXPECT_FALSE(WcojBoolean(Hypergraph::Triangle(), bound, &run_ec));
  EXPECT_EQ(run_ec.stats().wcoj_empty_candidates.load(), 1);
  EXPECT_EQ(run_ec.stats().mem_peak_bytes.load(), 0);
}

TEST(ValueSetTest, MutatedCopyCarriesNoSets) {
  Database catalog;
  Database::Transaction txn = catalog.Begin();
  txn.Replace("R", ThreeColumns());
  txn.Commit();
  const Snapshot snap = catalog.snapshot();
  const Relation& version = *snap.Find("R");
  Relation copy = version;
  EXPECT_EQ(copy.value_sets(), version.value_sets());
  copy.Add({0, 1000, 0});
  EXPECT_EQ(copy.value_sets(), nullptr);
  Relation row_copy = version;
  const Value row[3] = {1, 1001, 7};
  row_copy.AddRow(row);
  EXPECT_EQ(row_copy.value_sets(), nullptr);
  Relation rows_copy = version;
  rows_copy.AddRows(row, 1);
  EXPECT_EQ(rows_copy.value_sets(), nullptr);
  Relation sorted_copy = version;
  sorted_copy.SortAndDedupe();
  EXPECT_EQ(sorted_copy.value_sets(), nullptr);
  // The version itself keeps them.
  ASSERT_NE(version.value_sets(), nullptr);
  EXPECT_EQ(version.value_sets()->size(), 3u);
  // A relation built outside the catalog has none until asked.
  Relation direct = ThreeColumns();
  EXPECT_EQ(direct.value_sets(), nullptr);
  direct.KeepValueSets(nullptr);
  ASSERT_NE(direct.value_sets(), nullptr);
  EXPECT_EQ(direct.value_sets()->at(0).words,
            version.value_sets()->at(0).words);
}

TEST(ValueSetTest, DirectQueryInputChargesPerQuerySetsBeforeAllocation) {
  // Triangle with Z even in S and odd in T, given directly (no kept
  // sets): R(X, Y) 10 x 10 over one word each; S(Y, Z) Y in [0, 10), Z in
  // [0, 98], one and two words; T(X, Z) X in [0, 10), Z in [1, 99], one
  // and two words. The run charges those 8 words, finds Z empty and
  // stops, so they are its whole peak.
  const Hypergraph h = Hypergraph::Triangle();
  Relation r(VarSet{0, 1}), s(VarSet{1, 2}), t(VarSet{0, 2});
  for (Value a = 0; a < 10; ++a) {
    for (Value b = 0; b < 10; ++b) r.Add({a, b});
    for (Value k = 0; k < 50; ++k) {
      s.Add({a, 2 * k});
      t.Add({a, 2 * k + 1});
    }
  }
  QueryInput db;
  db.relations = {r, s, t};
  ASSERT_EQ(db.relations[0].value_sets(), nullptr);
  constexpr int64_t kSetBytes = (1 + 1 + 1 + 2 + 1 + 2) * 8;
  for (int threads : {1, 4}) {
    ExecContext ec(threads);
    bool answer = true;
    const auto run = [&] { answer = WcojBoolean(h, db, &ec); };
    // One byte short: the abort comes before T's sets are allocated and
    // leaves nothing charged.
    const ExecResult aborted =
        RunGuarded(ec, {.memory_budget_bytes = kSetBytes - 1}, run);
    ASSERT_EQ(aborted.status, ExecStatus::kMemoryLimitExceeded);
    EXPECT_TRUE(answer);
    EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
    EXPECT_EQ(ec.stats().wcoj_empty_candidates.load(), 0);
    ec.stats().Reset();
    const ExecResult ok =
        RunGuarded(ec, {.memory_budget_bytes = kSetBytes}, run);
    ASSERT_TRUE(ok.ok()) << ok.message;
    EXPECT_FALSE(answer);
    EXPECT_EQ(ec.stats().mem_peak_bytes.load(), kSetBytes) << threads;
    EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
    EXPECT_EQ(ec.stats().wcoj_empty_candidates.load(), 1);
  }
}

TEST(WcojOrderTest, BenchInstancesAreNegativeWithEveryVariableACandidate) {
  const Case cases[] = {
      {"triangle_pendant", TrianglePendantQuery(), TrianglePendantNegative(60)},
      {"four_cycle", Hypergraph::Cycle(4), FourCycleInstance(300)},
      {"pyramid", Hypergraph::Pyramid(3), PyramidInstance(400)},
  };
  for (const Case& c : cases) {
    EXPECT_TRUE(NestedLoopJoin(c.h, c.db).empty()) << c.name;
    const std::vector<int64_t> count = CandidateCountsOracle(c.h, c.db);
    for (int v : c.h.vertices().Members()) {
      EXPECT_GT(count[v], 0) << c.name << " var " << v;
    }
    ExecContext ec(1);
    EXPECT_FALSE(WcojBoolean(c.h, c.db, &ec)) << c.name;
    EXPECT_EQ(WcojCount(c.h, c.db, &ec), 0) << c.name;
    EXPECT_EQ(ec.stats().wcoj_empty_candidates.load(), 0) << c.name;
  }
}

}  // namespace
}  // namespace fmmsw
