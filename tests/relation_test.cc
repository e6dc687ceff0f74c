// Tests for relations, relational operators, degree statistics /
// partitioning (Definition E.9), and the workload generators.

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/exec_context.h"
#include "gtest/gtest.h"
#include "relation/degree.h"
#include "relation/flat_index.h"
#include "relation/generators.h"
#include "relation/ops.h"
#include "relation/relation.h"

namespace fmmsw {
namespace {

Relation MakeRel(VarSet schema, std::vector<std::vector<Value>> rows) {
  Relation r(schema);
  for (const auto& row : rows) r.Add(row);
  return r;
}

TEST(RelationTest, SchemaAndColumns) {
  Relation r(VarSet{1, 3});
  EXPECT_EQ(r.arity(), 2);
  EXPECT_EQ(r.ColumnOf(1), 0);
  EXPECT_EQ(r.ColumnOf(3), 1);
  r.Add({10, 30});
  EXPECT_EQ(r.Get(0, 1), 10);
  EXPECT_EQ(r.Get(0, 3), 30);
}

TEST(RelationTest, SortAndDedupe) {
  Relation r = MakeRel(VarSet{0, 1}, {{2, 1}, {1, 1}, {2, 1}, {1, 0}});
  r.SortAndDedupe();
  EXPECT_EQ(r.size(), 3u);
  EXPECT_TRUE(r.Contains({1, 0}));
  EXPECT_TRUE(r.Contains({1, 1}));
  EXPECT_TRUE(r.Contains({2, 1}));
  EXPECT_FALSE(r.Contains({0, 0}));
}

std::vector<std::vector<Value>> RowsOf(const Relation& r) {
  std::vector<std::vector<Value>> out;
  out.reserve(r.size());
  for (size_t i = 0; i < r.size(); ++i) {
    out.emplace_back(r.Row(i), r.Row(i) + r.arity());
  }
  return out;
}

// SortAndDedupe routes every arity through the wide-key radix layer;
// the differential reference is the mathematical spec itself: sorted
// unique rows under signed lexicographic order.
TEST(RelationTest, WideSortAndDedupeMatchesReferenceAcrossArities) {
  Rng rng(31);
  for (int arity : {1, 2, 3, 5, 8, 16}) {
    const VarSet schema = VarSet::Full(arity);
    // Below and above the radix threshold (fallback and LSD regimes);
    // small signed domain -> dup-heavy rows and negative values.
    for (size_t n : {size_t{60}, size_t{5000}}) {
      Relation r(schema);
      std::vector<Value> row(arity);
      std::vector<std::vector<Value>> ref;
      ref.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        for (int c = 0; c < arity; ++c) {
          row[c] = static_cast<Value>(rng.Uniform(-6, 6));
        }
        r.AddRow(row.data());
        ref.push_back(row);
      }
      std::sort(ref.begin(), ref.end());
      ref.erase(std::unique(ref.begin(), ref.end()), ref.end());
      r.SortAndDedupe();
      EXPECT_EQ(RowsOf(r), ref) << "arity=" << arity << " n=" << n;
      // Idempotence: the presorted pre-scan must leave it unchanged.
      Relation again = r;
      again.SortAndDedupe();
      EXPECT_EQ(RowsOf(again), ref) << "arity=" << arity << " n=" << n;
    }
  }
}

TEST(RelationTest, WideSortAndDedupeExtremeValues) {
  // Full-int32 extremes exercise every key byte and the signed/unsigned
  // bias at both ends.
  Relation r = MakeRel(VarSet{0, 1, 2},
                       {{INT32_MAX, 0, INT32_MIN},
                        {INT32_MIN, INT32_MIN, INT32_MIN},
                        {-1, 1, 0},
                        {INT32_MIN, INT32_MIN, INT32_MIN},
                        {0, -1, INT32_MAX},
                        {INT32_MAX, INT32_MAX, INT32_MAX}});
  r.SortAndDedupe();
  const std::vector<std::vector<Value>> want = {
      {INT32_MIN, INT32_MIN, INT32_MIN},
      {-1, 1, 0},
      {0, -1, INT32_MAX},
      {INT32_MAX, 0, INT32_MIN},
      {INT32_MAX, INT32_MAX, INT32_MAX}};
  EXPECT_EQ(RowsOf(r), want);
}

TEST(RelationTest, ToStringClampsNegativeMaxRows) {
  Relation r = MakeRel(VarSet{0, 1}, {{1, 2}, {3, 4}, {5, 6}});
  // A negative max_rows used to widen to a huge size_t and print every
  // row; it must clamp to zero rows instead.
  EXPECT_EQ(r.ToString(-1), r.ToString(0));
  EXPECT_EQ(r.ToString(-1000000), r.ToString(0));
  EXPECT_EQ(r.ToString(-1).find("(1,2)"), std::string::npos);
  EXPECT_NE(r.ToString(2).find("(1,2)"), std::string::npos);
}

TEST(RelationTest, NullaryBooleanSemantics) {
  Relation false_rel(VarSet::Empty());
  EXPECT_TRUE(false_rel.empty());
  Relation true_rel(VarSet::Empty());
  true_rel.Add({});
  EXPECT_FALSE(true_rel.empty());
  EXPECT_EQ(true_rel.size(), 1u);
}

TEST(OpsTest, NaturalJoin) {
  // R(X,Y) join S(Y,Z).
  Relation r = MakeRel(VarSet{0, 1}, {{1, 10}, {2, 10}, {3, 20}});
  Relation s = MakeRel(VarSet{1, 2}, {{10, 100}, {20, 200}, {30, 300}});
  Relation j = Join(r, s);
  EXPECT_EQ(j.schema(), VarSet({0, 1, 2}));
  EXPECT_EQ(j.size(), 3u);
  EXPECT_TRUE(j.Contains({1, 10, 100}));
  EXPECT_TRUE(j.Contains({2, 10, 100}));
  EXPECT_TRUE(j.Contains({3, 20, 200}));
}

TEST(OpsTest, JoinNoSharedVarsIsCrossProduct) {
  Relation r = MakeRel(VarSet{0}, {{1}, {2}});
  Relation s = MakeRel(VarSet{1}, {{7}, {8}, {9}});
  EXPECT_EQ(Join(r, s).size(), 6u);
}

TEST(OpsTest, JoinWithNullary) {
  Relation r = MakeRel(VarSet{0}, {{1}, {2}});
  Relation t(VarSet::Empty());
  t.Add({});
  EXPECT_EQ(Join(r, t).size(), 2u);
  Relation f(VarSet::Empty());
  EXPECT_TRUE(Join(r, f).empty());
}

TEST(OpsTest, SemijoinAndAntijoinPartition) {
  Relation r = MakeRel(VarSet{0, 1}, {{1, 10}, {2, 20}, {3, 30}});
  Relation s = MakeRel(VarSet{1}, {{10}, {30}});
  Relation semi = Semijoin(r, s);
  Relation anti = Antijoin(r, s);
  EXPECT_EQ(semi.size(), 2u);
  EXPECT_EQ(anti.size(), 1u);
  EXPECT_TRUE(anti.Contains({2, 20}));
  EXPECT_EQ(semi.size() + anti.size(), r.size());
}

TEST(OpsTest, ProjectDeduplicates) {
  Relation r = MakeRel(VarSet{0, 1}, {{1, 10}, {1, 20}, {2, 10}});
  Relation p = Project(r, VarSet{0});
  EXPECT_EQ(p.size(), 2u);
  EXPECT_TRUE(p.Contains({1}));
  EXPECT_TRUE(p.Contains({2}));
}

TEST(OpsTest, ProjectToNullaryIsExistence) {
  Relation r = MakeRel(VarSet{0}, {{5}});
  EXPECT_FALSE(Project(r, VarSet::Empty()).empty());
  Relation e(VarSet{0});
  EXPECT_TRUE(Project(e, VarSet::Empty()).empty());
}

TEST(OpsTest, UnionIntersect) {
  Relation a = MakeRel(VarSet{0}, {{1}, {2}});
  Relation b = MakeRel(VarSet{0}, {{2}, {3}});
  EXPECT_EQ(Union(a, b).size(), 3u);
  Relation i = Intersect(a, b);
  EXPECT_EQ(i.size(), 1u);
  EXPECT_TRUE(i.Contains({2}));
}

TEST(OpsTest, JoinAssociativityOnRandomData) {
  Rng rng(3);
  Relation r = UniformRelation(VarSet{0, 1}, 80, 12, &rng);
  Relation s = UniformRelation(VarSet{1, 2}, 80, 12, &rng);
  Relation t = UniformRelation(VarSet{2, 3}, 80, 12, &rng);
  Relation left = Join(Join(r, s), t);
  Relation right = Join(r, Join(s, t));
  left.SortAndDedupe();
  right.SortAndDedupe();
  EXPECT_EQ(left.size(), right.size());
  for (size_t i = 0; i < left.size(); ++i) {
    std::vector<Value> row(left.Row(i), left.Row(i) + left.arity());
    EXPECT_TRUE(right.Contains(row));
  }
}

// ------------------------------------------- nullary/empty edge cases --

TEST(OpsEdgeTest, JoinWithEmptyRelation) {
  Relation r = MakeRel(VarSet{0, 1}, {{1, 10}});
  Relation e(VarSet{1, 2});
  EXPECT_TRUE(Join(r, e).empty());
  EXPECT_TRUE(Join(e, r).empty());
  EXPECT_EQ(Join(r, e).schema(), VarSet({0, 1, 2}));
}

TEST(OpsEdgeTest, JoinNullaryBothSides) {
  Relation t(VarSet::Empty());
  t.Add({});
  Relation f(VarSet::Empty());
  EXPECT_FALSE(Join(t, t).empty());  // true AND true
  EXPECT_TRUE(Join(t, f).empty());   // true AND false
  EXPECT_TRUE(Join(f, t).empty());
  EXPECT_TRUE(Join(f, f).empty());
}

TEST(OpsEdgeTest, SemijoinAntijoinEmptyAndNullary) {
  Relation r = MakeRel(VarSet{0}, {{1}, {2}});
  Relation e(VarSet{0});
  EXPECT_TRUE(Semijoin(r, e).empty());
  EXPECT_EQ(Antijoin(r, e).size(), 2u);
  EXPECT_TRUE(Semijoin(e, r).empty());
  EXPECT_TRUE(Antijoin(e, r).empty());
  Relation t(VarSet::Empty());
  t.Add({});
  Relation f(VarSet::Empty());
  EXPECT_EQ(Semijoin(r, t).size(), 2u);  // true keeps everything
  EXPECT_TRUE(Semijoin(r, f).empty());   // false drops everything
  EXPECT_TRUE(Antijoin(r, t).empty());
  EXPECT_EQ(Antijoin(r, f).size(), 2u);
}

TEST(OpsEdgeTest, ProjectEmptyInput) {
  Relation e(VarSet{0, 1});
  EXPECT_TRUE(Project(e, VarSet{0}).empty());
  EXPECT_TRUE(Project(e, VarSet::Empty()).empty());
  // Projection onto vars outside the schema ignores them.
  Relation r = MakeRel(VarSet{0, 1}, {{1, 10}});
  Relation p = Project(r, VarSet{1, 5});
  EXPECT_EQ(p.schema(), VarSet{1});
  EXPECT_EQ(p.size(), 1u);
}

TEST(OpsEdgeTest, UnionEmptyAndNullary) {
  Relation a = MakeRel(VarSet{0}, {{1}});
  Relation e(VarSet{0});
  EXPECT_EQ(Union(a, e).size(), 1u);
  EXPECT_EQ(Union(e, a).size(), 1u);
  EXPECT_TRUE(Union(e, e).empty());
  Relation t(VarSet::Empty());
  t.Add({});
  Relation f(VarSet::Empty());
  EXPECT_FALSE(Union(t, f).empty());  // true OR false
  EXPECT_TRUE(Union(f, f).empty());
}

// FlatSet capacity contract (flat_index.h): builders that presize — via
// the constructor or Reserve — never rehash mid-insert; under-provisioned
// incremental callers still grow safely.
TEST(FlatSetTest, PresizedBuildNeverRehashes) {
  FlatSet s(1000);
  const size_t cap = s.capacity();
  for (uint64_t k = 0; k < 1000; ++k) {
    EXPECT_TRUE(s.Insert(k * 0x9e3779b97f4a7c15ULL));
  }
  EXPECT_EQ(s.capacity(), cap);
  EXPECT_EQ(s.size(), 1000u);
}

TEST(FlatSetTest, ReserveThenInsertKeepsCapacity) {
  FlatSet s;  // default: minimal table
  s.Reserve(5000);
  const size_t cap = s.capacity();
  EXPECT_GE(cap, 2 * 5000u);
  for (uint64_t k = 0; k < 5000; ++k) s.Insert(k);
  EXPECT_EQ(s.capacity(), cap);
  for (uint64_t k = 0; k < 5000; ++k) EXPECT_TRUE(s.Contains(k));
  EXPECT_FALSE(s.Contains(5000));
  // Reserving less than the current capacity is a no-op.
  s.Reserve(10);
  EXPECT_EQ(s.capacity(), cap);
}

// The grow_rehashes() stat distinguishes a planned Reserve resize from
// insert-time growth: the production builders (Project's dedup set, the
// clique pair sets) Reserve their row-count bound up front and must show
// zero — this is the stats-backed half of the presize-no-rehash contract.
TEST(FlatSetTest, GrowRehashCounterSeparatesPresizeFromGrowth) {
  FlatSet presized;
  presized.Reserve(4096);  // the PairSet / Project pattern
  for (uint64_t k = 0; k < 4096; ++k) {
    presized.Insert(k * 0x9e3779b97f4a7c15ULL);
  }
  EXPECT_EQ(presized.grow_rehashes(), 0);
  EXPECT_EQ(presized.size(), 4096u);

  FlatSet incremental;  // same keys, no presize: must have grown
  for (uint64_t k = 0; k < 4096; ++k) {
    incremental.Insert(k * 0x9e3779b97f4a7c15ULL);
  }
  EXPECT_GT(incremental.grow_rehashes(), 0);
  EXPECT_EQ(incremental.size(), 4096u);
}

TEST(FlatSetTest, UnderProvisionedGrowsAndKeepsContents) {
  FlatSet s(0);
  const size_t cap0 = s.capacity();
  for (uint64_t k = 0; k < 10000; ++k) {
    EXPECT_TRUE(s.Insert(k ^ 0xdeadbeefULL));
  }
  EXPECT_GT(s.capacity(), cap0);
  EXPECT_EQ(s.size(), 10000u);
  for (uint64_t k = 0; k < 10000; ++k) {
    EXPECT_TRUE(s.Contains(k ^ 0xdeadbeefULL));
    EXPECT_FALSE(s.Insert(k ^ 0xdeadbeefULL));  // duplicate
  }
  // Reserve after growth mid-stream also works (rehash preserves keys).
  s.Reserve(40000);
  for (uint64_t k = 0; k < 10000; ++k) {
    EXPECT_TRUE(s.Contains(k ^ 0xdeadbeefULL));
  }
}

TEST(OpsEdgeTest, IntersectEmpty) {
  Relation a = MakeRel(VarSet{0}, {{1}, {2}});
  Relation e(VarSet{0});
  EXPECT_TRUE(Intersect(a, e).empty());
  EXPECT_TRUE(Intersect(e, a).empty());
}

TEST(OpsEdgeTest, JoinSetSemanticsOption) {
  // Duplicate-carrying inputs: default Join keeps the duplicate pairs,
  // set_semantics collapses them.
  Relation r = MakeRel(VarSet{0, 1}, {{1, 10}, {1, 10}});
  Relation s = MakeRel(VarSet{1, 2}, {{10, 100}});
  EXPECT_EQ(Join(r, s).size(), 2u);
  EXPECT_EQ(Join(r, s, JoinOpts{.set_semantics = true}).size(), 1u);
}

// ------------------------------------------------- differential tests --

/// Reference nested-loop natural join (no hashing, no indexes).
Relation NaiveJoin(const Relation& a, const Relation& b) {
  const std::vector<int> shared = (a.schema() & b.schema()).Members();
  const VarSet out_schema = a.schema() | b.schema();
  Relation out(out_schema);
  const std::vector<int> out_vars = out_schema.Members();
  std::vector<Value> tuple(out_vars.size());
  for (size_t ra = 0; ra < a.size(); ++ra) {
    for (size_t rb = 0; rb < b.size(); ++rb) {
      bool match = true;
      for (int v : shared) {
        if (a.Get(ra, v) != b.Get(rb, v)) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      for (size_t i = 0; i < out_vars.size(); ++i) {
        const int v = out_vars[i];
        tuple[i] = a.schema().Contains(v) ? a.Get(ra, v) : b.Get(rb, v);
      }
      out.Add(tuple);
    }
  }
  return out;
}

/// Reference semijoin/antijoin by nested-loop matching.
Relation NaiveFilter(const Relation& a, const Relation& b, bool keep) {
  const std::vector<int> shared = (a.schema() & b.schema()).Members();
  Relation out(a.schema());
  for (size_t ra = 0; ra < a.size(); ++ra) {
    bool match = false;
    for (size_t rb = 0; rb < b.size() && !match; ++rb) {
      match = true;
      for (int v : shared) {
        if (a.Get(ra, v) != b.Get(rb, v)) {
          match = false;
          break;
        }
      }
    }
    if (match == keep) out.AddRow(a.Row(ra));
  }
  return out;
}

void ExpectSameSet(Relation got, Relation want, const char* what) {
  got.SortAndDedupe();
  want.SortAndDedupe();
  ASSERT_EQ(got.size(), want.size()) << what;
  ASSERT_EQ(got.schema(), want.schema()) << what;
  for (size_t r = 0; r < got.size(); ++r) {
    for (int c = 0; c < got.arity(); ++c) {
      ASSERT_EQ(got.Row(r)[c], want.Row(r)[c]) << what << " row " << r;
    }
  }
}

TEST(OpsDifferentialTest, FlatJoinMatchesNaiveReference) {
  Rng rng(17);
  // Shared-key widths 1, 2 and 3 — width 3 exercises the non-injective
  // hashed-key path of the flat index (candidate verification).
  const struct {
    VarSet sa, sb;
  } shapes[] = {
      {VarSet{0, 1}, VarSet{1, 2}},
      {VarSet{0, 1, 2}, VarSet{1, 2, 3}},
      {VarSet{0, 1, 2, 3}, VarSet{1, 2, 3, 4}},
      {VarSet{0}, VarSet{1}},  // no shared vars: cross product
  };
  for (const auto& shape : shapes) {
    for (int trial = 0; trial < 4; ++trial) {
      Relation a = UniformRelation(shape.sa, 120, 4, &rng);
      Relation b = UniformRelation(shape.sb, 120, 4, &rng);
      ExpectSameSet(Join(a, b), NaiveJoin(a, b), "join");
      ExpectSameSet(Semijoin(a, b), NaiveFilter(a, b, true), "semijoin");
      ExpectSameSet(Antijoin(a, b), NaiveFilter(a, b, false), "antijoin");
    }
  }
}

TEST(OpsDifferentialTest, SemijoinAntijoinPartitionRandom) {
  Rng rng(18);
  Relation a = UniformRelation(VarSet{0, 1, 2}, 300, 6, &rng);
  Relation b = UniformRelation(VarSet{1, 2, 3}, 300, 6, &rng);
  EXPECT_EQ(Semijoin(a, b).size() + Antijoin(a, b).size(), a.size());
}

// ------------------------------------------------------------- degrees --

TEST(DegreeTest, DefinitionE9) {
  // R(X=0, Y=1): X-value 1 has 3 Y's, value 2 has 1.
  Relation r =
      MakeRel(VarSet{0, 1}, {{1, 10}, {1, 20}, {1, 30}, {2, 10}});
  EXPECT_EQ(Degree(r, VarSet{1}, VarSet{0}), 3);
  EXPECT_EQ(Degree(r, VarSet{0}, VarSet{1}), 2);  // Y=10 pairs with X=1,2
  // Unconditional: number of distinct Y values overall.
  EXPECT_EQ(Degree(r, VarSet{1}, VarSet::Empty()), 3);
  EXPECT_EQ(Degree(r, VarSet{0, 1}, VarSet::Empty()), 4);
}

TEST(DegreeTest, PartitionHeavyLight) {
  Relation r = MakeRel(VarSet{0, 1},
                       {{1, 10}, {1, 20}, {1, 30}, {2, 10}, {3, 10}, {3, 20}});
  auto part = PartitionByDegree(r, VarSet{1}, VarSet{0}, 2);
  // X=1 has degree 3 > 2 -> heavy; X=2 (1), X=3 (2) -> light.
  EXPECT_EQ(part.heavy.schema(), VarSet{0});
  EXPECT_EQ(part.heavy.size(), 1u);
  EXPECT_TRUE(part.heavy.Contains({1}));
  EXPECT_EQ(part.light.size(), 3u);
  // Invariants of the Decomposition Step: the light part's degree is
  // bounded by the threshold.
  EXPECT_LE(Degree(part.light, VarSet{1}, VarSet{0}), 2);
}

TEST(DegreeTest, PartitionSizesBound) {
  // |heavy| <= |R| / threshold (Section 2.5).
  Rng rng(9);
  Relation r = ZipfRelation(VarSet{0, 1}, 4000, 500, 1.3, &rng);
  for (int64_t thresh : {2, 8, 32}) {
    auto part = PartitionByDegree(r, VarSet{1}, VarSet{0}, thresh);
    EXPECT_LE(part.heavy.size(), r.size() / thresh + 1) << thresh;
    EXPECT_LE(Degree(part.light, VarSet{1}, VarSet{0}), thresh);
  }
}

TEST(DegreeTest, BucketsCoverRelation) {
  Rng rng(10);
  Relation r = ZipfRelation(VarSet{0, 1}, 2000, 300, 1.2, &rng);
  auto buckets = DegreeBuckets(r, VarSet{1}, VarSet{0});
  size_t total = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    total += buckets[i].size();
    if (buckets[i].empty()) continue;
    const int64_t deg = Degree(buckets[i], VarSet{1}, VarSet{0});
    EXPECT_LT(deg, 1LL << (i + 1));
  }
  EXPECT_EQ(total, r.size());
  EXPECT_LE(buckets.size(), 1 + static_cast<size_t>(std::log2(r.size())) + 1);
}

// Brute-force degree profile: the distinct (Y \ {x})-projections of each
// x-value's rows, as (value, degree) pairs in ascending value order.
std::vector<std::pair<Value, int64_t>> ReferenceProfile(const Relation& r,
                                                        VarSet y, int x) {
  std::vector<int> ycols;
  for (int v : ((y - VarSet{x}) & r.schema()).Members()) {
    ycols.push_back(r.ColumnOf(v));
  }
  std::map<Value, std::set<std::vector<Value>>> groups;
  for (size_t i = 0; i < r.size(); ++i) {
    std::vector<Value> proj;
    for (int c : ycols) proj.push_back(r.Row(i)[c]);
    groups[r.Get(i, x)].insert(proj);
  }
  std::vector<std::pair<Value, int64_t>> out;
  for (const auto& [value, ys] : groups) {
    out.emplace_back(value, static_cast<int64_t>(ys.size()));
  }
  return out;
}

std::vector<std::pair<Value, int64_t>> AsPairs(
    const std::vector<ValueDegree>& profile) {
  std::vector<std::pair<Value, int64_t>> out;
  for (const ValueDegree& vd : profile) out.emplace_back(vd.value, vd.degree);
  return out;
}

// `r` with every value replaced by map(value), rows kept in their order.
template <typename Map>
Relation MapEach(const Relation& r, const Map& map) {
  Relation out(r.schema());
  std::vector<Value> row(r.arity());
  for (size_t i = 0; i < r.size(); ++i) {
    for (int c = 0; c < r.arity(); ++c) row[c] = map(r.Row(i)[c]);
    out.Add(row);
  }
  return out;
}

// The rows of `r` in reverse order: the same relation, not in stored form.
Relation Reversed(const Relation& r) {
  Relation out(r.schema());
  for (size_t i = r.size(); i-- > 0;) out.AddRow(r.Row(i));
  return out;
}

// DegreeProfile counts a stored (sorted, duplicate-free) binary relation's
// degrees without sorting: run lengths on its first column, occurrence
// counts on its second when the value range is at most 4 values per row.
// Every other input, a wide-range second column included, takes the
// grouping sort. Both paths must equal the brute-force profile, and the
// fast path on a stored relation must equal the sort path on the same
// rows reversed.
TEST(DegreeTest, ProfileFastPathMatchesSortPath) {
  Rng rng(12);
  const Relation zipf = ZipfRelation(VarSet{0, 1}, 3000, 400, 1.2, &rng);
  Relation doubled(zipf.schema());
  for (size_t i = 0; i < zipf.size(); ++i) {
    doubled.AddRow(zipf.Row(i));
    doubled.AddRow(zipf.Row(i));
  }
  const Relation uniform = UniformRelation(VarSet{1, 3}, 2500, 900, &rng);
  const std::vector<std::pair<std::string, Relation>> cases = {
      {"sorted", zipf},
      {"unsorted", Reversed(zipf)},
      {"duplicates", doubled},
      {"ternary", UniformRelation(VarSet{0, 1, 2}, 2000, 30, &rng)},
      {"negative", MapEach(uniform, [](Value v) { return v - 600; })},
      {"wide range",
       MapEach(uniform, [](Value v) { return v * 2000003 - 900000000; })},
      {"empty", Relation(VarSet{0, 1})}};
  ExecContext ec(1);
  for (const auto& [name, r] : cases) {
    for (int x : r.schema().Members()) {
      for (VarSet y :
           {r.schema() - VarSet{x}, VarSet::Empty(), r.schema()}) {
        SCOPED_TRACE(name + " x=" + std::to_string(x) +
                     " |y|=" + std::to_string(y.size()));
        const auto profile = AsPairs(DegreeProfile(r, y, x, &ec));
        EXPECT_EQ(profile, ReferenceProfile(r, y, x));
        EXPECT_EQ(profile, AsPairs(DegreeProfile(Reversed(r), y, x, &ec)));
      }
    }
  }
  EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
}

// ----------------------------------------------------------- generators --

TEST(GeneratorTest, UniformBounds) {
  Rng rng(1);
  Relation r = UniformRelation(VarSet{0, 1}, 500, 50, &rng);
  EXPECT_LE(r.size(), 500u);
  EXPECT_GT(r.size(), 300u);  // few collisions at domain 50x50
  for (size_t i = 0; i < r.size(); ++i) {
    EXPECT_GE(r.Row(i)[0], 0);
    EXPECT_LT(r.Row(i)[0], 50);
  }
}

TEST(GeneratorTest, DenseDensity) {
  Rng rng(2);
  Relation r = DenseRelation(VarSet{0, 1}, 40, 0.5, &rng);
  EXPECT_GT(r.size(), 600u);
  EXPECT_LT(r.size(), 1000u);
}

TEST(GeneratorTest, PlantedWitnessMakesQueryTrue) {
  WorkloadOptions opts;
  opts.tuples_per_relation = 30;
  opts.domain = 1000;  // sparse: almost surely no triangle by chance
  opts.plant_witness = true;
  Hypergraph tri = Hypergraph::Triangle();
  QueryInput db = MakeWorkload(tri, opts);
  EXPECT_TRUE(BruteForceBoolean(tri, db));
  opts.plant_witness = false;
  QueryInput db2 = MakeWorkload(tri, opts);
  EXPECT_FALSE(BruteForceBoolean(tri, db2));
}

TEST(GeneratorTest, WorkloadHasOneRelationPerEdge) {
  Hypergraph h = Hypergraph::Pyramid(3);
  WorkloadOptions opts;
  opts.tuples_per_relation = 50;
  opts.domain = 20;
  QueryInput db = MakeWorkload(h, opts);
  ASSERT_EQ(db.relations.size(), h.edges().size());
  for (size_t e = 0; e < h.edges().size(); ++e) {
    EXPECT_EQ(db.relations[e].schema(), h.edges()[e]);
  }
}

TEST(GeneratorTest, DeterministicSeeds) {
  WorkloadOptions opts;
  opts.tuples_per_relation = 100;
  opts.domain = 30;
  opts.seed = 7;
  Hypergraph h = Hypergraph::Cycle(4);
  QueryInput a = MakeWorkload(h, opts);
  QueryInput b = MakeWorkload(h, opts);
  for (size_t e = 0; e < a.relations.size(); ++e) {
    EXPECT_EQ(a.relations[e].size(), b.relations[e].size());
  }
}

}  // namespace
}  // namespace fmmsw
