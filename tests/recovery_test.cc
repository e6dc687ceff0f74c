// Tests for the recovery plane (PR 9): ExecStatus exhaustiveness, the
// site-keyed deterministic fault harness (FaultPlan / FMMSW_FAULT_PLAN),
// degraded-plan retry down the strategy ladder (RunWithRecovery + the
// core/api *WithRecovery entry points), and admission control.
//
// The load-bearing contract: under injected retryable faults, a recovered
// run returns results bit-identical to a clean run of the fallback
// strategy — at every thread count — with the retries/degraded_runs
// counters proving the ladder was actually exercised.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/admission.h"
#include "core/api.h"
#include "core/exec_context.h"
#include "core/recovery.h"
#include "engine/clique.h"
#include "engine/elimination.h"
#include "engine/four_cycle.h"
#include "engine/pyramid.h"
#include "engine/strategy.h"
#include "engine/triangle.h"
#include "engine/wcoj.h"
#include "gtest/gtest.h"
#include "mm/matrix.h"
#include "panda/executor.h"
#include "query_shapes.h"
#include "relation/generators.h"
#include "util/random.h"
#include "util/rational.h"
#include "width/closed_forms.h"
#include "width/omega_subw.h"
#include "wcoj_rules.h"
#include "width/width_cache.h"

namespace fmmsw {
namespace {

constexpr ExecStatus kAllStatuses[] = {
    ExecStatus::kOk,
    ExecStatus::kCancelled,
    ExecStatus::kDeadlineExceeded,
    ExecStatus::kMemoryLimitExceeded,
    ExecStatus::kCapacityExceeded,
    ExecStatus::kInvalidArgument,
    ExecStatus::kRejected,
    ExecStatus::kRetryExhausted,
};

QueryInput TriangleWorkload(uint64_t seed) {
  WorkloadOptions opts;
  opts.kind = WorkloadKind::kUniform;
  opts.tuples_per_relation = 4000;
  opts.domain = 90;
  opts.seed = seed;
  opts.plant_witness = true;
  return MakeWorkload(Hypergraph::Triangle(), opts);
}

FaultPlan MustParse(const std::string& spec) {
  FaultPlan plan;
  std::string error;
  EXPECT_TRUE(ParseFaultPlan(spec, &plan, &error)) << error;
  return plan;
}

// -------------------------------------------------- status taxonomy --

TEST(StatusTest, StatusStringRoundTripCoversEveryValue) {
  // The switch in StatusString is total (no default) so a new enum value
  // fails -Wswitch at compile time; this test pins the name set and its
  // injectivity, so logs/bench JSON stay unambiguous.
  std::set<std::string> names;
  for (ExecStatus s : kAllStatuses) {
    const std::string name = StatusString(s);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "unknown") << "unnamed status";
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_EQ(names.size(), std::size(kAllStatuses));
  EXPECT_STREQ(StatusString(ExecStatus::kRejected), "rejected");
  EXPECT_STREQ(StatusString(ExecStatus::kRetryExhausted), "retry_exhausted");
}

TEST(StatusTest, RetryableClassification) {
  for (ExecStatus s : kAllStatuses) {
    const bool retryable = s == ExecStatus::kMemoryLimitExceeded ||
                           s == ExecStatus::kCapacityExceeded;
    EXPECT_EQ(IsRetryable(s), retryable) << StatusString(s);
  }
}

// ------------------------------------------------ fault-plan grammar --

TEST(FaultPlanTest, ParseGrammar) {
  FaultPlan plan = MustParse("wcoj:7;sort:every-64;lp:100");
  EXPECT_EQ(plan.at[static_cast<int>(FaultSite::kWcoj)], 7);
  EXPECT_EQ(plan.every[static_cast<int>(FaultSite::kSort)], 64);
  EXPECT_EQ(plan.at[static_cast<int>(FaultSite::kLp)], 100);
  EXPECT_EQ(plan.at[static_cast<int>(FaultSite::kMm)], 0);
  EXPECT_FALSE(plan.empty());

  // Empty spec and stray separators are fine.
  EXPECT_TRUE(MustParse("").empty());
  EXPECT_EQ(MustParse("mm:3;").at[static_cast<int>(FaultSite::kMm)], 3);

  // Every registered site name parses.
  for (int s = 0; s < kNumFaultSites; ++s) {
    const std::string spec = std::string(FaultSiteName(
                                 static_cast<FaultSite>(s))) + ":5";
    EXPECT_EQ(MustParse(spec).at[s], 5) << spec;
  }
}

TEST(FaultPlanTest, ParseRejectsMalformedSpecs) {
  FaultPlan plan;
  std::string error;
  EXPECT_FALSE(ParseFaultPlan("bogus:3", &plan, &error));
  EXPECT_NE(error.find("unknown site"), std::string::npos);
  EXPECT_FALSE(ParseFaultPlan("mm", &plan, &error));
  EXPECT_FALSE(ParseFaultPlan("mm:", &plan, &error));
  EXPECT_FALSE(ParseFaultPlan("mm:0", &plan, &error));
  EXPECT_FALSE(ParseFaultPlan("mm:-3", &plan, &error));
  EXPECT_FALSE(ParseFaultPlan("mm:every-", &plan, &error));
  EXPECT_FALSE(ParseFaultPlan("mm:every-x", &plan, &error));
  EXPECT_FALSE(ParseFaultPlan("sort:3x", &plan, &error));
}

TEST(FaultPlanTest, PlanFaultIsRetryableAndSiteKeyed) {
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = TriangleWorkload(91);
  ExecContext ec(2);
  ec.guard().SetFaultPlan(MustParse("mm:1"));
  // An MM-plane fault aborts the MM engine with retryable status...
  int64_t count = -1;
  const ExecResult mm = RunGuarded(ec, {}, [&] {
    count = TriangleCountMm(db, MmKernel::kBitSliced, &ec);
  });
  EXPECT_EQ(mm.status, ExecStatus::kMemoryLimitExceeded);
  EXPECT_NE(mm.message.find("fault plan fired at site mm"),
            std::string::npos);
  EXPECT_EQ(count, -1) << "aborted rung must not publish a result";
  EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
  // ...while a strategy that never enters the MM plane is untouched.
  const ExecResult wcoj = RunGuarded(ec, {}, [&] {
    count = WcojCount(h, db, &ec);
  });
  ASSERT_TRUE(wcoj.ok()) << wcoj.message;
  ec.guard().SetFaultPlan(FaultPlan{});
  ExecContext ref_ec(1);
  EXPECT_EQ(count, WcojCount(h, db, &ref_ec));
}

// ----------------------------------------------- degraded-plan retry --

TEST(RecoveryTest, LadderFallsBackUnderMmPressureAtEveryThreadCount) {
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = TriangleWorkload(101);
  ExecContext ref_ec(1);
  const int64_t clean_count = WcojCount(h, db, &ref_ec);
  ASSERT_GT(clean_count, 0);
  for (int threads : {1, 2, 4, 8}) {
    ExecContext ec(threads);
    ec.guard().SetFaultPlan(MustParse("mm:1"));
    int64_t count = -1;
    RecoveryReport report;
    const ExecResult r =
        EvaluateCountWithRecovery(h, db, &count, &ec, {}, {}, &report);
    ASSERT_TRUE(r.ok()) << r.message;
    // Bit-identical to a clean run of the fallback strategy.
    EXPECT_EQ(count, clean_count) << "threads=" << threads;
    EXPECT_EQ(report.winning_rung, "wcoj");
    // The MM rung failed retryably.
    EXPECT_EQ(report.attempts, 2);
    EXPECT_EQ(report.degraded_runs, 1);
    ASSERT_EQ(report.failures.size(), 1u);
    for (const ExecResult& f : report.failures) {
      EXPECT_EQ(f.status, ExecStatus::kMemoryLimitExceeded);
    }
    EXPECT_EQ(ec.stats().retries.load(), 1);
    EXPECT_EQ(ec.stats().degraded_runs.load(), 1);
    EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
    // The plan is sticky until cleared: a clean rerun works afterwards.
    ec.guard().SetFaultPlan(FaultPlan{});
    int64_t again = -1;
    ASSERT_TRUE(EvaluateCountWithRecovery(h, db, &again, &ec).ok());
    EXPECT_EQ(again, clean_count);
  }
}

TEST(RecoveryTest, BooleanLadderRecoversAndMatches) {
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = TriangleWorkload(103);
  ExecContext ref_ec(1);
  const bool clean = WcojBoolean(h, db, &ref_ec);
  for (int threads : {1, 4}) {
    ExecContext ec(threads);
    // An "mm" fault alone cannot reliably kill the Boolean hybrids: their
    // light-corner joins may answer before any matrix work (that clean
    // early exit under an irrelevant plan is covered by the per-site
    // soak). The degree-split phase, however, always runs through the
    // relational-ops plane — which the WCOJ rung never polls — so an
    // "ops" fault deterministically fails the hybrid rung.
    ec.guard().SetFaultPlan(MustParse("ops:1"));
    bool result = !clean;
    RecoveryReport report;
    const ExecResult r =
        EvaluateBooleanWithRecovery(h, db, &result, &ec, {}, {}, &report);
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_EQ(result, clean);
    EXPECT_EQ(report.winning_rung, "wcoj");
    EXPECT_EQ(report.attempts, 2);
    EXPECT_EQ(report.degraded_runs, 1);
    ec.guard().SetFaultPlan(FaultPlan{});
  }
}

TEST(RecoveryTest, TerminalStatusIsNotRetried) {
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = TriangleWorkload(105);
  ExecContext ec(2);
  ec.guard().Cancel();
  int64_t count = -1;
  RecoveryReport report;
  const ExecResult r =
      EvaluateCountWithRecovery(h, db, &count, &ec, {}, {}, &report);
  EXPECT_EQ(r.status, ExecStatus::kCancelled);
  EXPECT_NE(
      r.message.find("rung '" + TriangleCountLadder().front().name + "'"),
      std::string::npos);
  EXPECT_EQ(report.attempts, 1) << "terminal failures must not retry";
  EXPECT_EQ(count, -1);
  EXPECT_EQ(ec.stats().retries.load(), 0);
  // The context is immediately reusable.
  ASSERT_TRUE(EvaluateCountWithRecovery(h, db, &count, &ec).ok());
  ExecContext ref_ec(1);
  EXPECT_EQ(count, WcojCount(h, db, &ref_ec));
}

TEST(RecoveryTest, RetryExhaustedWhenEveryRungFaults) {
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = TriangleWorkload(107);
  ExecContext ec(4);
  // Kill every plane: no rung can survive.
  ec.guard().SetFaultPlan(
      MustParse("wcoj:1;sort:1;index:1;mm:1;lp:1;panda:1;ops:1"));
  int64_t count = -42;
  RecoveryReport report;
  const ExecResult r =
      EvaluateCountWithRecovery(h, db, &count, &ec, {}, {}, &report);
  EXPECT_EQ(r.status, ExecStatus::kRetryExhausted);
  EXPECT_EQ(count, -42) << "no rung succeeded, output must be untouched";
  EXPECT_EQ(report.winning_rung, "");
  EXPECT_EQ(static_cast<size_t>(report.attempts), report.failures.size());
  EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
  ec.guard().SetFaultPlan(FaultPlan{});
}

TEST(RecoveryTest, MaxAttemptsCapsTheLadder) {
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = TriangleWorkload(109);
  ExecContext ec(2);
  ec.guard().SetFaultPlan(MustParse("mm:1"));
  RetryPolicy policy;
  policy.max_attempts = 1;  // the MM rung only; never reaches wcoj
  int64_t count = -1;
  RecoveryReport report;
  const ExecResult r =
      EvaluateCountWithRecovery(h, db, &count, &ec, {}, policy, &report);
  EXPECT_EQ(r.status, ExecStatus::kRetryExhausted);
  EXPECT_NE(r.message.find("retry budget exhausted"), std::string::npos);
  EXPECT_EQ(report.attempts, 1);
  EXPECT_EQ(count, -1);
  ec.guard().SetFaultPlan(FaultPlan{});
}

TEST(RecoveryTest, DeadlineBudgetIsSharedAcrossAttempts) {
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = TriangleWorkload(111);
  ExecContext ec(2);
  // min_remaining_ms above the whole deadline: the walk must refuse to
  // launch even the first attempt rather than start with too little
  // budget — proving the deadline is re-derived, not restarted.
  QueryLimits limits;
  limits.deadline_ms = 40;
  RetryPolicy policy;
  policy.min_remaining_ms = 1000;
  int64_t count = -1;
  RecoveryReport report;
  const ExecResult r =
      EvaluateCountWithRecovery(h, db, &count, &ec, limits, policy, &report);
  EXPECT_EQ(r.status, ExecStatus::kDeadlineExceeded);
  EXPECT_EQ(report.attempts, 0);
  EXPECT_EQ(count, -1);
  // With a sane policy the same deadline admits a full recovery walk.
  ec.guard().SetFaultPlan(MustParse("mm:1"));
  limits.deadline_ms = 60000;
  const ExecResult ok =
      EvaluateCountWithRecovery(h, db, &count, &ec, limits, {}, &report);
  ASSERT_TRUE(ok.ok()) << ok.message;
  EXPECT_EQ(report.winning_rung, "wcoj");
  ExecContext ref_ec(1);
  EXPECT_EQ(count, WcojCount(h, db, &ref_ec));
  ec.guard().SetFaultPlan(FaultPlan{});
}

TEST(RecoveryTest, EmptyLadderIsInvalidArgument) {
  ExecContext ec(1);
  const ExecResult r = RunWithRecovery(ec, {}, {}, {});
  EXPECT_EQ(r.status, ExecStatus::kInvalidArgument);
}

TEST(RecoveryTest, JoinWithRecoveryMatchesCleanJoin) {
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = TriangleWorkload(113);
  ExecContext ref_ec(1);
  const Relation ref = WcojJoin(h, db, h.vertices(), nullptr, &ref_ec);
  ExecContext ec(4);
  Relation out;
  ASSERT_TRUE(
      EvaluateJoinWithRecovery(h, db, h.vertices(), &out, &ec).ok());
  ASSERT_EQ(out.size(), ref.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    for (int c = 0; c < ref.arity(); ++c) {
      ASSERT_EQ(out.Row(i)[c], ref.Row(i)[c]) << "row " << i;
    }
  }
}

// Regression: MemCharge's converting constructor used to leak its bytes
// when ChargeMem threw over-budget inside it (a throwing constructor
// never runs its destructor). The leaked charge survived the unwind and
// shrank the budget seen by every later attempt on the same context, so
// a degradation ladder could exhaust even though its cheapest rung fit
// comfortably.
TEST(RecoveryTest, BudgetAbortLeavesMemoryChargesBalanced) {
  ExecContext ec(2);
  // MultiplyBitSliced charges its bit-planes and its output in one
  // MemCharge before allocating them: (m + n) * ceil(k / 64) words plus
  // m * n int64 cells. The budget is exactly the 300^3 product's 744,000
  // bytes, so the 600^3 product's 2,976,000 trip it inside the MemCharge
  // constructor itself.
  const auto bitsliced_bytes = [](int64_t m, int64_t k, int64_t n) {
    return (m + n) * ((k + 63) / 64) * 8 + m * n * 8;
  };
  QueryLimits tight;
  tight.memory_budget_bytes = bitsliced_bytes(300, 300, 300);
  const Matrix big(600, 600);
  const ExecResult aborted = RunGuarded(ec, tight, [&] {
    const Matrix c = MultiplyBitSliced(big, big, &ec);
    (void)c;
  });
  ASSERT_EQ(aborted.status, ExecStatus::kMemoryLimitExceeded);
  EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0)
      << "budget abort leaked tracked memory charges";
  // The same context, under the same budget, must immediately admit a
  // product that fits, with no byte to spare.
  const Matrix small(300, 300);
  const ExecResult ok = RunGuarded(ec, tight, [&] {
    const Matrix c = MultiplyBitSliced(small, small, &ec);
    (void)c;
  });
  EXPECT_TRUE(ok.ok()) << ok.message;
  EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
}

// ------------------------------------------- MM operand accounting --

// Bytes of one rows x cols indicator matrix as stored under `kernel`:
// whole 64-bit words per bit-packed row for kBoolean, dense int64 cells
// for the counting kernels.
int64_t IndicatorBytes(int64_t rows, int64_t cols, MmKernel kernel) {
  return rows * (kernel == MmKernel::kBoolean ? (cols + 63) / 64 : cols) * 8;
}

// Bytes one rows x inner x cols product holds once it has run: both
// operands and the product.
int64_t MmBytes(int64_t rows, int64_t inner, int64_t cols, MmKernel kernel) {
  return IndicatorBytes(rows, inner, kernel) +
         IndicatorBytes(inner, cols, kernel) +
         IndicatorBytes(rows, cols, kernel);
}

QueryInput Sorted(std::vector<Relation> rels) {
  QueryInput db;
  for (Relation& rel : rels) {
    rel.SortAndDedupe();
    db.relations.push_back(std::move(rel));
  }
  return db;
}

// The generic join charges its last-level bitmaps and run indexes, its
// direct top levels and each worker's mask frames with the tries, before
// allocating them. Triangle over X in [0, 20), Y in [0, 50), Z in
// [0, 640): every Y and every X meets 12 Z values, so the relations
// ending at Z, S(Y, Z) and T(X, Z), have 50 and 20 runs over a 10-word
// window, within their 601 and 240 rows; R(X, Y) has 20 runs over Y's
// one-word window. S(Y, Z) is the one relation whose first variable is
// not X; its Y window of 50 is within its 601 rows, so it takes a direct
// top level of 51 offsets. The exact byte counts come from the
// test-side copy of the rules (wcoj_rules.h).
struct DenseTriangle {
  QueryInput db;
  int64_t trie_bytes = 0;
  WcojRules rules;
  /// Every byte one WcojCount charges when `states` workers enumerate:
  /// the triangle has enough rows and X values to fan out to every
  /// thread of the context.
  int64_t Total(int states) const {
    return trie_bytes + rules.bitmap_bytes + rules.top_index_bytes +
           states * rules.frame_bytes;
  }
};

DenseTriangle MakeDenseTriangle() {
  Rng rng(131);
  Relation r(VarSet{0, 1}), s(VarSet{1, 2}), t(VarSet{0, 2});
  for (int i = 0; i < 300; ++i) {
    r.Add({static_cast<Value>(rng.Uniform(0, 19)),
           static_cast<Value>(rng.Uniform(0, 49))});
  }
  const auto twelve_z = [&](Value key, Relation* rel) {
    for (int j = 0; j < 12; ++j) {
      rel->Add({key, static_cast<Value>((key * 53 + j * 53) % 640)});
    }
  };
  for (Value y = 0; y < 50; ++y) twelve_z(y, &s);
  for (Value x = 0; x < 20; ++x) twelve_z(x, &t);
  s.Add({0, 639});  // pin the window to [0, 639]
  DenseTriangle out;
  out.db = Sorted({std::move(r), std::move(s), std::move(t)});
  for (const Relation& rel : out.db.relations) {
    out.trie_bytes +=
        static_cast<int64_t>(rel.size() * rel.arity() * sizeof(Value));
  }
  out.rules = ComputeWcojRules(Hypergraph::Triangle(), out.db);
  EXPECT_EQ(out.rules.bitmap_relations, 3);
  EXPECT_EQ(out.rules.top_index, 1);
  EXPECT_EQ(out.rules.top_index_bytes, (50 + 1) * 4);  // S's Y in [0, 49]
  // Base masks of Y (1 word) and Z (10 words), then X's bindings fold
  // into fresh copies of both and Y's into one of Z.
  EXPECT_EQ(out.rules.frame_bytes, (1 + 10 + 1 + 10 + 10) * 8);
  return out;
}

TEST(RecoveryTest, LeafBitmapsChargedBeforeAllocation) {
  const Hypergraph h = Hypergraph::Triangle();
  const DenseTriangle in = MakeDenseTriangle();
  const QueryInput& db = in.db;
  ExecContext ref_ec(1);
  const int64_t clean_count = WcojCount(h, db, &ref_ec);
  ASSERT_EQ(ref_ec.stats().wcoj_bitmap_relations.load(), 3);
  for (int threads : {1, 4}) {
    ExecContext ec(threads);
    int64_t count = -1;
    const auto run_count = [&] { count = WcojCount(h, db, &ec); };
    // The tries fit, the bitmaps do not: the abort comes before any
    // bitmap byte is allocated and leaves nothing charged.
    const ExecResult aborted = RunGuarded(
        ec, {.memory_budget_bytes = in.trie_bytes + in.rules.bitmap_bytes - 1},
        run_count);
    ASSERT_EQ(aborted.status, ExecStatus::kMemoryLimitExceeded)
        << "threads=" << threads;
    EXPECT_EQ(count, -1);
    EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
    EXPECT_EQ(ec.stats().wcoj_bitmap_relations.load(), 0);
    // The same context runs the query once everything fits, and its
    // tracked peak covers the tries and bitmaps.
    ec.stats().Reset();
    const ExecResult ok = RunGuarded(
        ec, {.memory_budget_bytes = in.Total(threads)}, run_count);
    ASSERT_TRUE(ok.ok()) << ok.message;
    EXPECT_EQ(count, clean_count);
    EXPECT_EQ(ec.stats().wcoj_bitmap_relations.load(), 3);
    EXPECT_GE(ec.stats().mem_peak_bytes.load(),
              in.trie_bytes + in.rules.bitmap_bytes);
    EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
  }
}

TEST(RecoveryTest, TopIndexChargedBeforeAllocation) {
  const Hypergraph h = Hypergraph::Triangle();
  const DenseTriangle in = MakeDenseTriangle();
  const QueryInput& db = in.db;
  const int64_t index_bytes =
      in.trie_bytes + in.rules.bitmap_bytes + in.rules.top_index_bytes;
  ExecContext ref_ec(1);
  const int64_t clean_count = WcojCount(h, db, &ref_ec);
  ASSERT_EQ(ref_ec.stats().wcoj_top_index.load(), 1);
  for (int threads : {1, 4}) {
    ExecContext ec(threads);
    int64_t count = -1;
    const auto run_count = [&] { count = WcojCount(h, db, &ec); };
    // Tries and bitmaps fit, the top index does not: the abort comes
    // before its offsets are allocated and leaves nothing charged.
    const ExecResult aborted = RunGuarded(
        ec, {.memory_budget_bytes = index_bytes - 1}, run_count);
    ASSERT_EQ(aborted.status, ExecStatus::kMemoryLimitExceeded)
        << "threads=" << threads;
    EXPECT_EQ(count, -1);
    EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
    EXPECT_EQ(ec.stats().wcoj_top_index.load(), 0);
    ec.stats().Reset();
    const ExecResult ok = RunGuarded(
        ec, {.memory_budget_bytes = in.Total(threads)}, run_count);
    ASSERT_TRUE(ok.ok()) << ok.message;
    EXPECT_EQ(count, clean_count);
    EXPECT_EQ(ec.stats().wcoj_top_index.load(), 1);
    EXPECT_GE(ec.stats().mem_peak_bytes.load(), index_bytes);
    EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
  }
}

TEST(RecoveryTest, MaskFramesChargedBeforeAllocation) {
  const Hypergraph h = Hypergraph::Triangle();
  const DenseTriangle in = MakeDenseTriangle();
  const QueryInput& db = in.db;
  ExecContext ref_ec(1);
  const int64_t clean_count = WcojCount(h, db, &ref_ec);
  for (int threads : {1, 4}) {
    ExecContext ec(threads);
    int64_t count = -1;
    const auto run_count = [&] { count = WcojCount(h, db, &ec); };
    const int64_t total = in.Total(threads);
    // Everything but one byte of the last worker's frames fits: the
    // abort comes before any frame is allocated and leaves nothing
    // charged.
    const ExecResult aborted =
        RunGuarded(ec, {.memory_budget_bytes = total - 1}, run_count);
    ASSERT_EQ(aborted.status, ExecStatus::kMemoryLimitExceeded)
        << "threads=" << threads;
    EXPECT_EQ(count, -1);
    EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
    ec.stats().Reset();
    const ExecResult ok =
        RunGuarded(ec, {.memory_budget_bytes = total}, run_count);
    ASSERT_TRUE(ok.ok()) << ok.message;
    EXPECT_EQ(count, clean_count);
    EXPECT_EQ(ec.stats().wcoj_parallel_runs.load(), threads > 1 ? 1 : 0);
    EXPECT_GE(ec.stats().mem_peak_bytes.load(), total);
    EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
  }
}

// Triangle input in which every y meets three consecutive x values in R
// and three consecutive z values in S, and every x meets three consecutive
// z values in T. Each light corner then has about 9 ny candidate pairs,
// more than the heavy core's fill of about 6 ny rows, so at Delta = 1
// every value is heavy, every light corner is empty and the core decides;
// the matrix dimensions are exactly nx, ny, nz. (0, 0, 0) is a triangle.
QueryInput HeavyTriangle(int nx, int ny, int nz) {
  Relation r(VarSet{0, 1}), s(VarSet{1, 2}), t(VarSet{0, 2});
  for (Value j = 0; j < 3; ++j) {
    for (Value y = 0; y < ny; ++y) {
      r.Add({(y + j) % nx, y});
      s.Add({y, (y + j) % nz});
    }
    for (Value x = 0; x < nx; ++x) t.Add({x, (x + j) % nz});
  }
  return Sorted({std::move(r), std::move(s), std::move(t)});
}

// omega = 1 puts every engine's degree threshold at N^0 = 1.
constexpr double kAllHeavyOmega = 1.0;

// The WCOJ oracle's Boolean answer on `db`, checked against the answer
// the input's construction states.
int64_t OracleBoolean(const Hypergraph& h, const QueryInput& db,
                      bool stated) {
  const bool found = WcojBoolean(h, db);
  EXPECT_EQ(found, stated) << h.ToString();
  return int64_t{found};
}

// One caller of the MM operator. `run` returns the answer (a count, or a
// Boolean as 0/1) and sets the bytes the products hold (operands and
// product), implied by the dimensions the engine reports or, for engines
// whose stats carry none, by the input's construction.
struct MmEngineCase {
  std::string name;
  MmKernel kernel;
  int64_t products;  ///< MM products one run performs
  int64_t expected;  ///< the WCOJ oracle's answer
  std::function<int64_t(ExecContext&, int64_t*)> run;
};

std::vector<MmEngineCase> MmEngineCases() {
  std::vector<MmEngineCase> cases;
  // Inner dimensions dwarf the outer ones, so the operands outweigh the
  // (separately charged) product and every relation-side charge. Bit
  // packing shrinks the inner dimension 64x, so the kBoolean case also
  // needs a wide X side.
  for (MmKernel kernel : {MmKernel::kBoolean, MmKernel::kBitSliced}) {
    const bool boolean = kernel == MmKernel::kBoolean;
    const QueryInput db = boolean ? HeavyTriangle(4096, 8192, 64)
                                  : HeavyTriangle(16, 20000, 16);
    cases.push_back({"TriangleMm", kernel, 1,
                     OracleBoolean(Hypergraph::Triangle(), db, true),
                     [db, kernel](ExecContext& ec, int64_t* bytes) {
                       TriangleStats st;
                       const bool found =
                           TriangleMm(db, kAllHeavyOmega, kernel, &st, &ec);
                       EXPECT_FALSE(st.answer_from_light);
                       EXPECT_EQ(st.solo_corner, -1);
                       *bytes = MmBytes(st.mm_dim_x, st.mm_dim_y,
                                        st.mm_dim_z, kernel);
                       return int64_t{found};
                     }});
  }
  const QueryInput tri = HeavyTriangle(16, 20000, 16);
  const int64_t tri_count = WcojCount(Hypergraph::Triangle(), tri);
  EXPECT_GT(tri_count, 0);
  // Full-domain dimensions: |X| = |Z| = 16, |Y| = 20000.
  cases.push_back({"TriangleCountMm", MmKernel::kBitSliced, 1, tri_count,
                   [tri](ExecContext& ec, int64_t* bytes) {
                     *bytes = MmBytes(16, 20000, 16, MmKernel::kBitSliced);
                     return TriangleCountMm(tri, MmKernel::kBitSliced, &ec);
                   }});
  {
    // Four-cycle-free: x reaches y = w = x % 16, z reaches y = z % 16 and
    // w = (z + 1) % 16. Every y and w is heavy, so both light 2-path sets
    // are empty and the two heavy-core products run.
    constexpr int kInner = 10000, kOuter = 16;
    Relation r(VarSet{0, 1}), s(VarSet{1, 2}), t(VarSet{2, 3}),
        u(VarSet{0, 3});
    for (Value x = 0; x < kInner; ++x) {
      r.Add({x, x % kOuter});
      u.Add({x, x % kOuter});
    }
    for (Value z = 0; z < kInner; ++z) {
      s.Add({z % kOuter, z});
      t.Add({z, (z + 1) % kOuter});
    }
    const QueryInput db = Sorted(
        {std::move(r), std::move(s), std::move(t), std::move(u)});
    cases.push_back({"FourCycleMm", MmKernel::kBitSliced, 2,
                     OracleBoolean(Hypergraph::Cycle(4), db, false),
                     [db](ExecContext& ec, int64_t* bytes) {
                       FourCycleStats st;
                       const bool found = FourCycleMm(
                           db, kAllHeavyOmega, MmKernel::kBitSliced, &st, &ec);
                       // B1 = (w x x)(x x y) and B2 = (y x z)(z x w), both
                       // live at once; mm_dims = {|W|, |X| + |Z|, |Y|}.
                       const int64_t w = st.mm_dims[0], xz = st.mm_dims[1],
                                     y = st.mm_dims[2];
                       *bytes =
                           IndicatorBytes(w + y, xz, MmKernel::kBitSliced) +
                           2 * IndicatorBytes(w, y, MmKernel::kBitSliced);
                       return int64_t{found};
                     }});
  }
  {
    // Pyramid-free (the base pairs x2 = x3 + 5, no y reaches that), with
    // one heavy x1 group whose product is (16 x Y) times (Y x 16).
    constexpr int kY = 20000, kX = 16;
    Relation r1(VarSet{0, 1}), r2(VarSet{0, 2}), r3(VarSet{0, 3}),
        base(VarSet{1, 2, 3});
    for (Value y = 0; y < kY; ++y) {
      r1.Add({y, 0});
      r2.Add({y, y % kX});
      r2.Add({y, (y + 1) % kX});
      r3.Add({y, y % kX});
    }
    for (Value x3 = 0; x3 < kX; ++x3) base.Add({0, (x3 + 5) % kX, x3});
    const QueryInput db = Sorted(
        {std::move(r1), std::move(r2), std::move(r3), std::move(base)});
    cases.push_back({"Pyramid3Mm", MmKernel::kBitSliced, 1,
                     OracleBoolean(Hypergraph::Pyramid(3), db, false),
                     [db](ExecContext& ec, int64_t* bytes) {
                       PyramidStats st;
                       const bool found = Pyramid3Mm(
                           db, kAllHeavyOmega, MmKernel::kBitSliced, &st, &ec);
                       EXPECT_EQ(st.mm_groups, 1);
                       *bytes = MmBytes(kX, kY, kX, MmKernel::kBitSliced);
                       return int64_t{found};
                     }});
  }
  {
    // 3-clique over pair relations (0,1), (0,2), (1,2); the middle group
    // is the 20000 values of variable 1. Every y closes the triangle
    // (y % 16, y, (y + 1) % 16).
    constexpr int kY = 20000, kX = 16;
    Relation e01(VarSet{0, 1}), e02(VarSet{0, 2}), e12(VarSet{1, 2});
    for (Value y = 0; y < kY; ++y) {
      e01.Add({y % kX, y});
      e12.Add({y, (y + 1) % kX});
    }
    for (Value x = 0; x < kX; ++x) e02.Add({x, (x + 1) % kX});
    const QueryInput db =
        Sorted({std::move(e01), std::move(e02), std::move(e12)});
    cases.push_back({"CliqueMm", MmKernel::kBitSliced, 1,
                     OracleBoolean(Hypergraph::Clique(3), db, true),
                     [db](ExecContext& ec, int64_t* bytes) {
                       CliqueStats st;
                       const bool found =
                           CliqueMm(3, db, MmKernel::kBitSliced, &st, &ec);
                       *bytes = MmBytes(
                           st.group_cliques[0], st.group_cliques[1],
                           st.group_cliques[2], MmKernel::kBitSliced);
                       return int64_t{found};
                     }});
  }
  {
    // Eliminate Y by MM(X; Z; Y), then X and Z by a for-loop.
    EliminationPlan plan;
    plan.steps.push_back({VarSet{1}, StepMethod::kMm,
                          MmExpr{VarSet{0}, VarSet{2}, VarSet{1},
                                 VarSet::Empty()}});
    plan.steps.push_back({VarSet{0, 2}, StepMethod::kForLoop, {}});
    cases.push_back({"ExecutePlan", MmKernel::kBitSliced, 1,
                     OracleBoolean(Hypergraph::Triangle(), tri, true),
                     [tri, plan](ExecContext& ec, int64_t* bytes) {
                       EliminationStats st;
                       const bool found = ExecutePlan(
                           Hypergraph::Triangle(), tri, plan,
                           {.kernel = MmKernel::kBitSliced}, &st, &ec);
                       // mm_cells = |X||Y| + |Y||Z|, the operand cells;
                       // the product is |X| x |Z| = 16 x 16.
                       *bytes = st.mm_cells * 8 +
                                IndicatorBytes(16, 16, MmKernel::kBitSliced);
                       return int64_t{found};
                     }});
  }
  {
    // At omega = 2 the threshold is ceil(N^(1/3)) = 51 and Z has no heavy
    // table; every x has 64 Y-neighbours and every y 64 Z-neighbours, so
    // both are heavy, the plain (light) tables are empty and the MM term
    // over 512 x 1500 x 64 decides. (0, y, 0) is a triangle.
    constexpr int kX = 512, kY = 1500, kZ = 64;
    Relation r(VarSet{0, 1}), s(VarSet{1, 2}), t(VarSet{0, 2});
    for (Value x = 0; x < kX; ++x) {
      for (Value j = 0; j < 64; ++j) r.Add({x, (x * 64 + j) % kY});
    }
    for (Value y = 0; y < kY; ++y) {
      for (Value z = 0; z < kZ; ++z) s.Add({y, z});
    }
    t.Add({0, 0});
    const QueryInput db =
        Sorted({std::move(r), std::move(s), std::move(t)});
    cases.push_back({"PandaTriangleBoolean", MmKernel::kBitSliced, 1,
                     OracleBoolean(Hypergraph::Triangle(), db, true),
                     [db](ExecContext& ec, int64_t* bytes) {
                       PandaStats st;
                       const bool found = PandaTriangleBoolean(
                           db, 2.0, MmKernel::kBitSliced, &st, &ec);
                       EXPECT_EQ(st.mm_executed, 1);
                       *bytes = MmBytes(kX, kY, kZ, MmKernel::kBitSliced);
                       return int64_t{found};
                     }});
  }
  return cases;
}

// Every engine that multiplies matrices returns the oracle's answer and
// charges its operands before it allocates them, and its products while
// it holds them: the tracked peak covers both, a budget below them
// aborts retryably with every charge released, and the context then runs
// the same query cleanly. TriangleCountMm's dense int64 operands were the
// first to be charged; the other engines allocated theirs uncharged.
TEST(RecoveryTest, EveryMmEngineChargesItsOperands) {
  for (const MmEngineCase& c : MmEngineCases()) {
    SCOPED_TRACE(c.name + " kernel=" +
                 std::to_string(static_cast<int>(c.kernel)));
    ExecContext ec(2);
    int64_t bytes = 0;
    EXPECT_EQ(c.run(ec, &bytes), c.expected);
    EXPECT_EQ(ec.stats().mm_products.load(), c.products);
    ASSERT_GT(bytes, 0);
    EXPECT_GE(ec.stats().mem_peak_bytes.load(), bytes);
    EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);

    int64_t unused = 0;
    const ExecResult aborted =
        RunGuarded(ec, {.memory_budget_bytes = bytes / 2},
                   [&] { c.run(ec, &unused); });
    EXPECT_EQ(aborted.status, ExecStatus::kMemoryLimitExceeded)
        << aborted.message;
    EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);

    int64_t again = -1;
    const ExecResult rerun =
        RunGuarded(ec, {}, [&] { again = c.run(ec, &unused); });
    ASSERT_TRUE(rerun.ok()) << rerun.message;
    EXPECT_EQ(again, c.expected);
  }
}

// A light corner that answers first runs no product at all. The instance
// is sparse (degrees near 1), so the split keeps every corner light; on
// TriangleWorkload's dense square it would send every value to the core.
TEST(RecoveryTest, LightCornerAnswerRunsNoMmProduct) {
  WorkloadOptions opts;
  opts.kind = WorkloadKind::kUniform;
  opts.tuples_per_relation = 4000;
  opts.domain = 4000;
  opts.seed = 5;
  opts.plant_witness = true;
  const QueryInput db = MakeWorkload(Hypergraph::Triangle(), opts);
  for (MmKernel kernel : {MmKernel::kBoolean, MmKernel::kBitSliced}) {
    ExecContext ec(2);
    TriangleStats st;
    EXPECT_TRUE(TriangleMm(db, 3.0, kernel, &st, &ec));
    ASSERT_TRUE(st.answer_from_light);
    EXPECT_EQ(ec.stats().mm_products.load(), 0);
  }
}

// Unbudgeted, every MM rung of the count ladder returns the oracle's
// count on a long, thin Y axis. Under a budget below TriangleCountMm's
// dense operands every MM rung fails before allocating them, and the
// ladder degrades to a combinatorial rung whose count is bit-identical to
// the clean run.
TEST(RecoveryTest, CountLadderDegradesPastMmRungsUnderBudget) {
  constexpr int kXz = 16, kY = 20000;
  const Hypergraph h = Hypergraph::Triangle();
  Relation r(VarSet{0, 1}), s(VarSet{1, 2}), t(VarSet{0, 2});
  for (Value y = 0; y < kY; ++y) {
    r.Add({y % kXz, y});
    s.Add({y, (y * 7) % kXz});
  }
  for (Value x = 0; x < kXz; ++x) {
    for (Value z = 0; z < kXz; z += 2) t.Add({x, z});
  }
  const QueryInput db =
      Sorted({std::move(r), std::move(s), std::move(t)});
  const int64_t dense_bytes = int64_t{8} * kY * (kXz + kXz);
  ExecContext ref_ec(1);
  const int64_t clean_count = WcojCount(h, db, &ref_ec);
  ASSERT_GT(clean_count, 0);
  for (const StrategyCard& card : TriangleCountLadder()) {
    if (!card.uses_mm) continue;
    ExecContext ec(2);
    EXPECT_EQ(TriangleCountMm(db, card.kernel, &ec), clean_count)
        << card.name;
  }
  for (int threads : {1, 4}) {
    ExecContext ec(threads);
    int64_t count = -1;
    RecoveryReport report;
    const ExecResult res = EvaluateCountWithRecovery(
        h, db, &count, &ec, {.memory_budget_bytes = dense_bytes / 2}, {},
        &report);
    ASSERT_TRUE(res.ok()) << res.message;
    EXPECT_EQ(count, clean_count) << "threads=" << threads;
    EXPECT_EQ(report.winning_rung, TriangleCountLadder().back().name);
    EXPECT_FALSE(TriangleCountLadder().back().uses_mm);
    for (const ExecResult& f : report.failures) {
      EXPECT_EQ(f.status, ExecStatus::kMemoryLimitExceeded) << f.message;
    }
    EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
  }
}

// ------------------------------------------------- per-site soaking --

// Recovery must hold under a fault at *any* site, not just mm: sweep
// every registered tag. Sites the count ladder never polls (e.g. panda)
// simply never fire — the run then matches the clean answer trivially,
// which is itself part of the contract (a plan for an untouched plane
// must not perturb results).
TEST(FaultPlanTest, PerSiteSoakRecoversOrMatchesCleanRun) {
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = TriangleWorkload(115);
  ExecContext ref_ec(1);
  const int64_t clean_count = WcojCount(h, db, &ref_ec);
  const Rational omega(5, 2);
  for (int s = 0; s < kNumFaultSites; ++s) {
    const std::string site = FaultSiteName(static_cast<FaultSite>(s));
    ExecContext ec(4);
    ec.guard().SetFaultPlan(MustParse(site + ":3"));
    // Count ladder: either some rung avoids the faulted plane and the
    // recovered answer is bit-identical to the clean run, or every rung
    // faults and the output is untouched. Which one happens depends on
    // the plan alone, never on timing.
    int64_t count = -1;
    const ExecResult r = EvaluateCountWithRecovery(h, db, &count, &ec);
    if (r.ok()) {
      EXPECT_EQ(count, clean_count) << "site " << site;
    } else {
      EXPECT_EQ(r.status, ExecStatus::kRetryExhausted)
          << "site " << site << ": " << r.message;
      EXPECT_EQ(count, -1) << "site " << site;
    }
    // Planner ladder: exercises the lp plane with a closed-form rung as
    // the fallback.
    Rational width;
    std::vector<PlanRung> ladder;
    ladder.push_back({"lp-full", [&](ExecContext& lec) {
                        OmegaSubwOptions o;
                        o.use_width_cache = false;
                        width = OmegaSubw(Hypergraph::Clique(4), omega, o,
                                          &lec).value;
                      }});
    ladder.push_back({"closed-form", [&](ExecContext&) {
                        width = closed_forms::OmegaSubwClique4(omega);
                      }});
    RecoveryReport report;
    const ExecResult rw = RunWithRecovery(ec, {}, {}, ladder, &report);
    ASSERT_TRUE(rw.ok()) << "site " << site << ": " << rw.message;
    EXPECT_EQ(width, closed_forms::OmegaSubwClique4(omega))
        << "site " << site;
    if (site == "lp") {
      EXPECT_EQ(report.winning_rung, "closed-form");
      EXPECT_GE(report.degraded_runs, 1);
    }
    ec.guard().SetFaultPlan(FaultPlan{});
  }
}

// CI soak hook: FMMSW_FAULT_PLAN is injected by the workflow (sweeping
// site tags under ASan and TSan at several thread counts); the guard
// re-reads it at every Arm. Recovered answers must match unguarded runs
// (which never arm, hence never fault).
TEST(FaultPlanTest, EnvFaultPlanSoak) {
  const char* spec = std::getenv("FMMSW_FAULT_PLAN");
  if (spec == nullptr || *spec == '\0') {
    GTEST_SKIP() << "set FMMSW_FAULT_PLAN to run the env soak";
  }
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = TriangleWorkload(117);
  const int64_t clean_count = WcojCount(h, db);
  const bool clean_bool = WcojBoolean(h, db);
  ExecContext ec;  // process pool, sized by FMMSW_THREADS
  MustParse(spec);  // the plan must at least be well-formed
  // The recovery invariant under an *arbitrary* plan: either the ladder
  // finds a rung the plan does not touch and returns the clean answer
  // bit-identically, or every rung faults and the outputs are untouched.
  // Which of the two happens is a function of the plan alone (per-site
  // ordinals are deterministic), never of timing or thread count.
  int64_t count = -1;
  bool result = !clean_bool;
  const ExecResult rc = EvaluateCountWithRecovery(h, db, &count, &ec);
  const ExecResult rb = EvaluateBooleanWithRecovery(h, db, &result, &ec);
  if (rc.ok()) {
    EXPECT_EQ(count, clean_count);
  } else {
    EXPECT_EQ(rc.status, ExecStatus::kRetryExhausted) << rc.message;
    EXPECT_EQ(count, -1) << "failed recovery leaked a partial count";
  }
  if (rb.ok()) {
    EXPECT_EQ(result, clean_bool);
  } else {
    EXPECT_EQ(rb.status, ExecStatus::kRetryExhausted) << rb.message;
    EXPECT_EQ(result, !clean_bool) << "failed recovery leaked a result";
  }
  EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
  // A triangle with a pendant path: the plan also reaches the ear pass.
  const Hypergraph pendant = TrianglePendantQuery();
  const QueryInput pendant_db = TrianglePendantNegative(117);
  bool pendant_result = true;
  const ExecResult rp =
      EvaluateBooleanWithRecovery(pendant, pendant_db, &pendant_result, &ec);
  if (rp.ok()) {
    EXPECT_FALSE(pendant_result);
  } else {
    EXPECT_EQ(rp.status, ExecStatus::kRetryExhausted) << rp.message;
    EXPECT_TRUE(pendant_result) << "failed recovery leaked a result";
  }
  EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
  // Planner ladder under the same plan: full LP solve with a closed-form
  // fallback rung.
  const Rational omega(5, 2);
  Rational width;
  std::vector<PlanRung> ladder;
  ladder.push_back({"lp-full", [&](ExecContext& lec) {
                      OmegaSubwOptions o;
                      o.use_width_cache = false;
                      width = OmegaSubw(Hypergraph::Clique(4), omega, o,
                                        &lec).value;
                    }});
  ladder.push_back({"closed-form", [&](ExecContext&) {
                      width = closed_forms::OmegaSubwClique4(omega);
                    }});
  const ExecResult rw = RunWithRecovery(ec, {}, {}, ladder);
  ASSERT_TRUE(rw.ok()) << rw.message;
  EXPECT_EQ(width, closed_forms::OmegaSubwClique4(omega));
}

// ---------------------------------------------------- admission control --

TEST(AdmissionTest, HeavySlotGatesQueueTimesOutDeterministically) {
  AdmissionConfig cfg;
  cfg.heavy_slots = 1;
  cfg.max_queued = 2;
  AdmissionController ctrl(cfg);
  ExecContext ec(1);
  AdmissionController::Ticket first;
  ASSERT_TRUE(
      ctrl.Admit(QueryClass::kHeavyAnalytic, {}, ec, &first).ok());
  EXPECT_TRUE(first.admitted());
  EXPECT_EQ(ctrl.active(QueryClass::kHeavyAnalytic), 1);
  EXPECT_EQ(ec.stats().admitted.load(), 1);
  // A deadline-bounded waiter times out while the slot is held, leaves
  // the queue, and reports the wait in queued_ns.
  AdmissionController::Ticket blocked;
  QueryLimits limits;
  limits.deadline_ms = 30;
  const ExecResult r =
      ctrl.Admit(QueryClass::kHeavyAnalytic, limits, ec, &blocked);
  EXPECT_EQ(r.status, ExecStatus::kDeadlineExceeded);
  EXPECT_FALSE(blocked.admitted());
  EXPECT_EQ(ctrl.queued(QueryClass::kHeavyAnalytic), 0);
  EXPECT_GE(ec.stats().queued_ns.load(), 30'000'000);
  // A patient waiter is admitted the moment the slot frees.
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    AdmissionController::Ticket t;
    const ExecResult wr = ctrl.Admit(QueryClass::kHeavyAnalytic, {}, ec, &t);
    EXPECT_TRUE(wr.ok()) << wr.message;
    admitted.store(true);
  });
  while (ctrl.queued(QueryClass::kHeavyAnalytic) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(admitted.load());
  first = AdmissionController::Ticket();  // release the slot
  waiter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(ctrl.active(QueryClass::kHeavyAnalytic), 0);
  EXPECT_EQ(ec.stats().admitted.load(), 2);
}

TEST(AdmissionTest, ShedsImmediatelyWhenQueueFull) {
  AdmissionConfig cfg;
  cfg.heavy_slots = 1;
  cfg.max_queued = 0;  // no queue at all: busy means shed
  AdmissionController ctrl(cfg);
  ExecContext ec(1);
  AdmissionController::Ticket first;
  ASSERT_TRUE(
      ctrl.Admit(QueryClass::kHeavyAnalytic, {}, ec, &first).ok());
  AdmissionController::Ticket second;
  const ExecResult r =
      ctrl.Admit(QueryClass::kHeavyAnalytic, {}, ec, &second);
  EXPECT_EQ(r.status, ExecStatus::kRejected);
  EXPECT_FALSE(second.admitted());
  EXPECT_EQ(ec.stats().shed.load(), 1);
  // Small probes are an independent class: the heavy congestion does
  // not affect them.
  AdmissionController::Ticket probe;
  EXPECT_TRUE(ctrl.Admit(QueryClass::kSmallProbe, {}, ec, &probe).ok());
}

TEST(AdmissionTest, FifoOrderIsArrivalOrder) {
  AdmissionConfig cfg;
  cfg.heavy_slots = 1;
  cfg.max_queued = 8;
  AdmissionController ctrl(cfg);
  ExecContext ec(1);
  AdmissionController::Ticket gate;
  ASSERT_TRUE(ctrl.Admit(QueryClass::kHeavyAnalytic, {}, ec, &gate).ok());
  std::mutex order_mu;
  std::vector<int> order;
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&, i] {
      AdmissionController::Ticket t;
      const ExecResult r =
          ctrl.Admit(QueryClass::kHeavyAnalytic, {}, ec, &t);
      EXPECT_TRUE(r.ok()) << r.message;
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(i);
      // Ticket released at scope exit, admitting the next waiter.
    });
    // Serialize arrival order so FIFO order is fully determined.
    while (ctrl.queued(QueryClass::kHeavyAnalytic) != i + 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  gate = AdmissionController::Ticket();
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(ctrl.active(QueryClass::kHeavyAnalytic), 0);
  EXPECT_EQ(ctrl.queued(QueryClass::kHeavyAnalytic), 0);
  EXPECT_EQ(ec.stats().admitted.load(), 4);
}

TEST(AdmissionTest, SmallProbeSlotsRunConcurrently) {
  AdmissionConfig cfg;
  cfg.small_slots = 4;
  cfg.max_queued = 0;
  AdmissionController ctrl(cfg);
  ExecContext ec(1);
  std::vector<AdmissionController::Ticket> tickets(4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        ctrl.Admit(QueryClass::kSmallProbe, {}, ec, &tickets[i]).ok())
        << i;
  }
  EXPECT_EQ(ctrl.active(QueryClass::kSmallProbe), 4);
  AdmissionController::Ticket overflow;
  EXPECT_EQ(ctrl.Admit(QueryClass::kSmallProbe, {}, ec, &overflow).status,
            ExecStatus::kRejected);
  tickets.clear();
  EXPECT_EQ(ctrl.active(QueryClass::kSmallProbe), 0);
}

// ------------------------------------------- shape-picked Boolean ladder --

// Zipf instances whose intermediates a materializing plan blows up: the
// Boolean ladder once opened with a variable-elimination rung that
// overran a 64 MiB budget on all three and answered only on its second
// attempt. The shape-picked ladder answers each on its first rung.
TEST(BooleanLadderTest, ZipfInstancesAnswerOnTheFirstRungWithinBudget) {
  const QueryLimits limits = {.memory_budget_bytes = int64_t{64} << 20};
  for (const Hypergraph& h :
       {StarQuery(4), Hypergraph::Clique(4), Hypergraph::Pyramid(3)}) {
    WorkloadOptions opts;
    opts.kind = WorkloadKind::kZipf;
    opts.tuples_per_relation = 2000;
    opts.domain = 1000;
    opts.seed = 3;
    const QueryInput db = MakeWorkload(h, opts);
    for (int threads : {1, 4}) {
      ExecContext ec(threads);
      bool answer = false;
      RecoveryReport report;
      const ExecResult r =
          EvaluateBooleanWithRecovery(h, db, &answer, &ec, limits, {}, &report);
      ASSERT_TRUE(r.ok()) << h.ToString() << ": " << r.message;
      EXPECT_EQ(report.attempts, 1) << h.ToString() << " threads=" << threads;
      EXPECT_EQ(report.degraded_runs, 0) << h.ToString();
      EXPECT_EQ(answer, WcojBoolean(h, db, &ec)) << h.ToString();
    }
  }
}

// R = {(i, 0)}, S = {(0, j)}, T = {(n + j, 0)}: R join S has n^2 rows
// and none of them extends into T. A path query's worst case for a plan
// without semijoin reduction.
QueryInput AdversarialPath3(int n) {
  Relation r(VarSet{0, 1}), s(VarSet{1, 2}), t(VarSet{2, 3});
  for (Value i = 0; i < n; ++i) {
    r.Add({i, 0});
    s.Add({0, i});
    t.Add({n + i, 0});
  }
  return Sorted({std::move(r), std::move(s), std::move(t)});
}

// The public path on every table shape: the answer equals the join of
// all relations, a query whose cyclic core is the triangle wins on the
// triangle ladder's first rung and any other on "wcoj" (ear reduction
// answers acyclic queries inside that rung), and no row needs a second
// attempt.
TEST(BooleanLadderTest, ShapeTablePicksRungByAcyclicity) {
  struct Row {
    std::string label;
    Hypergraph h;
    std::string rung;
    QueryInput db;
  };
  const std::string triangle_rung = TriangleBooleanLadder().front().name;
  std::vector<Row> rows;
  rows.push_back({"path3 adversarial", PathQuery(3), "wcoj",
                  AdversarialPath3(500)});
  rows.push_back({"triangle_pendant interleaved", TrianglePendantQuery(),
                  triangle_rung, TrianglePendantNegative(500)});
  {
    WorkloadOptions opts;
    opts.tuples_per_relation = 2000;
    opts.domain = 1000;
    opts.seed = 3;
    opts.plant_witness = true;
    rows.push_back({"path8 uniform planted", PathQuery(8), "wcoj",
                    MakeWorkload(PathQuery(8), opts)});
  }
  for (const QueryShape& s : QueryShapeTable()) {
    const std::string rung =
        s.name == "triangle_pendant" ? triangle_rung : "wcoj";
    for (WorkloadKind kind : {WorkloadKind::kUniform, WorkloadKind::kZipf}) {
      for (bool plant : {false, true}) {
        WorkloadOptions opts;
        opts.kind = kind;
        opts.domain = 1000;
        opts.seed = 11;
        opts.plant_witness = plant;
        // Zipf skews each relation's lowest variable. Where several
        // relations share variable 0, the all-relation join the reference
        // materializes grows with the product of their heavy degrees.
        opts.tuples_per_relation = 2000;
        if (kind == WorkloadKind::kZipf) {
          if (s.name == "star4") opts.tuples_per_relation = 150;
          if (s.name == "clique4" || s.name == "pyramid3") {
            opts.tuples_per_relation = 300;
          }
        }
        rows.push_back({s.name + (kind == WorkloadKind::kZipf ? " zipf"
                                                              : " uniform") +
                            (plant ? " planted" : ""),
                        s.h, rung, MakeWorkload(s.h, opts)});
      }
    }
  }
  for (const Row& row : rows) {
    const bool expect = BruteForceBoolean(row.h, row.db);
    for (int threads : {1, 4}) {
      ExecContext ec(threads);
      bool answer = !expect;
      RecoveryReport report;
      const ExecResult r = EvaluateBooleanWithRecovery(
          row.h, row.db, &answer, &ec, {}, {}, &report);
      ASSERT_TRUE(r.ok()) << row.label << ": " << r.message;
      EXPECT_EQ(answer, expect) << row.label << " threads=" << threads;
      EXPECT_EQ(report.winning_rung, row.rung) << row.label;
      EXPECT_EQ(report.attempts, 1) << row.label;
    }
  }
}

// Negatives that a join pays for quadratically are answered by ear
// reduction alone: no WCOJ run, and at most one semijoin per ear.
TEST(BooleanLadderTest, EarReductionAnswersNegativesWithoutJoining) {
  struct Row {
    std::string label;
    Hypergraph h;
    QueryInput db;
  };
  const Row rows[] = {
      {"path3 adversarial", PathQuery(3), AdversarialPath3(4000)},
      {"triangle_pendant interleaved", TrianglePendantQuery(),
       TrianglePendantNegative(4000)}};
  for (const Row& row : rows) {
    ExecContext ec(1);
    const int64_t wcoj_runs = ec.stats().wcoj_runs.load();
    const int64_t semijoins = ec.stats().semijoin_calls.load();
    bool answer = true;
    const ExecResult r = EvaluateBooleanWithRecovery(row.h, row.db, &answer,
                                                     &ec);
    ASSERT_TRUE(r.ok()) << row.label << ": " << r.message;
    EXPECT_FALSE(answer) << row.label;
    EXPECT_EQ(ec.stats().wcoj_runs.load(), wcoj_runs) << row.label;
    EXPECT_LE(ec.stats().semijoin_calls.load() - semijoins,
              static_cast<int64_t>(row.h.EarOrder().size()))
        << row.label;
  }
}

// An ops fault at every poll ordinal the ear pass reaches: each run
// either recovers the clean answer or exhausts its ladder, and never
// leaks an answer or tracked memory.
TEST(BooleanLadderTest, EarReductionUnderOpsFaults) {
  const Hypergraph h = TrianglePendantQuery();
  const QueryInput db = TrianglePendantNegative(500);
  const int ears = static_cast<int>(h.EarOrder().size());
  ASSERT_GE(ears, 1);
  int exhausted = 0;
  for (int threads : {1, 4}) {
    for (int k = 1; k <= ears; ++k) {
      ExecContext ec(threads);
      ec.guard().SetFaultPlan(MustParse("ops:" + std::to_string(k)));
      bool answer = true;
      const ExecResult r = EvaluateBooleanWithRecovery(h, db, &answer, &ec);
      const std::string where =
          "threads=" + std::to_string(threads) + " ops:" + std::to_string(k);
      if (r.ok()) {
        EXPECT_FALSE(answer) << where;
      } else {
        EXPECT_EQ(r.status, ExecStatus::kRetryExhausted) << where;
        EXPECT_TRUE(answer) << "failed recovery leaked a result, " << where;
        ++exhausted;
      }
      EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0) << where;
      ec.guard().SetFaultPlan(FaultPlan{});
    }
  }
  // ops:1 fires at the first ear's poll on every rung.
  EXPECT_GT(exhausted, 0);
}

// A triangle-free square on [0, d), d a multiple of 4: R and S keep the
// pairs whose sum is 0 mod 4, T those whose sum is 1 mod 4 (x + y and
// y + z both 0 mod 4 force x + z to be even). Every degree is d / 4, so
// every split with a heavy value runs the full Figure-1 core.
QueryInput ModFourSquareTriangle(int d) {
  Relation r(VarSet{0, 1}), s(VarSet{1, 2}), t(VarSet{0, 2});
  for (Value a = 0; a < d; ++a) {
    for (Value b = 0; b < d; ++b) {
      if ((a + b) % 4 == 0) {
        r.Add({a, b});
        s.Add({a, b});
      } else if ((a + b) % 4 == 1) {
        t.Add({a, b});
      }
    }
  }
  return Sorted({std::move(r), std::move(s), std::move(t)});
}

// The Boolean ladder's first rung runs the full split on bit-packed
// operands, so a budget that the int64 operands of a counting kernel
// overrun still answers on that rung, in one attempt.
TEST(BooleanLadderTest, FirstRungAnswersWithinBitPackedBudget) {
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = ModFourSquareTriangle(64);
  const StrategyCard& first = TriangleBooleanLadder().front();
  ASSERT_TRUE(first.uses_mm);
  for (int threads : {1, 4}) {
    TriangleStats st;
    ExecContext probe(threads);
    ASSERT_FALSE(TriangleMm(db, first.omega, MmKernel::kBoolean, &st, &probe));
    ASSERT_EQ(st.solo_corner, -1);
    const int64_t packed_peak = probe.stats().mem_peak_bytes.load();
    const int64_t int64_operands =
        IndicatorBytes(st.mm_dim_x, st.mm_dim_y, MmKernel::kBitSliced) +
        IndicatorBytes(st.mm_dim_y, st.mm_dim_z, MmKernel::kBitSliced);
    ASSERT_LT(packed_peak, int64_operands) << "threads=" << threads;
    const QueryLimits limits = {
        .memory_budget_bytes = (packed_peak + int64_operands) / 2};
    ExecContext ec(threads);
    bool answer = true;
    RecoveryReport report;
    const ExecResult r =
        EvaluateBooleanWithRecovery(h, db, &answer, &ec, limits, {}, &report);
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_FALSE(answer);
    EXPECT_EQ(report.winning_rung, first.name) << "threads=" << threads;
    EXPECT_EQ(report.attempts, 1) << "threads=" << threads;
    EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
  }
}

// ------------------------------------------------- strategy metadata --

TEST(StrategyTest, LaddersDescendByMemoryRankAndEndInWcoj) {
  std::vector<const std::vector<StrategyCard>*> ladders = {
      &TriangleCountLadder(), &TriangleBooleanLadder()};
  for (const QueryShape& s : QueryShapeTable()) {
    ladders.push_back(&BooleanLadderFor(s.h));
  }
  for (const auto* ladder : ladders) {
    ASSERT_FALSE(ladder->empty());
    for (size_t i = 1; i < ladder->size(); ++i) {
      EXPECT_LT((*ladder)[i].memory_rank, (*ladder)[i - 1].memory_rank);
    }
    EXPECT_FALSE(ladder->back().uses_mm)
        << "the last rung must be the memory-lightest combinatorial plan";
    EXPECT_EQ(ladder->back().name, "wcoj");
  }
  EXPECT_EQ(&BooleanLadderFor(Hypergraph::Triangle()),
            &TriangleBooleanLadder());
  EXPECT_TRUE(IsTriangleQuery(Hypergraph::Triangle()));
  EXPECT_FALSE(IsTriangleQuery(Hypergraph::Cycle(4)));
  EXPECT_FALSE(IsTriangleQuery(Hypergraph::Clique(4)));
}

}  // namespace
}  // namespace fmmsw
