// End-to-end query benchmark for the fmmsw library.
//
// One closed-loop client in one process sends requests through the public
// service path and waits for each answer before sending the next:
//
//   Database::snapshot -> Database::PlanWidths (through the process
//   WidthCache) -> Database::Query{Boolean,Count,Join} with the default
//   QueryOptions (recovery ladder on).
//
// A workload (README.md explains each) builds its catalogs from --seed,
// checks its oracles, pays the cold plans and one warm-up round, then
// repeats a fixed round of interleaved requests for --seconds and checks
// every answer. The last stdout line is the JSON result; the line before
// it, {"info": ...}, carries labels (winning rungs, sample counts, tail
// percentiles, instance sizes). A human-readable summary goes to stderr.
//
// With --trace 1 the boolean and answer requests of each round are
// replayed as separate calls into the public functions of each layer
// (core, width, engine, relation, mm), and per-layer metrics are reported
// instead of end-to-end ones. Spans are taken here, around those calls;
// nothing inside the library is instrumented.
//
// Usage: fmmsw_e2e --workload NAME --seed N --seconds S --trace 0|1
// e2e_bench/run.py builds this binary and is the supported entry point.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/database.h"
#include "engine/elimination.h"
#include "engine/strategy.h"
#include "engine/td_eval.h"
#include "engine/triangle.h"
#include "engine/wcoj.h"
#include "mm/kernel.h"
#include "mm/matrix.h"
#include "relation/degree.h"
#include "relation/flat_index.h"
#include "relation/generators.h"
#include "relation/ops.h"
#include "util/check.h"
#include "width/width_cache.h"

namespace fmmsw {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ------------------------------------------------------------ statistics --

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A tail is the highest order statistic with at least kTailBeyond samples
/// above it: p75 at 40 samples, p90 at 100, p95 at 200.
constexpr size_t kTailBeyond = 10;

double Tail(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (v.size() <= kTailBeyond) return v.back();
  return v[v.size() - 1 - kTailBeyond];
}

double TailPercentile(size_t n) {
  if (n <= kTailBeyond) return 100.0;
  return 100.0 * static_cast<double>(n - kTailBeyond) / static_cast<double>(n);
}

/// Least-squares slope of log(ms) against log(N): the fitted exponent.
double FitSlope(const std::vector<double>& n, const std::vector<double>& ms) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double k = static_cast<double>(n.size());
  for (size_t i = 0; i < n.size(); ++i) {
    const double x = std::log(n[i]), y = std::log(ms[i]);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  return (k * sxy - sx * sy) / (k * sxx - sx * sx);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ull + salt;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// ------------------------------------------------------------ generators --

using Rels = std::vector<Relation>;

/// R, S and T draw n, 1.04n and 1.08n tuples. With equal draws their
/// deduplicated sizes differ by a few rows, so the build side of each
/// light-corner hash join (the smaller input) flips from seed to seed and
/// moves the boolean latency by about 14%. Fixed ratios pin the sides.
constexpr double kTriangleDraw[3] = {1.0, 1.04, 1.08};

int64_t Draw(int64_t n, int relation) {
  return std::llround(static_cast<double>(n) * kTriangleDraw[relation]);
}

/// R(X,Y), S(Y,Z), T(X,Z) with Z made even in S and odd in T: no triangle
/// closes, so every plan does its full work and answers false (count 0).
Rels SplitZByParity(Relation r, const Relation& raw_s, const Relation& raw_t) {
  Relation s(VarSet{1, 2}), t(VarSet{0, 2});
  for (size_t i = 0; i < raw_s.size(); ++i) {
    const Value row[2] = {raw_s.Row(i)[0], 2 * raw_s.Row(i)[1]};
    s.AddRow(row);
  }
  for (size_t i = 0; i < raw_t.size(); ++i) {
    const Value row[2] = {raw_t.Row(i)[0], 2 * raw_t.Row(i)[1] + 1};
    t.AddRow(row);
  }
  Rels out;
  out.push_back(std::move(r));
  out.push_back(std::move(s));
  out.push_back(std::move(t));
  return out;
}

/// Lemma C.5's hard regime (the instance bench_triangle sweeps): all three
/// variables live on a ~sqrt(n) domain, so every value is heavy.
Rels DenseTriangle(int64_t n, uint64_t seed) {
  const int64_t d = std::max<int64_t>(
      4, static_cast<int64_t>(std::sqrt(static_cast<double>(n))));
  Rng rng(seed);
  Relation r = UniformRelation(VarSet{0, 1}, Draw(n, 0), d, &rng);
  const Relation s = UniformRelation(VarSet{1, 2}, Draw(n, 1), d, &rng);
  const Relation t = UniformRelation(VarSet{0, 2}, Draw(n, 2), d, &rng);
  return SplitZByParity(std::move(r), s, t);
}

/// Zipf-skewed triangle instance: the first column of each relation is
/// Zipf(1.2), the second uniform. It is made triangle-free like the dense
/// one: on a positive instance the boolean request stops at the first
/// witness, whose place in the probe order (and so the latency) moves from
/// seed to seed.
Rels SkewTriangle(int64_t tuples, int64_t domain, uint64_t seed) {
  Rng rng(seed);
  Relation r = ZipfRelation(VarSet{0, 1}, Draw(tuples, 0), domain, 1.2, &rng);
  const Relation s =
      ZipfRelation(VarSet{1, 2}, Draw(tuples, 1), domain, 1.2, &rng);
  const Relation t =
      ZipfRelation(VarSet{0, 2}, Draw(tuples, 2), domain, 1.2, &rng);
  return SplitZByParity(std::move(r), s, t);
}

/// Lemma C.13's heavy regime (the instance bench_pyramid sweeps): apex
/// degrees n/d with d = n^0.4 exceed the elimination threshold. X3 is odd
/// in R3 and even in the base relation, so the instance is pyramid-free.
Rels HeavyPyramid(int64_t n, uint64_t seed) {
  const int64_t d = std::max<int64_t>(
      4, static_cast<int64_t>(std::pow(static_cast<double>(n), 0.4)));
  Rng rng(seed);
  Rels out;
  out.push_back(UniformRelation(VarSet{0, 1}, n, d, &rng));
  out.push_back(UniformRelation(VarSet{0, 2}, n, d, &rng));
  const Relation raw3 = UniformRelation(VarSet{0, 3}, n, d, &rng);
  Relation r3(VarSet{0, 3});
  for (size_t i = 0; i < raw3.size(); ++i) {
    const Value row[2] = {raw3.Row(i)[0], 2 * raw3.Row(i)[1] + 1};
    r3.AddRow(row);
  }
  out.push_back(std::move(r3));
  const Relation raw_base = UniformRelation(VarSet{1, 2, 3}, n, d, &rng);
  Relation base(VarSet{1, 2, 3});
  for (size_t i = 0; i < raw_base.size(); ++i) {
    const Value* r = raw_base.Row(i);
    const Value row[3] = {r[0], r[1], 2 * r[2]};
    base.AddRow(row);
  }
  out.push_back(std::move(base));
  return out;
}

/// Edge index 2 of Hypergraph::Clique(4) is {X0, X3}: it keeps odd-sum
/// pairs while every other edge keeps even-sum pairs, so no 4-clique can
/// exist (all four values would share one parity). bench_kclique uses the
/// same filter.
int CliqueEdgeParity(size_t edge) { return edge == 2 ? 1 : 0; }

Rels ParityClique4(int64_t domain, uint64_t seed) {
  WorkloadOptions o;
  o.kind = WorkloadKind::kDense;
  o.domain = domain;
  o.dense_density = 0.3;
  o.seed = seed;
  const QueryInput raw = MakeWorkload(Hypergraph::Clique(4), o);
  Rels out;
  for (size_t e = 0; e < raw.relations.size(); ++e) {
    const Relation& r = raw.relations[e];
    Relation kept(r.schema());
    for (size_t i = 0; i < r.size(); ++i) {
      if (((r.Row(i)[0] + r.Row(i)[1]) & 1) == CliqueEdgeParity(e)) {
        kept.AddRow(r.Row(i));
      }
    }
    out.push_back(std::move(kept));
  }
  return out;
}

/// Adds one consistent assignment to every relation: a planted witness.
void Plant(const Hypergraph& h, const std::vector<Value>& assign, Rels* rels) {
  for (size_t e = 0; e < h.edges().size(); ++e) {
    std::vector<Value> row;
    for (int v : h.edges()[e].Members()) row.push_back(assign[v]);
    (*rels)[e].Add(row);
    (*rels)[e].SortAndDedupe();
  }
}

// ---------------------------------------------------------------- oracle --

/// Rows (key, value) of a binary relation grouped by key (CSR layout).
struct Adjacency {
  std::vector<int64_t> offset;  // key k owns adj[offset[k], offset[k+1])
  std::vector<Value> adj;

  size_t keys() const { return offset.size() - 1; }
};

Adjacency ByFirstColumn(const Relation& r) {
  Value max_key = 0;
  for (size_t i = 0; i < r.size(); ++i) {
    FMMSW_CHECK(r.Row(i)[0] >= 0 && r.Row(i)[1] >= 0);
    max_key = std::max(max_key, r.Row(i)[0]);
  }
  Adjacency a;
  a.offset.assign(static_cast<size_t>(max_key) + 2, 0);
  for (size_t i = 0; i < r.size(); ++i) ++a.offset[r.Row(i)[0] + 1];
  for (size_t k = 0; k + 1 < a.offset.size(); ++k) {
    a.offset[k + 1] += a.offset[k];
  }
  std::vector<int64_t> next(a.offset.begin(), a.offset.end() - 1);
  a.adj.resize(r.size());
  for (size_t i = 0; i < r.size(); ++i) {
    a.adj[next[r.Row(i)[0]]++] = r.Row(i)[1];
  }
  return a;
}

/// Serial triangle count with no engine code: for every x, mark T(x, .) in
/// a flag array over Z, then walk R(x, y) and S(y, z) and count marked z.
/// Relations are sets, so this is also the size of the full join.
int64_t CountTriangles(const Rels& rels) {
  const Adjacency r = ByFirstColumn(rels[0]);  // X -> Y
  const Adjacency s = ByFirstColumn(rels[1]);  // Y -> Z
  const Adjacency t = ByFirstColumn(rels[2]);  // X -> Z
  Value max_z = 0;
  for (Value z : s.adj) max_z = std::max(max_z, z);
  for (Value z : t.adj) max_z = std::max(max_z, z);
  std::vector<uint8_t> marked(static_cast<size_t>(max_z) + 1, 0);
  int64_t count = 0;
  const size_t xs = std::min(r.keys(), t.keys());
  for (size_t x = 0; x < xs; ++x) {
    for (int64_t i = t.offset[x]; i < t.offset[x + 1]; ++i) {
      marked[t.adj[i]] = 1;
    }
    for (int64_t i = r.offset[x]; i < r.offset[x + 1]; ++i) {
      const size_t y = static_cast<size_t>(r.adj[i]);
      if (y >= s.keys()) continue;
      for (int64_t j = s.offset[y]; j < s.offset[y + 1]; ++j) {
        count += marked[s.adj[j]];
      }
    }
    for (int64_t i = t.offset[x]; i < t.offset[x + 1]; ++i) {
      marked[t.adj[i]] = 0;
    }
  }
  return count;
}

// ------------------------------------------------------------- workloads --

enum class Answer { kCount, kJoin };

struct Instance {
  Rels rels;
  /// Size of the full join. -1 marks a planted copy whose exact count is
  /// not computed here: the engine must report at least one.
  int64_t expect = 0;
};

/// Default instance sizes (generator parameters, not N). A run of
/// --seconds 15 on one worker collects 70 to 130 rounds of each; see
/// CALIBRATION.md.
constexpr int64_t kDenseN = 24000;
constexpr int64_t kSkewTuples = 80000;
constexpr int64_t kSkewDomain = 24000;
constexpr int64_t kPyramidN = 8000;
constexpr int64_t kChurnDomain = 150;
/// Planted-witness copies are small: they check answers, not speed.
constexpr int64_t kPlantedDenseN = 2000;
constexpr int64_t kPlantedSkewTuples = 20000;
constexpr int64_t kPlantedSkewDomain = 6000;
constexpr int64_t kPlantedPyramidN = 1000;
constexpr int64_t kPlantedChurnDomain = 40;

/// The sweep behind exponent_boolean: the default instance plus copies at
/// these fractions of its size.
const std::vector<double> kSweepScales = {0.125, 0.25, 0.5};

/// Planning exponent: log2 7, the threshold of the top MM rung.
const Rational kPlanOmega(2807355, 1000000);

struct Workload {
  std::string name;
  Hypergraph h;
  std::vector<std::string> atoms;
  Answer answer = Answer::kCount;
  /// Each round commits fresh rows before its answer request.
  bool churn = false;
  /// The paper's exponent for exponent_boolean, or 0 where it states none.
  double paper_exponent = 0.0;
  /// Instance at `scale` times the default size, with its oracle.
  std::function<Instance(double scale, uint64_t seed)> make;
  /// Small copy with a planted witness: its boolean answer must be true.
  std::function<Instance(uint64_t seed)> planted;
};

int64_t Scaled(int64_t v, double scale) {
  return std::max<int64_t>(1, std::llround(static_cast<double>(v) * scale));
}

bool MakeWorkloadSpec(const std::string& name, Workload* w) {
  w->name = name;
  const double strassen = std::log2(7.0);
  if (name == "tri_dense") {
    w->h = Hypergraph::Triangle();
    w->atoms = {"R", "S", "T"};
    w->paper_exponent = 2 * strassen / (strassen + 1);
    w->make = [](double scale, uint64_t seed) {
      return Instance{DenseTriangle(Scaled(kDenseN, scale), seed), 0};
    };
    w->planted = [](uint64_t seed) {
      Instance in{DenseTriangle(kPlantedDenseN, seed), 0};
      Plant(Hypergraph::Triangle(), {0, 0, 1}, &in.rels);
      in.expect = CountTriangles(in.rels);
      return in;
    };
    return true;
  }
  if (name == "tri_skew") {
    w->h = Hypergraph::Triangle();
    w->atoms = {"R", "S", "T"};
    w->answer = Answer::kJoin;
    // The serial counter checks the construction on every instance.
    w->make = [](double scale, uint64_t seed) {
      Instance in{SkewTriangle(Scaled(kSkewTuples, scale),
                               Scaled(kSkewDomain, scale), seed),
                  0};
      in.expect = CountTriangles(in.rels);
      return in;
    };
    w->planted = [](uint64_t seed) {
      Instance in{SkewTriangle(kPlantedSkewTuples, kPlantedSkewDomain, seed),
                  0};
      Plant(Hypergraph::Triangle(), {0, 0, 1}, &in.rels);
      in.expect = CountTriangles(in.rels);
      return in;
    };
    return true;
  }
  if (name == "pyramid") {
    w->h = Hypergraph::Pyramid(3);
    w->atoms = {"R1", "R2", "R3", "B"};
    w->make = [](double scale, uint64_t seed) {
      return Instance{HeavyPyramid(Scaled(kPyramidN, scale), seed), 0};
    };
    w->planted = [](uint64_t seed) {
      Instance in{HeavyPyramid(kPlantedPyramidN, seed), -1};
      Plant(Hypergraph::Pyramid(3), {0, 0, 0, 1}, &in.rels);
      return in;
    };
    return true;
  }
  if (name == "churn") {
    w->h = Hypergraph::Clique(4);
    w->atoms = {"E01", "E02", "E03", "E12", "E13", "E23"};
    w->churn = true;
    w->make = [](double scale, uint64_t seed) {
      // N grows with the square of the domain.
      return Instance{ParityClique4(Scaled(kChurnDomain, std::sqrt(scale)),
                                    seed),
                      0};
    };
    w->planted = [](uint64_t seed) {
      Instance in{ParityClique4(kPlantedChurnDomain, seed), -1};
      Plant(Hypergraph::Clique(4), {0, 2, 4, 6}, &in.rels);
      return in;
    };
    return true;
  }
  return false;
}

// ---------------------------------------------------------------- catalog --

struct Catalog {
  Database db;
  int64_t total = 0;   ///< tuples across the bound relations
  int64_t expect = 0;  ///< oracle (see Instance::expect)
};

std::unique_ptr<Catalog> Load(const Workload& w, Instance in,
                              ExecContext& ec) {
  auto c = std::make_unique<Catalog>();
  c->expect = in.expect;
  Database::Transaction txn = c->db.Begin(&ec);
  for (size_t i = 0; i < in.rels.size(); ++i) {
    txn.Replace(w.atoms[i], std::move(in.rels[i]));
  }
  txn.Commit();
  const Snapshot snap = c->db.snapshot(&ec);
  for (const std::string& a : w.atoms) {
    c->total += static_cast<int64_t>(snap.Find(a)->size());
  }
  return c;
}

// ------------------------------------------------------------- counters --

/// The ExecStats fields the trace reads, taken after a Reset() so they
/// belong to exactly one request.
struct Counters {
  int64_t retries = 0, degraded = 0;
  int64_t lp_solves = 0, lp_pivots = 0, cache_hits = 0;
  int64_t wcoj_runs = 0;
  int64_t sort_ns = 0, sort_rows = 0, index_ns = 0, index_rows = 0;
  int64_t pack_ns = 0, base_calls = 0, bitsliced_calls = 0;
  int64_t probe = 0, emit = 0;
  int64_t mem_peak = 0;
  int64_t versions_retired = 0;
};

Counters ReadCounters(const ExecStats& st) {
  Counters c;
  c.retries = st.retries.load();
  c.degraded = st.degraded_runs.load();
  c.lp_solves = st.lp_solves.load();
  c.lp_pivots = st.lp_pivots.load();
  c.cache_hits = st.width_cache_hits.load();
  c.wcoj_runs = st.wcoj_runs.load();
  c.sort_ns = st.sort_ns.load();
  c.sort_rows = st.sort_rows.load();
  c.index_ns = st.index_build_ns.load();
  c.index_rows = st.index_build_rows.load();
  c.pack_ns = st.mm_pack_ns.load();
  c.base_calls = st.mm_base_calls.load();
  c.bitsliced_calls = st.mm_bitsliced_calls.load();
  c.probe = st.fused_probe_tuples.load();
  c.emit = st.fused_emit_tuples.load();
  c.mem_peak = st.mem_peak_bytes.load();
  c.versions_retired = st.versions_retired.load();
  return c;
}

// ---------------------------------------------------------------- replay --

/// Child spans of a triangle MM rung stepped through the public operators.
struct Steps {
  double partition = 0, light_join = 0, semijoin = 0, intern = 0;
  double project_union = 0, fill = 0, product = 0;
  int64_t cells = 0;

  double Sum() const {
    return partition + light_join + semijoin + intern + project_union + fill +
           product;
  }
};

FlatInterner Intern(const Relation& unary, ExecContext& ec) {
  return FlatInterner(unary, KeySpec(unary, unary.schema()), &ec);
}

/// Figure 1 (what TriangleMm runs), one public operator at a time.
bool StepTriangleMm(const QueryInput& db, double omega, MmKernel kernel,
                    ExecContext& ec, Steps* st) {
  const Relation& r = db.relations[0];  // R(X,Y)
  const Relation& s = db.relations[1];  // S(Y,Z)
  const Relation& t = db.relations[2];  // T(X,Z)
  const double n = static_cast<double>(db.TotalSize());
  if (n == 0) return false;
  const int64_t delta = std::max<int64_t>(
      1, static_cast<int64_t>(
             std::ceil(std::pow(n, (omega - 1.0) / (omega + 1.0)))));
  auto t0 = Clock::now();
  const DegreePartition pr =
      PartitionByDegree(r, VarSet{1}, VarSet{0}, delta, &ec);
  const DegreePartition ps =
      PartitionByDegree(s, VarSet{2}, VarSet{1}, delta, &ec);
  const DegreePartition pt =
      PartitionByDegree(t, VarSet{0}, VarSet{2}, delta, &ec);
  st->partition += MsSince(t0);

  t0 = Clock::now();
  const Relation* light[3][3] = {{&t, &pr.light, &s},
                                 {&r, &ps.light, &t},
                                 {&s, &pt.light, &r}};
  bool found = false;
  for (const auto& q : light) {
    if (!Join(*q[0], *q[1], {.exist_filter = q[2], .limit = 1}, &ec)
             .empty()) {
      found = true;
      break;
    }
  }
  st->light_join += MsSince(t0);
  if (found) return true;

  t0 = Clock::now();
  const Relation m1 = SemijoinAll(r, {&pr.heavy, &ps.heavy}, &ec);
  const Relation m2 = SemijoinAll(s, {&ps.heavy, &pt.heavy}, &ec);
  st->semijoin += MsSince(t0);
  if (m1.empty() || m2.empty()) return false;

  t0 = Clock::now();
  const FlatInterner xi = Intern(pr.heavy, ec);
  const FlatInterner yi = Intern(ps.heavy, ec);
  const FlatInterner zi = Intern(pt.heavy, ec);
  st->intern += MsSince(t0);
  st->cells += static_cast<int64_t>(xi.size()) * yi.size() +
               static_cast<int64_t>(yi.size()) * zi.size();

  bool hit = false;
  if (kernel == MmKernel::kBoolean) {
    t0 = Clock::now();
    BitMatrix a(xi.size(), yi.size()), b(yi.size(), zi.size());
    for (size_t i = 0; i < m1.size(); ++i) {
      a.Set(xi.FindValue(m1.Get(i, 0)), yi.FindValue(m1.Get(i, 1)));
    }
    for (size_t i = 0; i < m2.size(); ++i) {
      b.Set(yi.FindValue(m2.Get(i, 1)), zi.FindValue(m2.Get(i, 2)));
    }
    st->fill += MsSince(t0);
    t0 = Clock::now();
    const BitMatrix m = BitMatrix::Multiply(a, b, &ec);
    st->product += MsSince(t0);
    t0 = Clock::now();
    for (size_t i = 0; i < t.size() && !hit; ++i) {
      const int x = xi.FindValue(t.Get(i, 0));
      const int z = zi.FindValue(t.Get(i, 2));
      hit = x >= 0 && z >= 0 && m.Get(x, z);
    }
    st->fill += MsSince(t0);
    return hit;
  }
  t0 = Clock::now();
  Matrix a(xi.size(), yi.size()), b(yi.size(), zi.size());
  for (size_t i = 0; i < m1.size(); ++i) {
    a.At(xi.FindValue(m1.Get(i, 0)), yi.FindValue(m1.Get(i, 1))) = 1;
  }
  for (size_t i = 0; i < m2.size(); ++i) {
    b.At(yi.FindValue(m2.Get(i, 1)), zi.FindValue(m2.Get(i, 2))) = 1;
  }
  st->fill += MsSince(t0);
  t0 = Clock::now();
  const Matrix m = CountingProduct(a, b, kernel, &ec);
  st->product += MsSince(t0);
  t0 = Clock::now();
  for (size_t i = 0; i < t.size() && !hit; ++i) {
    const int x = xi.FindValue(t.Get(i, 0));
    const int z = zi.FindValue(t.Get(i, 2));
    hit = x >= 0 && z >= 0 && m.At(x, z) != 0;
  }
  st->fill += MsSince(t0);
  return hit;
}

/// TriangleCountMm, one public operator at a time.
int64_t StepTriangleCountMm(const QueryInput& db, MmKernel kernel,
                            ExecContext& ec, Steps* st) {
  const Relation& r = db.relations[0];
  const Relation& s = db.relations[1];
  const Relation& t = db.relations[2];
  auto t0 = Clock::now();
  const Relation xs = Union(Project(r, VarSet{0}, &ec),
                            Project(t, VarSet{0}, &ec), &ec);
  const Relation ys = Union(Project(r, VarSet{1}, &ec),
                            Project(s, VarSet{1}, &ec), &ec);
  const Relation zs = Union(Project(s, VarSet{2}, &ec),
                            Project(t, VarSet{2}, &ec), &ec);
  st->project_union += MsSince(t0);

  t0 = Clock::now();
  const FlatInterner xi = Intern(xs, ec);
  const FlatInterner yi = Intern(ys, ec);
  const FlatInterner zi = Intern(zs, ec);
  st->intern += MsSince(t0);
  st->cells += static_cast<int64_t>(xi.size()) * yi.size() +
               static_cast<int64_t>(yi.size()) * zi.size();

  t0 = Clock::now();
  Matrix a(xi.size(), yi.size()), b(yi.size(), zi.size());
  for (size_t i = 0; i < r.size(); ++i) {
    a.At(xi.FindValue(r.Get(i, 0)), yi.FindValue(r.Get(i, 1))) = 1;
  }
  for (size_t i = 0; i < s.size(); ++i) {
    b.At(yi.FindValue(s.Get(i, 1)), zi.FindValue(s.Get(i, 2))) = 1;
  }
  st->fill += MsSince(t0);
  t0 = Clock::now();
  const Matrix m = CountingProduct(a, b, kernel, &ec);
  st->product += MsSince(t0);
  t0 = Clock::now();
  int64_t count = 0;
  for (size_t i = 0; i < t.size(); ++i) {
    count += m.At(xi.FindValue(t.Get(i, 0)), zi.FindValue(t.Get(i, 2)));
  }
  st->fill += MsSince(t0);
  return count;
}

const StrategyCard* FindCard(const std::vector<StrategyCard>& ladder,
                             const std::string& rung) {
  for (const StrategyCard& c : ladder) {
    if (c.name == rung) return &c;
  }
  return nullptr;
}

// ------------------------------------------------------------- reference --

/// A fixed amount of CPU and memory work that calls no library code: a
/// sort, hash probes into a 1 MiB table and random reads from a 32 MiB
/// array. It allocates nothing while timed, so the library's heap cannot
/// change its cost. The host this benchmark is calibrated on is shared and
/// has slow phases, minutes long, that slow every request alike. So the
/// client runs the kernel twice before every round and after every
/// set-up, and scales that round's latencies (or that set-up) by
/// kReferenceMs / (the mean of the two runs). A host slowdown cancels out,
/// and a change to the library cannot move the kernel. Timings as
/// measured are reported alongside.
class Reference {
 public:
  Reference() : table_(size_t{1} << 17, 0), big_(size_t{1} << 23) {
    Rng rng(7);
    for (int i = 0; i < 32768; ++i) keys_.push_back(rng.gen()());
    for (int i = 0; i < 65536; ++i) Insert(rng.gen()() | 1);
    for (size_t i = 0; i < big_.size(); ++i) {
      big_[i] = static_cast<uint32_t>(i * 2654435761u);
    }
    for (int i = 0; i < 131072; ++i) {
      probes_.push_back(rng.gen()() | 1);
      reads_.push_back(static_cast<uint32_t>(
          rng.Uniform(0, static_cast<int64_t>(big_.size()) - 1)));
    }
  }

  double RunMs() {
    const auto t0 = Clock::now();
    sorted_ = keys_;
    std::sort(sorted_.begin(), sorted_.end());
    uint64_t acc = sorted_[sorted_.size() / 2];
    for (uint64_t k : probes_) acc += Contains(k) ? 1 : 0;
    for (uint32_t i : reads_) acc += big_[i];
    sink_ += acc;
    return MsSince(t0);
  }

  /// Keeps the work observable so the compiler cannot drop it.
  uint64_t sink() const { return sink_; }

 private:
  size_t Slot(uint64_t k) const {
    k ^= k >> 31;
    k *= 0x9e3779b97f4a7c15ull;
    return (k ^ (k >> 29)) & (table_.size() - 1);
  }
  void Insert(uint64_t k) {
    size_t i = Slot(k);
    while (table_[i] != 0) i = (i + 1) & (table_.size() - 1);
    table_[i] = k;
  }
  bool Contains(uint64_t k) const {
    const size_t mask = table_.size() - 1;
    for (size_t i = Slot(k); table_[i] != 0; i = (i + 1) & mask) {
      if (table_[i] == k) return true;
    }
    return false;
  }

  std::vector<uint64_t> keys_, sorted_, table_, probes_;
  std::vector<uint32_t> big_, reads_;
  uint64_t sink_ = 0;
};

/// About the reference kernel's time on the calibration host in a quiet
/// phase (CALIBRATION.md), so scaled latencies read as milliseconds there.
constexpr double kReferenceMs = 5.0;

// ---------------------------------------------------------------- runner --

/// One measured client request.
struct Sample {
  double total_ms = 0;  ///< what the client waited, commit included
  double plan_ms = 0;
  double query_ms = 0;  ///< the Database::Query* call alone
  int64_t answer = -1;  ///< count, join size, or 0/1 for Boolean
  std::string rung;
  Counters counters;
};

struct Replay {
  double snapshot_bind_ms = 0, admission_ms = 0, engine_ms = 0;
  bool stepped = false;
  Steps steps;
  int64_t intermediate = 0;
  bool matches = false;
};

class Runner {
 public:
  Runner(Workload w, uint64_t seed) : w_(std::move(w)), seed_(seed) {}

  /// Builds every catalog from the seed, checks the oracles and the
  /// planted copy, pays the cold plans, and runs one warm-up round.
  /// Records the seconds it took. Earlier state is dropped first, so
  /// repeated calls measure the same work.
  void Setup();

  /// Runs rounds until `seconds` of wall time have passed. With `replay`
  /// each boolean and answer request is replayed layer by layer.
  void Measure(double seconds, bool replay);

  void PrintEndToEnd();
  void PrintPerLayer();

 private:
  void Check(bool ok, const std::string& what);
  bool Correct(const Catalog& c, bool boolean, int64_t answer) const;
  Sample Request(Catalog& c, bool boolean, bool read_counters);
  double ChurnCommit(Counters* counters, double* stage_ms,
                     double* publish_ms);
  Replay ReplayRequest(Catalog& c, bool boolean, const Sample& s);
  int64_t DirectEngine(const QueryInput& in, bool boolean,
                       const std::string& rung, int64_t* intermediate);
  void Round(bool record, bool replay);
  void PrintInfo(const std::map<std::string, std::string>& extra);

  Workload w_;
  uint64_t seed_;
  ExecContext ec_;
  std::unique_ptr<Catalog> main_;
  std::vector<std::unique_ptr<Catalog>> sweep_;

  // Churn state: each cycle resets the edges to `base_` and then appends
  // one fresh batch per round, edge by edge. Batches are drawn from
  // `churn_rng_` and avoid base rows and each other, so every append
  // changes the catalog digest (a planner miss) and keeps the instance
  // clique-free.
  static constexpr int kChurnAppendsPerCycle = 24;
  Rels base_;
  std::vector<std::unordered_set<uint64_t>> taken_;
  Rng churn_rng_{1};
  int64_t churn_round_ = 0;
  int64_t churn_total_ = 0;

  Reference reference_;
  std::vector<double> reference_ms_;  ///< per untraced round
  /// Set-up seconds as measured, and scaled by the kernel run right after.
  std::vector<double> setup_s_, setup_scaled_s_;

  int64_t attempted_ = 0, failed_ = 0;
  int64_t ops_ = 0;  ///< client operations sent (requests and commits)
  double rss_after_load_mb_ = 0;

  /// Request latencies of every recorded round; the rest only of
  /// untraced rounds ("scaled" = at the reference speed).
  std::vector<double> boolean_ms_, answer_ms_;
  std::vector<double> boolean_scaled_ms_, answer_scaled_ms_, ops_per_s_,
      ops_per_s_scaled_, boolean_query_ms_, answer_query_ms_, main_n_;
  std::vector<std::vector<double>> sweep_ms_;
  std::string boolean_rung_, answer_rung_;
  /// Per-round per-layer values (trace mode).
  std::map<std::string, std::vector<double>> layers_;
};

void Runner::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

bool Runner::Correct(const Catalog& c, bool boolean, int64_t answer) const {
  if (c.expect < 0) return boolean ? answer == 1 : answer >= 1;
  if (boolean) return answer == (c.expect > 0 ? 1 : 0);
  return answer == c.expect;
}

Sample Runner::Request(Catalog& c, bool boolean, bool read_counters) {
  Sample s;
  Relation joined;  // freed outside the timed region
  if (read_counters) ec_.stats().Reset();
  const auto t0 = Clock::now();
  const Snapshot snap = c.db.snapshot(&ec_);
  WidthReport plan;
  const auto tp = Clock::now();
  ExecResult r =
      c.db.PlanWidths(snap, w_.h, w_.atoms, kPlanOmega, &plan, {}, &ec_);
  s.plan_ms = MsSince(tp);
  RecoveryReport report;
  const auto tq = Clock::now();
  if (r.ok()) {
    if (boolean) {
      bool any = false;
      r = c.db.QueryBoolean(snap, w_.h, w_.atoms, &any, {}, &ec_, &report);
      s.answer = any ? 1 : 0;
    } else if (w_.answer == Answer::kCount) {
      r = c.db.QueryCount(snap, w_.h, w_.atoms, &s.answer, {}, &ec_,
                          &report);
    } else {
      r = c.db.QueryJoin(snap, w_.h, w_.atoms, w_.h.vertices(), &joined, {},
                         &ec_, &report);
      s.answer = static_cast<int64_t>(joined.size());
    }
  }
  s.query_ms = MsSince(tq);
  s.total_ms = MsSince(t0);
  if (read_counters) s.counters = ReadCounters(ec_.stats());
  s.rung = report.winning_rung;
  Check(r.ok() && Correct(c, boolean, s.answer),
        w_.name + (boolean ? " boolean" : " answer") + " request: status " +
            StatusString(r.status) + " " + r.message + ", answer " +
            std::to_string(s.answer) + ", oracle " +
            std::to_string(c.expect));
  ++ops_;
  return s;
}

double Runner::ChurnCommit(Counters* counters, double* stage_ms,
                           double* publish_ms) {
  const int64_t step = churn_round_ % (kChurnAppendsPerCycle + 1);
  ++churn_round_;
  // Client-side preparation (untimed): the rows to send.
  Rels send;
  size_t edge = 0;
  if (step == 0) {
    send = base_;
    for (auto& t : taken_) t.clear();
  } else {
    edge = static_cast<size_t>(step - 1) % base_.size();
    const Relation& b = base_[edge];
    const size_t want = std::max<size_t>(1, b.size() / 100);
    Relation batch(b.schema());
    while (batch.size() < want) {
      const Value u =
          static_cast<Value>(churn_rng_.Uniform(0, kChurnDomain - 1));
      const Value v =
          static_cast<Value>(churn_rng_.Uniform(0, kChurnDomain - 1));
      if (((u + v) & 1) != CliqueEdgeParity(edge)) continue;
      const uint64_t key = (static_cast<uint64_t>(u) << 32) |
                           static_cast<uint32_t>(v);
      if (!taken_[edge].insert(key).second) continue;
      const Value row[2] = {u, v};
      batch.AddRow(row);
    }
    send.push_back(std::move(batch));
  }
  ec_.stats().Reset();
  const auto t0 = Clock::now();
  Database::Transaction txn = main_->db.Begin(&ec_);
  if (step == 0) {
    for (size_t e = 0; e < send.size(); ++e) {
      txn.Replace(w_.atoms[e], std::move(send[e]));
    }
  } else {
    txn.Append(w_.atoms[edge], send[0]);
  }
  const auto t1 = Clock::now();
  txn.Commit();
  const double ms = MsSince(t0);
  *stage_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  *publish_ms = MsSince(t1);
  *counters = ReadCounters(ec_.stats());
  churn_total_ = step == 0
                     ? main_->total
                     : churn_total_ + static_cast<int64_t>(send[0].size());
  ++ops_;
  ++attempted_;
  return ms;
}

int64_t Runner::DirectEngine(const QueryInput& in, bool boolean,
                             const std::string& rung, int64_t* intermediate) {
  const Hypergraph& h = w_.h;
  if (boolean) {
    if (IsTriangleQuery(h)) {
      const StrategyCard* c = FindCard(TriangleBooleanLadder(), rung);
      FMMSW_CHECK(c != nullptr);
      if (c->uses_mm) {
        return TriangleMm(in, c->omega, c->kernel, nullptr, &ec_) ? 1 : 0;
      }
      return WcojBoolean(h, in, &ec_) ? 1 : 0;
    }
    if (rung == "elimination") {
      EliminationStats st;
      const bool any = ExecutePlan(h, in, ForLoopPlan(h), {}, &st, &ec_);
      *intermediate += st.intermediate_tuples;
      return any ? 1 : 0;
    }
    if (rung == "best-td") return TdBooleanBest(h, in, &ec_) ? 1 : 0;
    return WcojBoolean(h, in, &ec_) ? 1 : 0;
  }
  if (w_.answer == Answer::kJoin) {
    return static_cast<int64_t>(
        WcojJoin(h, in, h.vertices(), nullptr, &ec_).size());
  }
  if (IsTriangleQuery(h)) {
    const StrategyCard* c = FindCard(TriangleCountLadder(), rung);
    FMMSW_CHECK(c != nullptr);
    if (c->uses_mm) return TriangleCountMm(in, c->kernel, &ec_);
  }
  return WcojCount(h, in, &ec_);
}

Replay Runner::ReplayRequest(Catalog& c, bool boolean, const Sample& s) {
  Replay out;
  auto t0 = Clock::now();
  const Snapshot snap = c.db.snapshot(&ec_);
  QueryInput in;
  const ExecResult bound = snap.Bind(w_.atoms, &in);
  out.snapshot_bind_ms = MsSince(t0);
  t0 = Clock::now();
  {
    const QueryOptions opts;
    AdmissionController::Ticket ticket;
    Check(c.db.admission().Admit(opts.klass, opts.limits, ec_, &ticket).ok(),
          "replay admission");
  }
  out.admission_ms = MsSince(t0);
  t0 = Clock::now();
  const int64_t direct = DirectEngine(in, boolean, s.rung, &out.intermediate);
  out.engine_ms = MsSince(t0);
  out.matches = bound.ok() && direct == s.answer;
  // The triangle MM rungs are also stepped through their public operators.
  if (IsTriangleQuery(w_.h) && (boolean || w_.answer == Answer::kCount)) {
    const StrategyCard* card = FindCard(
        boolean ? TriangleBooleanLadder() : TriangleCountLadder(), s.rung);
    if (card != nullptr && card->uses_mm) {
      out.stepped = true;
      const int64_t stepped =
          boolean ? (StepTriangleMm(in, card->omega, card->kernel, ec_,
                                    &out.steps)
                         ? 1
                         : 0)
                  : StepTriangleCountMm(in, card->kernel, ec_, &out.steps);
      out.matches = out.matches && stepped == s.answer;
    }
  }
  Check(out.matches, w_.name + (boolean ? " boolean" : " answer") +
                         " replay disagrees with the query");
  return out;
}

void Runner::Setup() {
  const auto t0 = Clock::now();
  main_.reset();
  sweep_.clear();
  WidthCache::Global().Clear();

  main_ = Load(w_, w_.make(1.0, Mix(seed_, 0)), ec_);
  for (size_t i = 0; i < kSweepScales.size(); ++i) {
    sweep_.push_back(Load(w_, w_.make(kSweepScales[i], Mix(seed_, i + 1)),
                          ec_));
  }
  if (w_.churn) {
    const Snapshot snap = main_->db.snapshot(&ec_);
    base_.clear();
    taken_.assign(w_.atoms.size(), {});
    for (const std::string& a : w_.atoms) base_.push_back(*snap.Find(a));
    churn_rng_ = Rng(Mix(seed_, 100));
    churn_round_ = 0;
    churn_total_ = main_->total;
  }
  {
    std::unique_ptr<Catalog> planted =
        Load(w_, w_.planted(Mix(seed_, 200)), ec_);
    Request(*planted, /*boolean=*/true, false);
    Request(*planted, /*boolean=*/false, false);
  }
  rss_after_load_mb_ = PeakRssMb();

  // Cold plans, then one warm-up round (all answers are checked).
  std::vector<Catalog*> catalogs = {main_.get()};
  for (auto& c : sweep_) catalogs.push_back(c.get());
  for (Catalog* c : catalogs) {
    WidthReport plan;
    Check(c->db.PlanWidths(c->db.snapshot(&ec_), w_.h, w_.atoms, kPlanOmega,
                           &plan, {}, &ec_)
              .ok(),
          "cold plan");
  }
  Round(/*record=*/false, /*replay=*/false);
  setup_s_.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  const double reference_ms = 0.5 * (reference_.RunMs() + reference_.RunMs());
  setup_scaled_s_.push_back(setup_s_.back() * kReferenceMs / reference_ms);
}

void Runner::Round(bool record, bool replay) {
  const double reference_ms = 0.5 * (reference_.RunMs() + reference_.RunMs());
  const double scale = kReferenceMs / reference_ms;
  const auto t0 = Clock::now();
  const int64_t ops0 = ops_;
  // Answer request; on churn the client first commits fresh rows.
  Counters commit_counters;
  double commit_ms = 0, stage_ms = 0, publish_ms = 0;
  if (w_.churn) {
    commit_ms = ChurnCommit(&commit_counters, &stage_ms, &publish_ms);
  }
  Sample ans = Request(*main_, /*boolean=*/false, replay);
  ans.total_ms += commit_ms;
  Sample boo = Request(*main_, /*boolean=*/true, replay);
  std::vector<double> sweep_ms;
  for (auto& c : sweep_) sweep_ms.push_back(Request(*c, true, false).total_ms);
  const double round_s = MsSince(t0) * 1e-3;
  if (!record) return;

  boolean_rung_ = boo.rung;
  answer_rung_ = ans.rung;
  boolean_ms_.push_back(boo.total_ms);
  answer_ms_.push_back(ans.total_ms);
  if (!replay) {
    reference_ms_.push_back(reference_ms);
    boolean_scaled_ms_.push_back(boo.total_ms * scale);
    answer_scaled_ms_.push_back(ans.total_ms * scale);
    ops_per_s_.push_back(static_cast<double>(ops_ - ops0) / round_s);
    ops_per_s_scaled_.push_back(ops_per_s_.back() / scale);
    boolean_query_ms_.push_back(boo.query_ms);
    answer_query_ms_.push_back(ans.query_ms);
    main_n_.push_back(static_cast<double>(w_.churn ? churn_total_
                                                   : main_->total));
    sweep_ms_.resize(sweep_ms.size());
    for (size_t i = 0; i < sweep_ms.size(); ++i) {
      sweep_ms_[i].push_back(sweep_ms[i]);
    }
    return;
  }

  const Replay rb = ReplayRequest(*main_, true, boo);
  const Replay ra = ReplayRequest(*main_, false, ans);
  const Counters& cb = boo.counters;
  const Counters& ca = ans.counters;
  std::map<std::string, double> row;
  row["core.boolean_query_ms"] = boo.query_ms;
  row["core.answer_query_ms"] = ans.query_ms;
  row["core.snapshot_bind_ms"] = rb.snapshot_bind_ms + ra.snapshot_bind_ms;
  row["core.admission_ms"] = rb.admission_ms + ra.admission_ms;
  row["core.boolean_overhead_ms"] = boo.query_ms - rb.engine_ms;
  row["core.answer_overhead_ms"] = ans.query_ms - ra.engine_ms;
  row["core.retries"] = static_cast<double>(cb.retries + ca.retries);
  row["core.degraded_runs"] = static_cast<double>(cb.degraded + ca.degraded);
  row["core.commit_ms"] = commit_ms;
  row["core.stage_ms"] = stage_ms;
  row["core.publish_ms"] = publish_ms;
  row["core.versions_retired"] =
      static_cast<double>(commit_counters.versions_retired);
  row["core.mem_peak_mb"] =
      static_cast<double>(std::max(cb.mem_peak, ca.mem_peak)) / (1 << 20);
  row["width.plan_ms"] = boo.plan_ms + ans.plan_ms;
  row["width.lp_solves"] = static_cast<double>(cb.lp_solves + ca.lp_solves);
  row["width.lp_pivots"] = static_cast<double>(cb.lp_pivots + ca.lp_pivots);
  row["width.cache_hit_ratio"] =
      static_cast<double>(cb.cache_hits + ca.cache_hits) / 2.0;
  row["engine.boolean_rung_ms"] = rb.engine_ms;
  row["engine.answer_rung_ms"] = ra.engine_ms;
  row["engine.wcoj_runs"] = static_cast<double>(cb.wcoj_runs + ca.wcoj_runs);
  row["engine.intermediate_tuples"] =
      static_cast<double>(rb.intermediate + ra.intermediate);
  Steps steps;
  double stepped_engine_ms = 0;
  for (const Replay* r : {&rb, &ra}) {
    if (!r->stepped) continue;
    steps.partition += r->steps.partition;
    steps.light_join += r->steps.light_join;
    steps.semijoin += r->steps.semijoin;
    steps.intern += r->steps.intern;
    steps.project_union += r->steps.project_union;
    steps.fill += r->steps.fill;
    steps.product += r->steps.product;
    steps.cells += r->steps.cells;
    stepped_engine_ms += r->engine_ms;
  }
  row["relation.partition_ms"] = steps.partition;
  row["relation.light_join_ms"] = steps.light_join;
  row["relation.probe_tuples"] = static_cast<double>(cb.probe + ca.probe);
  row["relation.emit_ratio"] =
      cb.probe + ca.probe == 0
          ? 0.0
          : static_cast<double>(cb.emit + ca.emit) / (cb.probe + ca.probe);
  row["relation.semijoin_ms"] = steps.semijoin;
  row["relation.intern_ms"] = steps.intern;
  row["relation.project_union_ms"] = steps.project_union;
  row["relation.sort_worker_ms"] = (cb.sort_ns + ca.sort_ns) * 1e-6;
  row["relation.sort_rows"] = static_cast<double>(cb.sort_rows + ca.sort_rows);
  row["relation.index_build_worker_ms"] = (cb.index_ns + ca.index_ns) * 1e-6;
  row["relation.index_build_rows"] =
      static_cast<double>(cb.index_rows + ca.index_rows);
  row["mm.fill_ms"] = steps.fill;
  row["mm.product_ms"] = steps.product;
  row["mm.cells"] = static_cast<double>(steps.cells);
  row["mm.pack_worker_ms"] = (cb.pack_ns + ca.pack_ns) * 1e-6;
  row["mm.base_calls"] = static_cast<double>(cb.base_calls + ca.base_calls);
  row["mm.bitsliced_calls"] =
      static_cast<double>(cb.bitsliced_calls + ca.bitsliced_calls);
  row["trace.coverage"] = (rb.snapshot_bind_ms + ra.snapshot_bind_ms +
                           rb.admission_ms + ra.admission_ms + rb.engine_ms +
                           ra.engine_ms) /
                          (boo.query_ms + ans.query_ms);
  row["trace.child_ratio"] =
      stepped_engine_ms > 0 ? steps.Sum() / stepped_engine_ms : 0.0;
  for (const auto& [name, value] : row) layers_[name].push_back(value);
}

void Runner::Measure(double seconds, bool replay) {
  const auto t0 = Clock::now();
  do {
    Round(/*record=*/true, replay);
  } while (std::chrono::duration<double>(Clock::now() - t0).count() <
           seconds);
}

/// Exact-enough decimal for JSON: every measured digit, no locale.
std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

void Runner::PrintInfo(const std::map<std::string, std::string>& extra) {
  std::string sweep_n;
  for (const auto& c : sweep_) {
    sweep_n += (sweep_n.empty() ? "" : ",") + std::to_string(c->total);
  }
  std::string line = "{\"info\": {\"workload\": " + Quote(w_.name) +
                     ", \"seed\": " + std::to_string(seed_) +
                     ", \"threads\": " + std::to_string(ec_.threads()) +
                     ", \"simd\": " +
                     Quote(SimdLevelName(ActiveSimdLevel())) +
                     ", \"n\": " + std::to_string(main_->total) +
                     ", \"sweep_n\": [" + sweep_n + "]" +
                     ", \"boolean_rung\": " + Quote(boolean_rung_) +
                     ", \"answer_rung\": " + Quote(answer_rung_) +
                     ", \"answer_op\": " +
                     Quote(w_.answer == Answer::kJoin ? "join" : "count") +
                     ", \"paper_exponent\": " + Num(w_.paper_exponent);
  for (const auto& [k, v] : extra) line += ", " + Quote(k) + ": " + v;
  std::printf("%s}}\n", line.c_str());
}

struct Metric {
  std::string name, unit;
  double value;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string m;
  for (const Metric& x : metrics) {
    std::fprintf(stderr, "  %-30s %14.6f %s\n", x.name.c_str(), x.value,
                 x.unit.c_str());
    m += (m.empty() ? "" : ", ") + Quote(x.name) + ": {\"value\": " +
         Num(x.value) + ", \"unit\": " + Quote(x.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed), m.c_str());
  std::fflush(stdout);
}

void Runner::PrintEndToEnd() {
  std::vector<double> ns, ms;
  for (size_t i = 0; i < sweep_.size(); ++i) {
    ns.push_back(static_cast<double>(sweep_[i]->total));
    ms.push_back(Median(sweep_ms_[i]));
  }
  ns.push_back(Median(main_n_));
  ms.push_back(Median(boolean_ms_));
  const double exponent = FitSlope(ns, ms);

  // Timings as measured; the metrics are the same scaled to the reference
  // speed (see Reference).
  const double reference_ms = Median(reference_ms_);
  const std::vector<Metric> raw = {
      {"setup_s", "s", Median(setup_s_)},
      {"boolean_p50_ms", "ms", Median(boolean_ms_)},
      {"answer_p50_ms", "ms", Median(answer_ms_)},
      {"ops_per_s", "1/s", Median(ops_per_s_)},
  };
  std::string raw_json, setups_json;
  for (const Metric& m : raw) {
    raw_json += (raw_json.empty() ? "" : ", ") + Quote(m.name) + ": " +
                Num(m.value);
  }
  for (double v : setup_s_) {
    setups_json += (setups_json.empty() ? "" : ", ") + Num(v);
  }
  PrintInfo({{"samples", std::to_string(boolean_ms_.size())},
             {"setup_s_each", "[" + setups_json + "]"},
             {"reference_ms", Num(reference_ms)},
             {"reference_check", std::to_string(reference_.sink() % 1000)},
             {"raw", "{" + raw_json + "}"}});
  std::fprintf(stderr,
               "%s seed %llu: N=%lld, %zu rounds, rungs boolean=%s "
               "answer=%s, reference kernel %.3f ms\n",
               w_.name.c_str(), static_cast<unsigned long long>(seed_),
               static_cast<long long>(main_->total), boolean_ms_.size(),
               boolean_rung_.c_str(), answer_rung_.c_str(), reference_ms);
  std::fprintf(stderr, "  as measured: %s\n", raw_json.c_str());
  if (w_.paper_exponent > 0) {
    std::fprintf(stderr, "  exponent_boolean reference (paper): %.4f\n",
                 w_.paper_exponent);
  }
  const std::vector<Metric> metrics = {
      {"setup_s", "s", Median(setup_scaled_s_)},
      {"boolean_p50_ms", "ms", Median(boolean_scaled_ms_)},
      {"answer_p50_ms", "ms", Median(answer_scaled_ms_)},
      {"ops_per_s", "1/s", Median(ops_per_s_scaled_)},
      {"peak_rss_mb", "MB", PeakRssMb()},
      {"exponent_boolean", "slope", exponent},
  };
  PrintResult(failed_ == 0, attempted_, failed_, metrics);
}

/// Every per-layer metric, in the order BENCHMARK.json lists them.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"core.boolean_query_ms", "ms"},
      {"core.answer_query_ms", "ms"},
      {"core.boolean_tail_ms", "ms"},
      {"core.answer_tail_ms", "ms"},
      {"core.snapshot_bind_ms", "ms"},
      {"core.admission_ms", "ms"},
      {"core.boolean_overhead_ms", "ms"},
      {"core.answer_overhead_ms", "ms"},
      {"core.retries", "count"},
      {"core.degraded_runs", "count"},
      {"core.commit_ms", "ms"},
      {"core.stage_ms", "ms"},
      {"core.publish_ms", "ms"},
      {"core.versions_retired", "count"},
      {"core.mem_peak_mb", "MB"},
      {"core.mem_tracked_ratio", "ratio"},
      {"width.plan_ms", "ms"},
      {"width.lp_solves", "count"},
      {"width.lp_pivots", "count"},
      {"width.cache_hit_ratio", "ratio"},
      {"engine.boolean_rung_ms", "ms"},
      {"engine.answer_rung_ms", "ms"},
      {"engine.wcoj_runs", "count"},
      {"engine.intermediate_tuples", "count"},
      {"relation.partition_ms", "ms"},
      {"relation.light_join_ms", "ms"},
      {"relation.probe_tuples", "count"},
      {"relation.emit_ratio", "ratio"},
      {"relation.semijoin_ms", "ms"},
      {"relation.intern_ms", "ms"},
      {"relation.project_union_ms", "ms"},
      {"relation.sort_worker_ms", "ms"},
      {"relation.sort_rows", "count"},
      {"relation.index_build_worker_ms", "ms"},
      {"relation.index_build_rows", "count"},
      {"mm.fill_ms", "ms"},
      {"mm.product_ms", "ms"},
      {"mm.cells", "count"},
      {"mm.pack_worker_ms", "ms"},
      {"mm.base_calls", "count"},
      {"mm.bitsliced_calls", "count"},
      {"trace.coverage", "ratio"},
      {"trace.child_ratio", "ratio"},
      {"trace.overhead", "ratio"},
  };
  return m;
}

void Runner::PrintPerLayer() {
  // trace.overhead: traced over untraced core.query p50 (the untraced
  // rounds ran first in this process, on the same catalog).
  const double traced = Median(layers_["core.boolean_query_ms"]) +
                        Median(layers_["core.answer_query_ms"]);
  const double untraced =
      Median(boolean_query_ms_) + Median(answer_query_ms_);
  const std::vector<double>& peaks = layers_["core.mem_peak_mb"];
  const double tracked_peak_mb =
      peaks.empty() ? 0.0 : *std::max_element(peaks.begin(), peaks.end());
  const double rss_growth_mb =
      std::max(1.0, PeakRssMb() - rss_after_load_mb_);
  const size_t traced_rounds = layers_["trace.coverage"].size();
  PrintInfo({{"traced_rounds", std::to_string(traced_rounds)},
             {"untraced_rounds", std::to_string(boolean_query_ms_.size())},
             {"tail_samples", std::to_string(boolean_ms_.size())},
             {"tail_percentile", Num(TailPercentile(boolean_ms_.size()))}});
  std::fprintf(stderr,
               "%s seed %llu (trace): %zu traced rounds, rungs boolean=%s "
               "answer=%s\n",
               w_.name.c_str(), static_cast<unsigned long long>(seed_),
               traced_rounds, boolean_rung_.c_str(), answer_rung_.c_str());
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : LayerMetrics()) {
    double v = Median(layers_[name]);
    if (name == "trace.overhead") v = untraced > 0 ? traced / untraced : 0.0;
    if (name == "core.mem_tracked_ratio") v = tracked_peak_mb / rss_growth_mb;
    if (name == "core.boolean_tail_ms") v = Tail(boolean_ms_);
    if (name == "core.answer_tail_ms") v = Tail(answer_ms_);
    metrics.push_back({name, unit, v});
  }
  PrintResult(failed_ == 0, attempted_, failed_, metrics);
}

/// Set-up is repeated this many times in an end-to-end run; setup_s is
/// the median.
constexpr int kSetups = 5;

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(argv[i + 1]);
    } else if (flag == "--trace") {
      trace = std::atoi(argv[i + 1]);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  Workload w;
  if (!MakeWorkloadSpec(workload, &w) || seconds <= 0) {
    std::fprintf(stderr,
                 "usage: fmmsw_e2e --workload tri_dense|tri_skew|pyramid|"
                 "churn --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  Runner runner(std::move(w), seed);
  if (trace != 0) {
    // One set-up; the first third of the time runs untraced rounds (the
    // base of trace.overhead), the rest replays every round.
    runner.Setup();
    runner.Measure(seconds / 3, /*replay=*/false);
    runner.Measure(seconds * 2 / 3, /*replay=*/true);
    runner.PrintPerLayer();
  } else {
    for (int i = 0; i < kSetups; ++i) runner.Setup();
    runner.Measure(seconds, /*replay=*/false);
    runner.PrintEndToEnd();
  }
  return 0;
}

}  // namespace
}  // namespace fmmsw

int main(int argc, char** argv) {
  try {
    return fmmsw::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  }
}
