#include "width/omega_subw.h"

#include <chrono>
#include <mutex>
#include <set>
#include <unordered_map>
#include <utility>

#include "core/exec_context.h"
#include "util/check.h"
#include "util/parallel.h"
#include "width/emm.h"
#include "width/maxmin_solver.h"
#include "width/width_cache.h"

namespace fmmsw {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// 128-bit canonical digest of a (sub-)hypergraph + elimination block,
/// keying the per-step memo shared between GVEOs. Built incrementally —
/// no sorted key vector is materialized per lookup — from two independent
/// mixes of (vertex mask, block mask) plus a commutative sum-mod-2^64
/// multiset hash of the edge masks, so edge order is irrelevant. At 128
/// bits a collision among the few thousand distinct steps of a width
/// computation is beyond astronomically unlikely; digest equality is
/// treated as step equality.
struct StepDigest {
  uint64_t a = 0;
  uint64_t b = 0;
  friend bool operator==(const StepDigest& x, const StepDigest& y) {
    return x.a == y.a && x.b == y.b;
  }
};

struct StepDigestHash {
  size_t operator()(const StepDigest& d) const {
    return static_cast<size_t>(d.a);
  }
};

StepDigest DigestStep(const Hypergraph& h, VarSet block) {
  constexpr uint64_t kLaneB = 0xc2b2ae3d27d4eb4full;
  StepDigest d;
  d.a = SplitMix(h.vertices().mask());
  d.b = SplitMix(static_cast<uint64_t>(h.vertices().mask()) ^ kLaneB);
  d.a = SplitMix(d.a ^ block.mask());
  d.b = SplitMix(d.b ^ block.mask());
  for (const VarSet& e : h.edges()) {
    d.a += SplitMix(e.mask());
    d.b += SplitMix(static_cast<uint64_t>(e.mask()) ^ kLaneB);
  }
  return d;
}

/// One distinct elimination step: the sub-hypergraph it acts on, the block
/// it eliminates, and U = the step's output set.
struct StepSite {
  Hypergraph before;
  VarSet block;
  VarSet u;
};

/// A required step of one GVEO, pointing at its distinct-step slot.
struct StepRef {
  VarSet u;
  int slot = -1;
};

/// The hfn-independent skeleton of the Definition-4.7 min over GVEOs: every
/// GVEO's required steps, deduplicated into first-occurrence-ordered
/// distinct sites. Built once and reused for the upper-bound solves and
/// every lower-bound candidate evaluation.
struct StepPlan {
  std::vector<Gveo> gveos;
  std::vector<std::vector<StepRef>> per_gveo;  ///< required steps per GVEO
  std::vector<StepSite> sites;                 ///< distinct required steps
};

/// Phase 1 of every width computation: fan the elimination walks over the
/// pool (disjoint output slots), then merge the digests serially in GVEO
/// order — the slot numbering is first-occurrence order and therefore
/// independent of thread count. A step is *required* (Proposition 4.11)
/// when its U is non-empty and not contained in any earlier step's U.
StepPlan BuildStepPlan(const Hypergraph& h, ExecContext& ec) {
  StepPlan plan;
  plan.gveos = AllGveos(h);
  const int64_t ng = static_cast<int64_t>(plan.gveos.size());
  FMMSW_CHECK(ng > 0);

  struct WalkStep {
    StepDigest digest;
    Hypergraph before;
    VarSet block;
    VarSet u;
    bool required = false;
  };
  std::vector<std::vector<WalkStep>> walks(ng);
  ParallelFor(ec, FaultSite::kLp, ng, [&](int64_t lo, int64_t hi) {
    for (int64_t g = lo; g < hi; ++g) {
      Hypergraph cur = h;
      std::vector<VarSet> seen_u;
      for (const VarSet& block : plan.gveos[g].blocks) {
        WalkStep ws;
        ws.u = cur.U(block);
        ws.required = !ws.u.empty();
        for (VarSet prev : seen_u) {
          if (prev.ContainsAll(ws.u)) {
            ws.required = false;
            break;
          }
        }
        seen_u.push_back(ws.u);
        if (ws.required) {
          ws.digest = DigestStep(cur, block);
          ws.before = cur;
          ws.block = block;
        }
        Hypergraph next = cur.Eliminate(block);
        if (ws.required) walks[g].push_back(std::move(ws));
        cur = std::move(next);
      }
    }
  });

  std::unordered_map<StepDigest, int, StepDigestHash> slot_of;
  plan.per_gveo.resize(ng);
  for (int64_t g = 0; g < ng; ++g) {
    for (WalkStep& ws : walks[g]) {
      auto [it, inserted] =
          slot_of.try_emplace(ws.digest, static_cast<int>(plan.sites.size()));
      if (inserted) {
        plan.sites.push_back(
            StepSite{std::move(ws.before), ws.block, ws.u});
      }
      plan.per_gveo[g].push_back(StepRef{ws.u, it->second});
    }
  }
  return plan;
}

/// Phase 2: each distinct site's MM option list, fanned per site.
std::vector<std::vector<MmExpr>> SiteOptions(const StepPlan& plan,
                                             ExecContext& ec) {
  std::vector<std::vector<MmExpr>> options(plan.sites.size());
  ParallelFor(
      ec, FaultSite::kLp, static_cast<int64_t>(plan.sites.size()),
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          options[i] =
              EnumerateMmOptions(plan.sites[i].before, plan.sites[i].block);
        }
      },
      /*grain=*/1);
  return options;
}

/// The width a concrete polymatroid attains on a prebuilt plan: min over
/// GVEOs of max over required steps of min(h(U), EMM). Each *distinct*
/// step evaluates exactly once, into its own slot (steps shared by many
/// GVEOs — the common case — are not re-evaluated per GVEO); the min/max
/// reduction over the slots is serial and exact (Rational), so the result
/// is thread-count independent.
Rational EvaluatePlan(const StepPlan& plan,
                      const std::vector<std::vector<MmExpr>>& options,
                      const SetFn<Rational>& hfn, const Rational& gamma,
                      ExecContext& ec) {
  const int64_t nsites = static_cast<int64_t>(plan.sites.size());
  std::vector<Rational> site_cost(nsites);
  ParallelFor(
      ec, FaultSite::kLp, nsites,
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          Rational cost = hfn[plan.sites[i].u];
          bool mm_first = true;
          Rational mm_best;
          for (const MmExpr& e : options[i]) {
            Rational v = e.Evaluate(hfn, gamma);
            if (mm_first || v < mm_best) {
              mm_best = std::move(v);
              mm_first = false;
            }
          }
          if (!mm_first) cost = Rational::Min(cost, mm_best);
          site_cost[i] = std::move(cost);
        }
      },
      /*grain=*/1);
  bool first = true;
  Rational best;
  for (const auto& refs : plan.per_gveo) {
    Rational worst(0);
    for (const StepRef& ref : refs) {
      worst = Rational::Max(worst, site_cost[ref.slot]);
    }
    if (first || worst < best) {
      best = std::move(worst);
      first = false;
    }
  }
  FMMSW_CHECK(!first);
  return best;
}

/// Builds the solver for max_h min(h(cap), MM terms...) — one step (or the
/// clustered form) of the Section-6 computation.
void PopulateSolver(MaxMinSolver* solver, VarSet cap,
                    const std::vector<MmExpr>& terms, const Rational& gamma) {
  if (!cap.empty()) solver->AddCapTerm(cap);
  for (const MmExpr& e : terms) solver->AddTerm(e.Branches(gamma));
}

void RecordSolverStats(const MaxMinSolver& solver, OmegaSubwResult* out) {
  out->lps_solved += solver.lps_solved();
  out->lp_warm_starts += solver.lp_warm_starts();
  out->lp_pivots += solver.lp_pivots();
}

OmegaSubwResult OmegaSubwGeneral(const Hypergraph& h, const Rational& omega,
                                 const OmegaSubwOptions& opts,
                                 ExecContext& ec) {
  OmegaSubwResult out;
  const Rational gamma = omega - Rational(2);
  const StepPlan plan = BuildStepPlan(h, ec);
  const auto options = SiteOptions(plan, ec);
  const int64_t nsites = static_cast<int64_t>(plan.sites.size());

  // ---- Upper bound: min over GVEOs of max over required steps of
  //      max_h min(h(U_i), EMM_i) (w-subw = max-min <= min-max). Distinct
  //      steps solve lazily, each at most once into its own slot with a
  //      private warm-start chain; a GVEO stops solving once its running
  //      max reaches the incumbent upper bound (it can no longer be the
  //      argmin). The loop is serial over a fixed order, so the set of
  //      solved steps — hence lps_solved — is identical at every thread
  //      count.
  std::vector<Rational> value(nsites);
  std::vector<SetFn<Rational>> hstar(nsites);
  std::vector<char> solved(nsites, 0);
  std::vector<int> solve_order;
  auto solve_site = [&](int i) {
    std::set<MmExpr> dedup;
    for (const MmExpr& e : options[i]) dedup.insert(e.WidthCanonical());
    MaxMinSolver solver(h, &ec);
    solver.SetWarmStart(opts.warm_start);
    solver.SetMaxPivots(opts.max_pivots);
    PopulateSolver(&solver, plan.sites[i].u,
                   std::vector<MmExpr>(dedup.begin(), dedup.end()), gamma);
    solver.CoordinateAscent();
    solver.BranchAndBound();
    value[i] = solver.SolveExact(&hstar[i]);
    solved[i] = 1;
    solve_order.push_back(i);
    RecordSolverStats(solver, &out);
  };
  bool first_sigma = true;
  for (size_t g = 0; g < plan.gveos.size(); ++g) {
    ec.guard().Poll(FaultSite::kLp);
    Rational sigma_ub(0);
    for (const StepRef& ref : plan.per_gveo[g]) {
      if (!solved[ref.slot]) solve_site(ref.slot);
      sigma_ub = Rational::Max(sigma_ub, value[ref.slot]);
      if (!first_sigma && out.upper <= sigma_ub) break;
    }
    if (first_sigma || sigma_ub < out.upper) {
      out.upper = std::move(sigma_ub);
      first_sigma = false;
    }
  }
  FMMSW_CHECK(!first_sigma);

  // ---- Lower bound: evaluate candidate polymatroids against all GVEOs —
  //      the solved steps' argmaxes (in solve order) then the user
  //      witnesses.
  std::vector<const SetFn<Rational>*> candidates;
  for (int i : solve_order) candidates.push_back(&hstar[i]);
  for (const auto& w : opts.witnesses) candidates.push_back(&w);
  bool first_cand = true;
  for (const SetFn<Rational>* cand : candidates) {
    Rational v = EvaluatePlan(plan, options, *cand, gamma, ec);
    if (first_cand || v > out.lower) {
      out.lower = std::move(v);
      out.worst_case = *cand;
      first_cand = false;
    }
  }
  if (first_cand) out.lower = Rational(0);

  out.exact = (out.lower == out.upper);
  out.value = out.upper;
  return out;
}

}  // namespace

std::vector<MmExpr> ClusteredMmTerms(const Hypergraph& h,
                                     ExecContext* ctx) {
  ExecContext& ec = ExecContext::Resolve(ctx);
  std::vector<VarSet> blocks;
  for (VarSet x : Subsets(h.vertices())) {
    if (x.empty() || x == h.vertices()) continue;
    blocks.push_back(x);
  }
  // Fan the subset sweep; merging into one ordered set is commutative, so
  // the term list is identical at any thread count.
  std::set<MmExpr> terms;
  std::mutex mu;
  ParallelFor(
      ec, FaultSite::kLp, static_cast<int64_t>(blocks.size()),
      [&](int64_t lo, int64_t hi) {
        std::set<MmExpr> local;
        for (int64_t i = lo; i < hi; ++i) {
          for (const MmExpr& e : EnumerateMmOptions(h, blocks[i])) {
            local.insert(e.WidthCanonical());
          }
        }
        std::lock_guard<std::mutex> lock(mu);
        terms.merge(local);
      },
      /*grain=*/4);
  return std::vector<MmExpr>(terms.begin(), terms.end());
}

Rational GveoCostOn(const Hypergraph& h, const Gveo& gveo,
                    const SetFn<Rational>& hfn, const Rational& omega) {
  const Rational gamma = omega - Rational(2);
  Rational worst(0);
  for (const EliminationStep& step : EliminationSequence(h, gveo)) {
    if (!step.required || step.u.empty()) continue;
    Rational cost = hfn[step.u];
    bool defined = false;
    Rational via_mm =
        EvaluateEmm(step.before, step.block, hfn, gamma, &defined);
    if (defined) cost = Rational::Min(cost, via_mm);
    worst = Rational::Max(worst, cost);
  }
  return worst;
}

Rational WidthAt(const Hypergraph& h, const SetFn<Rational>& hfn,
                 const Rational& omega, ExecContext* ctx) {
  ExecContext& ec = ExecContext::Resolve(ctx);
  const StepPlan plan = BuildStepPlan(h, ec);
  const auto options = SiteOptions(plan, ec);
  return EvaluatePlan(plan, options, hfn, omega - Rational(2), ec);
}

OmegaSubwResult OmegaSubwClustered(const Hypergraph& h, const Rational& omega,
                                   const OmegaSubwOptions& opts,
                                   ExecContext* ctx) {
  ExecContext& ec = ExecContext::Resolve(ctx);
  const int64_t t0 = NowNs();
  FMMSW_CHECK(h.IsClustered());
  OmegaSubwResult out;
  out.used_clustered_form = true;
  std::vector<MmExpr> terms = ClusteredMmTerms(h, &ec);
  out.num_mm_terms = static_cast<int>(terms.size());

  MaxMinSolver solver(h, &ec);
  solver.SetWarmStart(opts.warm_start);
  solver.SetMaxPivots(opts.max_pivots);
  PopulateSolver(&solver, h.vertices(), terms, omega - Rational(2));
  if (opts.full_enumeration) {
    solver.FullEnumerate();
  } else {
    solver.CoordinateAscent();
    solver.BranchAndBound();
  }
  out.value = solver.SolveExact(&out.worst_case);
  out.lower = out.upper = out.value;
  out.exact = true;
  RecordSolverStats(solver, &out);
  out.plan_ns = NowNs() - t0;
  Bump(ec.stats().plan_ns, out.plan_ns);
  return out;
}

OmegaSubwResult OmegaSubw(const Hypergraph& h, const Rational& omega,
                          const OmegaSubwOptions& opts, ExecContext* ctx) {
  ExecContext& ec = ExecContext::Resolve(ctx);
  std::string key;
  if (opts.use_width_cache) {
    key = WidthCacheKey(h, omega, opts);
    OmegaSubwResult cached;
    if (WidthCache::Global().Lookup(key, &cached)) {
      Bump(ec.stats().width_cache_hits);
      cached.from_cache = true;
      return cached;
    }
  }

  OmegaSubwResult out;
  if (h.IsClustered()) {
    out = OmegaSubwClustered(h, omega, opts, &ec);
  } else {
    const int64_t t0 = NowNs();
    out = OmegaSubwGeneral(h, omega, opts, ec);
    out.plan_ns = NowNs() - t0;
    Bump(ec.stats().plan_ns, out.plan_ns);
  }
  if (opts.use_width_cache) {
    const size_t evicted = WidthCache::Global().Insert(key, out);
    if (evicted > 0) {
      Bump(ec.stats().width_cache_evictions, static_cast<int64_t>(evicted));
    }
  }
  return out;
}

}  // namespace fmmsw
