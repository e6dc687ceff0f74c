#include "relation/ops.h"

#include <vector>

#include "core/exec_context.h"
#include "relation/flat_index.h"

namespace fmmsw {

namespace {

/// Resolves the effective fused-filter list: nullary filters collapse to
/// Boolean constants (an empty one annihilates — reported via the return
/// value — a non-empty one is a no-op).
bool CollectFilters(const JoinOpts& opts,
                    std::vector<const Relation*>* filters) {
  if (opts.exist_filter != nullptr) filters->push_back(opts.exist_filter);
  for (const Relation* f : opts.exist_filters) {
    if (f != nullptr) filters->push_back(f);
  }
  for (size_t i = 0; i < filters->size();) {
    const Relation* f = (*filters)[i];
    if (f->arity() == 0) {
      if (f->empty()) return false;  // "false" filter: nothing survives
      filters->erase(filters->begin() + i);
    } else {
      ++i;
    }
  }
  return true;
}

}  // namespace

Relation Join(const Relation& a, const Relation& b, const JoinOpts& opts,
              ExecContext* ctx) {
  ExecStats& st = ExecContext::Resolve(ctx).stats();
  Bump(st.join_calls);
  std::vector<const Relation*> filters;
  const bool satisfiable = CollectFilters(opts, &filters);
  if (!filters.empty() || opts.exist_filter != nullptr) {
    Bump(st.fused_joins);
  }

  // Nullary relations are Boolean: true = {()} joins as identity, false
  // annihilates.
  if (a.arity() == 0 || b.arity() == 0) {
    Relation out;
    if (a.arity() == 0) {
      out = a.empty() ? Relation(b.schema()) : b;
    } else {
      out = b.empty() ? Relation(a.schema()) : a;
    }
    if (!satisfiable) return Relation(out.schema());
    // Degenerate path: fall back to the semijoin chain the fused filters
    // are contracted to match.
    for (const Relation* f : filters) out = Semijoin(out, *f, ctx);
    if (opts.set_semantics) out.SortAndDedupe(ctx);
    Bump(st.join_output_tuples, static_cast<int64_t>(out.size()));
    return out;
  }
  const VarSet shared = a.schema() & b.schema();
  const VarSet out_schema = a.schema() | b.schema();
  Relation out(out_schema);
  // Empty input or unsatisfiable filter: no pair can survive — skip every
  // index build.
  if (!satisfiable || a.empty() || b.empty()) return out;

  // Probe the smaller side's index with the larger side.
  const bool a_build = a.size() <= b.size();
  const Relation& build = a_build ? a : b;
  const Relation& probe = a_build ? b : a;
  const KeySpec kbuild(build, shared);
  const KeySpec kprobe(probe, shared);
  const FlatMultimap index(build, kbuild, ctx);

  // Fused existence-only probes, keyed against the output-tuple layout.
  std::vector<ExistProbe> probes;
  probes.reserve(filters.size());
  for (const Relation* f : filters) probes.emplace_back(out, *f, ctx);

  // Resolve, once, where each output column comes from: probe columns win
  // for shared variables (both sides agree on their values).
  struct ColSrc {
    int out_col;
    int src_col;
  };
  std::vector<ColSrc> from_probe, from_build;
  {
    const std::vector<int> out_vars = out_schema.Members();
    for (size_t i = 0; i < out_vars.size(); ++i) {
      const int v = out_vars[i];
      if (probe.schema().Contains(v)) {
        from_probe.push_back({static_cast<int>(i), probe.ColumnOf(v)});
      } else {
        from_build.push_back({static_cast<int>(i), build.ColumnOf(v)});
      }
    }
  }

  const bool exact = kbuild.exact();
  int64_t probed = 0, dropped = 0;
  size_t emitted = 0;
  std::vector<Value> tuple(out_schema.size());
  out.Reserve(probes.empty() ? probe.size() : 0);
  // Guardrails: poll every 1024 probe rows and flush output accounting
  // (row limit + memory budget) in the same batches; the charge is
  // released when `charge` unwinds or the result is handed back.
  QueryGuard& guard = ExecContext::Resolve(ctx).guard();
  MemCharge charge(ExecContext::Resolve(ctx));
  const int64_t row_bytes =
      static_cast<int64_t>(out_schema.size()) * sizeof(Value);
  constexpr size_t kEmitBatch = 1024;
  size_t acct = 0;
  for (size_t pr = 0; pr < probe.size() && !(opts.limit > 0 &&
                                             emitted >= opts.limit);
       ++pr) {
    if ((pr & 1023) == 0) guard.Poll(FaultSite::kOps);
    const Value* prow = probe.Row(pr);
    const uint64_t key = kprobe.KeyOf(prow);
    int32_t br = index.First(key);
    if (br < 0) continue;
    for (const ColSrc& s : from_probe) tuple[s.out_col] = prow[s.src_col];
    for (; br >= 0; br = index.Next(br)) {
      const Value* brow = build.Row(br);
      if (!exact && !RowKeysEqual(prow, kprobe, brow, kbuild)) continue;
      for (const ColSrc& s : from_build) tuple[s.out_col] = brow[s.src_col];
      if (!probes.empty()) {
        ++probed;
        bool pass = true;
        for (const ExistProbe& p : probes) {
          if (!p.Contains(tuple.data())) {
            pass = false;
            break;
          }
        }
        if (!pass) {
          ++dropped;
          continue;
        }
      }
      out.AddRow(tuple.data());
      if ((++acct & (kEmitBatch - 1)) == 0) {
        guard.CountRows(static_cast<int64_t>(kEmitBatch));
        charge.Add(static_cast<int64_t>(kEmitBatch) * row_bytes);
      }
      if (opts.limit > 0 && ++emitted >= opts.limit) break;
    }
  }
  if (!probes.empty()) {
    Bump(st.fused_probe_tuples, probed);
    Bump(st.fused_drop_tuples, dropped);
    Bump(st.fused_emit_tuples, probed - dropped);
  }
  Bump(st.join_output_tuples, static_cast<int64_t>(out.size()));
  if (opts.set_semantics) out.SortAndDedupe(ctx);
  return out;
}

namespace {

/// Shared kernel of Semijoin/Antijoin: keep rows of `a` with
/// (keep_matching == has a join partner in b).
Relation FilterByMatch(const Relation& a, const Relation& b,
                       bool keep_matching, ExecContext* ctx) {
  if (a.empty()) return Relation(a.schema());
  if (b.empty()) return keep_matching ? Relation(a.schema()) : a;
  const VarSet shared = a.schema() & b.schema();
  const KeySpec ka(a, shared);
  const KeySpec kb(b, shared);
  const FlatMultimap index(b, kb, ctx);
  const bool exact = kb.exact();
  Relation out(a.schema());
  QueryGuard& guard = ExecContext::Resolve(ctx).guard();
  for (size_t r = 0; r < a.size(); ++r) {
    if ((r & 1023) == 0) guard.Poll(FaultSite::kOps);
    const Value* arow = a.Row(r);
    int32_t br = index.First(ka.KeyOf(arow));
    bool match = br >= 0;
    if (!exact) {
      match = false;
      for (; br >= 0 && !match; br = index.Next(br)) {
        match = RowKeysEqual(arow, ka, b.Row(br), kb);
      }
    }
    if (match == keep_matching) out.AddRow(arow);
  }
  return out;
}

}  // namespace

Relation Semijoin(const Relation& a, const Relation& b, ExecContext* ctx) {
  Bump(ExecContext::Resolve(ctx).stats().semijoin_calls);
  if (b.arity() == 0) return b.empty() ? Relation(a.schema()) : a;
  if (a.arity() == 0) {
    return (!a.empty() && !b.empty()) ? a : Relation(a.schema());
  }
  return FilterByMatch(a, b, /*keep_matching=*/true, ctx);
}

Relation SemijoinAll(const Relation& a,
                     const std::vector<const Relation*>& bs,
                     ExecContext* ctx) {
  ExecStats& st = ExecContext::Resolve(ctx).stats();
  Bump(st.semijoin_all_calls);
  // Nullary filters are Boolean constants; an empty one annihilates.
  std::vector<const Relation*> filters;
  filters.reserve(bs.size());
  for (const Relation* b : bs) {
    if (b->arity() == 0) {
      if (b->empty()) return Relation(a.schema());
    } else {
      filters.push_back(b);
    }
  }
  if (a.arity() == 0) {
    if (a.empty()) return Relation(a.schema());
    for (const Relation* b : filters) {
      if (b->empty()) return Relation(a.schema());
    }
    return a;
  }
  if (filters.empty()) return a;
  if (a.empty()) return Relation(a.schema());
  for (const Relation* b : filters) {
    // An empty filter rejects everything; skip the index builds.
    if (b->empty()) return Relation(a.schema());
  }
  std::vector<ExistProbe> probes;
  probes.reserve(filters.size());
  for (const Relation* b : filters) probes.emplace_back(a, *b, ctx);
  Relation out(a.schema());
  QueryGuard& guard = ExecContext::Resolve(ctx).guard();
  for (size_t r = 0; r < a.size(); ++r) {
    if ((r & 1023) == 0) guard.Poll(FaultSite::kOps);
    const Value* arow = a.Row(r);
    bool pass = true;
    for (const ExistProbe& p : probes) {
      if (!p.Contains(arow)) {
        pass = false;
        break;
      }
    }
    if (pass) out.AddRow(arow);
  }
  return out;
}

Relation SemijoinAll(const Relation& a,
                     std::initializer_list<const Relation*> bs,
                     ExecContext* ctx) {
  return SemijoinAll(a, std::vector<const Relation*>(bs), ctx);
}

Relation Antijoin(const Relation& a, const Relation& b, ExecContext* ctx) {
  Bump(ExecContext::Resolve(ctx).stats().antijoin_calls);
  if (b.arity() == 0) return b.empty() ? a : Relation(a.schema());
  if (a.arity() == 0) {
    return (!a.empty() && b.empty()) ? a : Relation(a.schema());
  }
  return FilterByMatch(a, b, /*keep_matching=*/false, ctx);
}

Relation Project(const Relation& a, VarSet keep, ExecContext* ctx) {
  Bump(ExecContext::Resolve(ctx).stats().project_calls);
  const VarSet schema = a.schema() & keep;
  Relation out(schema);
  if (schema.empty()) {
    // Existence test: non-empty input projects to {()}.
    if (!a.empty()) out.Add({});
    return out;
  }
  const KeySpec spec(a, schema);
  const std::vector<int>& cols = spec.cols();
  Value tuple[kMaxVars];
  if (spec.exact()) {
    // Narrow output (<= 2 columns): dedupe on the fly with a flat set of
    // the packed keys — no sort pass over the materialized duplicates.
    // Reserved for the input row count (>= distinct keys), so the set
    // never grow-rehashes mid-insert (asserted via grow_rehashes() in
    // relation_test).
    FlatSet seen;
    seen.Reserve(a.size());
    for (size_t r = 0; r < a.size(); ++r) {
      const Value* row = a.Row(r);
      if (!seen.Insert(spec.KeyOf(row))) continue;
      for (size_t i = 0; i < cols.size(); ++i) tuple[i] = row[cols[i]];
      out.AddRow(tuple);
    }
    return out;
  }
  out.Reserve(a.size());
  for (size_t r = 0; r < a.size(); ++r) {
    const Value* row = a.Row(r);
    for (size_t i = 0; i < cols.size(); ++i) tuple[i] = row[cols[i]];
    out.AddRow(tuple);
  }
  out.SortAndDedupe(ctx);
  return out;
}

Relation Intersect(const Relation& a, const Relation& b, ExecContext* ctx) {
  FMMSW_CHECK(a.schema() == b.schema());
  return Semijoin(a, b, ctx);
}

Relation Union(const Relation& a, const Relation& b, ExecContext* ctx) {
  FMMSW_CHECK(a.schema() == b.schema());
  Bump(ExecContext::Resolve(ctx).stats().union_calls);
  if (a.arity() == 0) {
    Relation out(a.schema());
    if (!a.empty() || !b.empty()) out.Add({});
    return out;
  }
  Relation out(a.schema());
  out.Reserve(a.size() + b.size());
  if (!a.empty()) out.AddRows(a.Row(0), a.size());
  if (!b.empty()) out.AddRows(b.Row(0), b.size());
  out.SortAndDedupe(ctx);
  return out;
}

}  // namespace fmmsw
