#ifndef FMMSW_RELATION_OPS_H_
#define FMMSW_RELATION_OPS_H_

/// \file
/// Relational operators: natural join (hash-based), semijoin, projection,
/// intersection and union. These are the "for-loop" primitives of the
/// engine; each elimination step in a query plan is compiled into a small
/// sequence of these (or a matrix multiplication).
///
/// Every operator takes an optional ExecContext (nullptr = the process
/// default): it supplies the per-op stats counters and, where relevant,
/// scratch arenas. This is a machine-enforced contract: the `ctx-threading`
/// rule of tools/check_contracts.py fails the build if a declaration in
/// this header (or engine/*.h) drops the ExecContext parameter. The engines own the enumeration fan-out; the only
/// parallel work an operator may start itself is the sharded flat-index
/// build (flat_index.h), which degrades to a serial build whenever the
/// context's pool is already busy with an enclosing parallel region — so
/// operators remain safe to call from inside parallel regions.
///
/// Guardrails: the probe loops poll the context's QueryGuard every 1024
/// rows and Join flushes output accounting (max_output_rows + memory
/// budget) in the same batches, so an armed limit aborts the operator
/// with QueryAbort within one batch of its boundary (see
/// core/exec_status.h; core/exec_context.h documents the full poll-point
/// map). The operators are exception-safe — index builds, sort scratch
/// and memory charges are RAII — so an abort unwinding out of one leaves
/// the context balanced and immediately reusable.
///
/// Duplicate-handling contract (uniform across ops):
///   - Join     : emits one output tuple per matching input pair. If both
///                inputs are duplicate-free the output is duplicate-free,
///                so by default no dedup pass runs; JoinOpts.set_semantics
///                forces a SortAndDedupe of the output for callers that
///                feed it duplicate-carrying inputs and need a set back.
///   - Semijoin : filter on `a` — preserves `a`'s tuples (and their
///                multiplicity) that match; never introduces duplicates.
///   - Antijoin : filter on `a`, complement of Semijoin. Semijoin(a,b) and
///                Antijoin(a,b) partition `a`.
///   - Project  : output is always deduplicated (projection is the one op
///                that creates duplicates from duplicate-free input).
///   - Intersect: filter on `a` (via Semijoin); duplicate-free iff `a` is.
///   - Union    : output is always deduplicated (set union).
/// Nullary relations are Boolean: {()} ("true") is the join identity, the
/// empty nullary relation ("false") annihilates; Project onto the empty
/// set is an existence test.
///
/// Fused-probe contract (existence-only filters):
///   - Join(a, b, {.exist_filter = &c}) is tuple-for-tuple equivalent to
///     Semijoin(Join(a, b), c) — each candidate pair is probed against c
///     on the variables c shares with the join's output schema, and pairs
///     with no partner in c are dropped *before* materialization (no
///     intermediate relation, no allocation for dropped pairs). Multiple
///     filters (exist_filter plus exist_filters) apply conjunctively, in
///     order, and match the corresponding Semijoin chain. Filters see
///     multiplicities exactly like Semijoin: they never introduce or
///     remove duplicates among surviving pairs.
///   - JoinOpts.limit > 0 stops the enumeration after `limit` surviving
///     pairs have been emitted (early exit for Boolean callers; with
///     set_semantics the dedup pass runs on the truncated output). The
///     cap applies to the hash-join path; degenerate nullary inputs may
///     return their full (at most single-tuple-wider) result.
///   - SemijoinAll(a, {b1, b2, ...}) is tuple-for-tuple equivalent to
///     Semijoin(...Semijoin(a, b1)..., bn) but builds every index once
///     and filters `a` in a single pass (one probe chain per row instead
///     of one intermediate relation per filter).
///   Per-probe work is visible on ExecContext::stats(): fused_probe_tuples
///   counts candidate pairs probed, fused_drop_tuples the pairs rejected
///   (i.e. tuples a materialize-then-filter plan would have allocated),
///   fused_emit_tuples the survivors.

#include <vector>

#include "relation/relation.h"

namespace fmmsw {

class ExecContext;

/// Options for Join.
struct JoinOpts {
  /// Force set semantics: SortAndDedupe the output before returning. Only
  /// needed when an input may carry duplicate tuples (see contract above).
  bool set_semantics = false;
  /// Fused existence-only filter: drop candidate pairs with no join
  /// partner in this relation before materializing them (see the
  /// fused-probe contract above).
  const Relation* exist_filter = nullptr;
  /// Additional fused filters, applied conjunctively after exist_filter.
  std::vector<const Relation*> exist_filters = {};
  /// If > 0, stop after this many surviving tuples (early exit).
  size_t limit = 0;
};

/// Natural join of a and b on their shared variables (hash join on the
/// smaller input). Output schema: union of schemas.
Relation Join(const Relation& a, const Relation& b, const JoinOpts& opts = {},
              ExecContext* ctx = nullptr);

/// Tuples of `a` that join with at least one tuple of `b`.
Relation Semijoin(const Relation& a, const Relation& b,
                  ExecContext* ctx = nullptr);

/// Tuples of `a` joining at least one tuple of *every* relation in `bs`;
/// equivalent to the left-to-right Semijoin chain but single-pass (see the
/// fused-probe contract above).
Relation SemijoinAll(const Relation& a,
                     const std::vector<const Relation*>& bs,
                     ExecContext* ctx = nullptr);
Relation SemijoinAll(const Relation& a,
                     std::initializer_list<const Relation*> bs,
                     ExecContext* ctx = nullptr);

/// Projection onto keep (which may include variables absent from the
/// schema — they are ignored). Duplicates removed.
Relation Project(const Relation& a, VarSet keep, ExecContext* ctx = nullptr);

/// Intersection of two relations with identical schemas.
Relation Intersect(const Relation& a, const Relation& b,
                   ExecContext* ctx = nullptr);

/// Union of two relations with identical schemas (deduplicated).
Relation Union(const Relation& a, const Relation& b,
               ExecContext* ctx = nullptr);

/// Tuples of `a` NOT joining any tuple of `b` (anti-join).
Relation Antijoin(const Relation& a, const Relation& b,
                  ExecContext* ctx = nullptr);

}  // namespace fmmsw

#endif  // FMMSW_RELATION_OPS_H_
