#include "core/database.h"

#include <algorithm>

namespace fmmsw {

namespace {

/// Staging copies poll the guard between chunks of this many rows, so a
/// fault plan / memory budget lands at a deterministic row ordinal and
/// an abort never leaves a half-written version visible (staged
/// relations are private until the commit swap).
constexpr size_t kStageChunkRows = 4096;

/// Entries are kept sorted by name; shared by CatalogState::Find and
/// the commit merge.
struct VersionNameLess {
  bool operator()(const RelationVersion& v, const std::string& name) const {
    return v.name < name;
  }
};

const RelationVersion* FindIn(const std::vector<RelationVersion>& entries,
                              const std::string& name) {
  auto it = std::lower_bound(entries.begin(), entries.end(), name,
                             VersionNameLess{});
  if (it == entries.end() || it->name != name) return nullptr;
  return &*it;
}

int64_t RelationBytes(const Relation& r) {
  return static_cast<int64_t>(r.size()) * r.arity() *
         static_cast<int64_t>(sizeof(Value));
}

/// Shared body of the Query* entry points: bind the snapshot's pinned
/// versions to the atoms, take an admission ticket for `opts.klass`
/// (held until `evaluate` returns), then evaluate on the binding.
template <typename Evaluate>
ExecResult BindAdmitEvaluate(AdmissionController& admission,
                             const Snapshot& snap,
                             const std::vector<std::string>& atoms,
                             const QueryOptions& opts, ExecContext* ctx,
                             Evaluate evaluate) {
  ExecContext& ec = ExecContext::Resolve(ctx);
  QueryInput db;
  ExecResult bound = snap.Bind(atoms, &db);
  if (!bound.ok()) return bound;
  AdmissionController::Ticket ticket;
  ExecResult admit = admission.Admit(opts.klass, opts.limits, ec, &ticket);
  if (!admit.ok()) return admit;
  return evaluate(db, ec);
}

}  // namespace

// ---------------------------------------------------------------------------
// CatalogState / Snapshot

const RelationVersion* CatalogState::Find(const std::string& name) const {
  return FindIn(entries, name);
}

std::vector<std::string> Snapshot::names() const {
  std::vector<std::string> out;
  if (state_ == nullptr) return out;
  out.reserve(state_->entries.size());
  for (const RelationVersion& v : state_->entries) out.push_back(v.name);
  return out;
}

const Relation* Snapshot::Find(const std::string& name) const {
  if (state_ == nullptr) return nullptr;
  const RelationVersion* v = state_->Find(name);
  return v == nullptr ? nullptr : v->rel.get();
}

RelationPtr Snapshot::Share(const std::string& name) const {
  if (state_ == nullptr) return nullptr;
  const RelationVersion* v = state_->Find(name);
  return v == nullptr ? nullptr : v->rel;
}

uint64_t Snapshot::VersionDigest(const std::string& name) const {
  if (state_ == nullptr) return 0;
  const RelationVersion* v = state_->Find(name);
  return v == nullptr ? 0 : v->digest;
}

ExecResult Snapshot::Bind(const std::vector<std::string>& atoms,
                          QueryInput* out) const {
  QueryInput bound;
  bound.relations.reserve(atoms.size());
  for (const std::string& name : atoms) {
    RelationPtr rel = Share(name);
    if (rel == nullptr) {
      return {ExecStatus::kInvalidArgument,
              "snapshot (epoch " + std::to_string(epoch()) +
                  ") has no relation named '" + name + "'"};
    }
    bound.relations.push_back(std::move(rel));
  }
  *out = std::move(bound);
  return {};
}

uint64_t Snapshot::BindingDigest(const std::vector<std::string>& atoms) const {
  // Order-sensitive fold (position i is hyperedge i): golden-ratio
  // rotate-and-xor so swapped bindings key differently.
  uint64_t h = 0x243f6a8885a308d3ull ^ static_cast<uint64_t>(atoms.size());
  for (const std::string& name : atoms) {
    h = (h << 7) | (h >> 57);
    h ^= VersionDigest(name) + 0x9e3779b97f4a7c15ull;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Database

Database::Database(const AdmissionConfig& admission)
    : state_(std::make_shared<const CatalogState>()), admission_(admission) {}

Snapshot Database::snapshot(ExecContext* ctx) const {
  ExecContext& ec = ExecContext::Resolve(ctx);
  Bump(ec.stats().snapshots_pinned);
  MutexLock lock(&mu_);
  return Snapshot(state_);
}

int64_t Database::epoch() const {
  MutexLock lock(&mu_);
  return state_->epoch;
}

Database::Transaction Database::Begin(ExecContext* ctx) {
  ExecContext& ec = ExecContext::Resolve(ctx);
  std::shared_ptr<const CatalogState> base;
  {
    MutexLock lock(&mu_);
    base = state_;
  }
  return Transaction(this, std::move(base), ec);
}

int64_t Database::CommitStaged(std::vector<RelationVersion>* staged) {
  MutexLock lock(&mu_);
  const CatalogState& cur = *state_;
  auto next = std::make_shared<CatalogState>();
  next->epoch = cur.epoch + 1;
  next->entries = cur.entries;  // shares every untouched version by pointer
  int64_t retired = 0;
  for (RelationVersion& op : *staged) {
    auto it = std::lower_bound(next->entries.begin(), next->entries.end(),
                               op.name, VersionNameLess{});
    const bool present = it != next->entries.end() && it->name == op.name;
    if (op.rel == nullptr) {  // staged drop
      if (present) {
        next->entries.erase(it);
        ++retired;
      }
      continue;
    }
    op.epoch = next->epoch;
    if (present) {
      *it = std::move(op);
      ++retired;
    } else {
      next->entries.insert(it, std::move(op));
    }
  }
  // The swap IS the commit: one pointer store under mu_. Readers that
  // pinned the old state keep it alive; new snapshots see epoch+1.
  state_ = std::move(next);
  return retired;
}

// ---------------------------------------------------------------------------
// Transaction

Database::Transaction::Transaction(Database* db,
                                   std::shared_ptr<const CatalogState> base,
                                   ExecContext& ec)
    : db_(db),
      base_(std::move(base)),
      ec_(&ec),
      charge_(new MemCharge(ec)) {}

Database::Transaction::~Transaction() {
  if (db_ != nullptr && !done_) Rollback();
}

const Relation* Database::Transaction::View(const std::string& name) const {
  // Last staged write wins within the transaction.
  for (auto it = staged_.rbegin(); it != staged_.rend(); ++it) {
    if (it->name == name) return it->rel.get();  // nullptr = staged drop
  }
  const RelationVersion* v = base_->Find(name);
  return v == nullptr ? nullptr : v->rel.get();
}

void Database::Transaction::Stage(const std::string& name, RelationPtr rel,
                                  uint64_t digest) {
  for (RelationVersion& v : staged_) {
    if (v.name == name) {
      v.rel = std::move(rel);
      v.digest = digest;
      return;
    }
  }
  RelationVersion v;
  v.name = name;
  v.rel = std::move(rel);
  v.digest = digest;
  staged_.push_back(std::move(v));
}

void Database::Transaction::Replace(const std::string& name, Relation rows) {
  FMMSW_CHECK(active() && "Replace on a consumed transaction");
  ec_->guard().Poll(FaultSite::kOps);
  // Canonical stored form: sorted + deduped (the sort layer polls
  // FaultSite::kSort itself, so large ingests stay abortable inside).
  rows.SortAndDedupe(ec_);
  ec_->guard().Poll(FaultSite::kOps);
  charge_->Add(RelationBytes(rows));
  const uint64_t digest = RelationStatsDigest(rows);
  Stage(name, std::make_shared<const Relation>(std::move(rows)), digest);
}

void Database::Transaction::Append(const std::string& name,
                                   const Relation& delta) {
  FMMSW_CHECK(active() && "Append on a consumed transaction");
  const Relation* base_rel = View(name);
  if (base_rel == nullptr) {
    Replace(name, delta);
    return;
  }
  if (base_rel->schema() != delta.schema()) {
    throw QueryAbort(ExecStatus::kInvalidArgument,
                     "Append('" + name + "'): delta schema " +
                         delta.schema().ToString() +
                         " != registered schema " +
                         base_rel->schema().ToString());
  }
  // Copy-on-write: the fresh version is built off to the side in
  // guard-polled chunks; the shared base version is never touched.
  Relation fresh(base_rel->schema());
  if (fresh.arity() == 0) {
    if (!base_rel->empty() || !delta.empty()) fresh.Add({});
  } else {
    fresh.Reserve(base_rel->size() + delta.size());
    for (const Relation* src : {base_rel, &delta}) {
      const size_t rows = src->size();
      for (size_t r = 0; r < rows; r += kStageChunkRows) {
        ec_->guard().Poll(FaultSite::kOps);
        const size_t n = std::min(kStageChunkRows, rows - r);
        fresh.AddRows(src->Row(r), n);
      }
    }
  }
  Replace(name, std::move(fresh));
}

void Database::Transaction::Drop(const std::string& name) {
  FMMSW_CHECK(active() && "Drop on a consumed transaction");
  ec_->guard().Poll(FaultSite::kOps);
  if (View(name) == nullptr) {
    throw QueryAbort(ExecStatus::kInvalidArgument,
                     "Drop('" + name + "'): no such relation");
  }
  Stage(name, nullptr, 0);
}

void Database::Transaction::Commit() {
  FMMSW_CHECK(active() && "Commit on a consumed transaction");
  // Last abortable point: a fault at this ordinal proves the
  // pre-swap/post-swap atomicity split (nothing staged is visible yet).
  ec_->guard().Poll(FaultSite::kOps);
  const int64_t retired = db_->CommitStaged(&staged_);
  done_ = true;
  staged_.clear();
  // Staged bytes graduated from transient staging memory to
  // catalog-owned state: release the charge so the query-plane balance
  // returns to its pre-transaction level.
  charge_.reset();
  Bump(ec_->stats().commits);
  Bump(ec_->stats().versions_retired, retired);
}

void Database::Transaction::Rollback() {
  FMMSW_CHECK(active() && "Rollback on a consumed transaction");
  done_ = true;
  staged_.clear();   // drops staged versions (last refs)
  charge_.reset();   // restores mem_current_bytes
  Bump(ec_->stats().rollbacks);
}

// ---------------------------------------------------------------------------
// Query entry points

ExecResult Database::QueryBoolean(const Snapshot& snap, const Hypergraph& h,
                                  const std::vector<std::string>& atoms,
                                  bool* result, const QueryOptions& opts,
                                  ExecContext* ctx,
                                  RecoveryReport* report) const {
  return BindAdmitEvaluate(
      admission_, snap, atoms, opts, ctx,
      [&](const QueryInput& db, ExecContext& ec) {
        return EvaluateBooleanWithRecovery(h, db, result, &ec, opts.limits,
                                           opts.retry, report);
      });
}

ExecResult Database::QueryCount(const Snapshot& snap, const Hypergraph& h,
                                const std::vector<std::string>& atoms,
                                int64_t* count, const QueryOptions& opts,
                                ExecContext* ctx,
                                RecoveryReport* report) const {
  return BindAdmitEvaluate(
      admission_, snap, atoms, opts, ctx,
      [&](const QueryInput& db, ExecContext& ec) {
        return EvaluateCountWithRecovery(h, db, count, &ec, opts.limits,
                                         opts.retry, report);
      });
}

ExecResult Database::QueryJoin(const Snapshot& snap, const Hypergraph& h,
                               const std::vector<std::string>& atoms,
                               VarSet output_vars, Relation* result,
                               const QueryOptions& opts, ExecContext* ctx,
                               RecoveryReport* report) const {
  return BindAdmitEvaluate(
      admission_, snap, atoms, opts, ctx,
      [&](const QueryInput& db, ExecContext& ec) {
        return EvaluateJoinWithRecovery(h, db, output_vars, result, &ec,
                                        opts.limits, opts.retry, report);
      });
}

ExecResult Database::PlanWidths(const Snapshot& snap, const Hypergraph& h,
                                const std::vector<std::string>& atoms,
                                const Rational& omega, WidthReport* out,
                                OmegaSubwOptions opts, ExecContext* ctx) const {
  ExecContext& ec = ExecContext::Resolve(ctx);
  if (atoms.size() != h.edges().size()) {
    return {ExecStatus::kInvalidArgument,
            "PlanWidths: " + std::to_string(atoms.size()) +
                " atom names for " + std::to_string(h.edges().size()) +
                " hyperedges"};
  }
  for (const std::string& name : atoms) {
    if (snap.Find(name) == nullptr) {
      return {ExecStatus::kInvalidArgument,
              "snapshot (epoch " + std::to_string(snap.epoch()) +
                  ") has no relation named '" + name + "'"};
    }
  }
  // Version-keyed planning: the digest rides into the WidthCache key,
  // so a commit to any bound relation misses the cache by construction.
  opts.stats_digest = snap.BindingDigest(atoms);
  *out = ComputeWidths(h, omega, opts, &ec);
  return {};
}

}  // namespace fmmsw
