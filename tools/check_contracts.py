#!/usr/bin/env python3
"""In-tree contract linter: machine-enforces the repo's written invariants.

The codebase carries a set of contracts that used to live only in doc
comments and PR descriptions. This linter turns them into build failures
(it runs as the `check_contracts` ctest target and as a CI step):

  stats-coverage      Every counter declared in `struct ExecStats`
                      (core/exec_context.h) must carry a doc comment and
                      appear in both ExecStats::Reset() and
                      ExecStats::ToString() (core/exec_context.cc).
                      Forgetting one silently breaks stat resets between
                      queries and hides the counter from traces/benches.

  ctx-threading       Every namespace-scope entry point declared in
                      src/relation/ops.h and src/engine/*.h must thread
                      an ExecContext (pointer or reference) so stats,
                      arenas and guardrails reach every operator.

  no-comparator-sort  std::sort / std::stable_sort are banned in the
                      data-plane hot paths (src/relation, src/engine,
                      src/mm, src/util/radix.*): PRs 1-5 migrated them to
                      the comparator-free wide-key radix layer. The radix
                      fallbacks themselves and schema-sized sorts carry
                      explicit allow markers.

  no-node-map         std::map / std::unordered_map / unordered_multimap
                      are banned in the same hot paths: PRs 1-3 replaced
                      them with flat open-addressing indexes
                      (relation/flat_index.h). Plan-level structures
                      keyed by schema carry allow markers.

  relaxed-justified   Every `memory_order_relaxed` in src/ must have an
                      adjacent `// relaxed:` comment stating the
                      invariant that makes relaxed safe (stats-only sum,
                      work-claim RMW, one-way latch, published by the
                      pool fan-in, ...). A site nobody can justify must
                      be upgraded, not waved through.

  tsa-escape          Every FMMSW_NO_THREAD_SAFETY_ANALYSIS use must have
                      an adjacent comment explaining the unchecked
                      invariant.

  no-nondeterminism   rand()/srand()/std::random_device/time()/clock()
                      are banned in src/: results must be bit-identical
                      across runs and thread counts. Seeded mt19937
                      (util/random.h) and the steady clock (timing stats)
                      are the sanctioned tools.

  queryabort-status   Every `throw QueryAbort(...)` in src/ must name an
                      ExecStatus (so core/recovery.h can classify it as
                      retryable or terminal) and carry a human-readable
                      message with at least one string literal. A bare or
                      status-less abort is unroutable by the recovery
                      plane and undiagnosable in logs.

  no-catalog-mutation Registered relation versions are immutable: the
                      catalog (core/database.h) publishes them as
                      shared_ptr<const Relation>, and snapshot isolation
                      holds only if nobody casts the const away. Hence
                      `const_cast<Relation` and `const_pointer_cast` are
                      banned in src/ outside core/database.cc (which is
                      itself clean today; the carve-out exists so a
                      future in-place compaction under the catalog lock
                      lands in the one file the reviewers watch). Code
                      that needs a mutable copy takes one with
                      Relation's copy constructor.

  fault-site-coverage Every site tag registered in kFaultSiteNames
                      (core/exec_context.cc) must appear at >= 1
                      Poll(FaultSite::...) / ParallelFor(..., FaultSite::...)
                      call site outside core/exec_context.*. A registered
                      tag nobody polls makes FMMSW_FAULT_PLAN silently
                      inert for that plane — the CI soak would test
                      nothing.

  one-mm-operator     Engines (src/engine, src/panda) multiply matrices only
                      through the MM operators of mm/kernel.h:
                      IndicatorProduct for Boolean products and
                      IndicatorCounts for cell counts. Both charge their
                      storage to the memory budget before allocating it
                      and count the product. Calling BitMatrix::Multiply,
                      CountingProduct( or MultiplyBitSliced( there brings
                      back a hand-rolled product that skips both.

  env-knob            Every std::getenv("FMMSW_...") in src/ must name
                      one of the sanctioned knobs: FMMSW_THREADS (pool
                      size) or FMMSW_FAULT_PLAN (fault injection). A new
                      env var is a new untested configuration axis;
                      adding one means extending ENV_KNOBS in the same
                      change, in plain sight of review. No allow marker
                      applies.

Allow marker: a site that legitimately violates a rule carries, on the
same line or the line directly above,

    // contracts: allow(<rule-id>) <reason>

The reason is mandatory; an empty reason is itself a violation. Run with
--self-test to execute the linter's own injected-violation tests.
"""

import argparse
import os
import re
import sys

# --------------------------------------------------------------------------
# Shared helpers


ALLOW_RE = re.compile(r"//\s*contracts:\s*allow\(([a-z0-9-]+)\)\s*(.*)")


class Violation:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line  # 1-based, 0 = whole file
        self.message = message

    def __str__(self):
        where = f"{self.path}:{self.line}" if self.line else self.path
        return f"{where}: [{self.rule}] {self.message}"


def allow_markers(lines):
    """Maps 1-based line number -> set of rule ids allowed at that line.

    A marker covers its own line and — skipping over the comment lines
    its reason wraps onto — the first code line below it, so it can sit
    at the top of a multi-line explanatory comment above the flagged
    statement. A marker with an empty reason covers nothing — the reason
    is the point.
    """
    allowed = {}
    bad = []
    for i, line in enumerate(lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        rule, reason = m.group(1), m.group(2).strip()
        if not reason:
            bad.append(i)
            continue
        j = i + 1
        while j <= len(lines) and lines[j - 1].strip().startswith("//"):
            j += 1
        for covered in range(i, j + 1):
            allowed.setdefault(covered, set()).add(rule)
    return allowed, bad


def strip_line_comment(line):
    """Drops a trailing // comment (naive: fine for this codebase, which
    does not put // inside string literals on banned-token lines)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def strip_block_comments(text):
    """Replaces /* ... */ spans with spaces, preserving line structure."""
    out = []
    i = 0
    while i < len(text):
        j = text.find("/*", i)
        if j < 0:
            out.append(text[i:])
            break
        out.append(text[i:j])
        k = text.find("*/", j + 2)
        if k < 0:
            k = len(text) - 2
        out.append("".join(c if c == "\n" else " " for c in text[j:k + 2]))
        i = k + 2
    return "".join(out)


# --------------------------------------------------------------------------
# Rule: stats-coverage


FIELD_RE = re.compile(r"std::atomic<int64_t>\s+(\w+)\s*\{")


def stats_counter_fields(header_text):
    """Names of the counters declared in struct ExecStats, with their
    1-based line numbers and whether the declaration line carries an
    inline ///< doc."""
    m = re.search(r"struct\s+ExecStats\s*\{(.*?)\n\};", header_text, re.S)
    if not m:
        return None
    body = m.group(1)
    offset = header_text[:m.start(1)].count("\n") + 1
    fields = []
    for i, line in enumerate(body.split("\n")):
        fm = FIELD_RE.search(line)
        if fm:
            fields.append((fm.group(1), offset + i, "///<" in line))
    return fields


def check_stats_coverage(header_text, impl_text, header_path, impl_path):
    violations = []
    fields = stats_counter_fields(header_text)
    if fields is None:
        return [Violation("stats-coverage", header_path, 0,
                          "struct ExecStats not found")]

    def body_of(name):
        m = re.search(r"ExecStats::" + name + r"\s*\(\)[^{]*\{(.*?)\n\}",
                      impl_text, re.S)
        return m.group(1) if m else None

    reset = body_of("Reset")
    tostr = body_of("ToString")
    if reset is None or tostr is None:
        return [Violation("stats-coverage", impl_path, 0,
                          "ExecStats::Reset()/ToString() not found")]
    for name, line, documented in fields:
        if not documented:
            violations.append(Violation(
                "stats-coverage", header_path, line,
                f"ExecStats counter '{name}' has no ///< doc comment"))
        if not re.search(r"\b" + name + r"\b", reset):
            violations.append(Violation(
                "stats-coverage", impl_path, 0,
                f"ExecStats counter '{name}' missing from Reset()"))
        if not re.search(r"\b" + name + r"\b", tostr):
            violations.append(Violation(
                "stats-coverage", impl_path, 0,
                f"ExecStats counter '{name}' missing from ToString()"))
    return violations


# --------------------------------------------------------------------------
# Rule: ctx-threading


# Declarations that legitimately take no ExecContext: pure metadata or
# plan-shaping helpers with no execution side.
CTX_EXEMPT = {
    "StatusString",          # enum -> string, no execution
    "ForLoopPlan",           # pure plan construction from the hypergraph
    "TriangleCountLadder",   # strategy capability metadata, no execution
    "TriangleBooleanLadder", # strategy capability metadata, no execution
    "BooleanLadderFor",      # ladder picked from the query's shape, no execution
    "IsTriangleQuery",       # pure shape predicate on the hypergraph
}

DECL_NAME_RE = re.compile(r"(\w+)\s*\($")


def namespace_scope_decls(text):
    """Yields (name, params, line) for ;-terminated function declarations
    at namespace scope (brace depth 1) in a header."""
    text = strip_block_comments(text)
    lines = text.split("\n")
    depth = 0
    stmt = []
    stmt_line = 1
    for ln, raw in enumerate(lines, start=1):
        line = strip_line_comment(raw)
        for ch in line:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
        if not line.strip():
            continue
        if line.lstrip().startswith("#"):
            continue
        if not stmt:
            stmt_line = ln
        stmt.append(line.strip())
        joined = " ".join(stmt)
        if joined.endswith(";"):
            stmt = []
            # depth at statement end; member decls sit deeper than 1.
            if depth != 1:
                continue
            if "(" not in joined or ")" not in joined:
                continue
            head, params = joined.split("(", 1)
            if re.search(r"\b(struct|class|enum|using|typedef|namespace|"
                         r"return|if|while|for)\b", head):
                continue
            if "=" in head:  # variable with initializer
                continue
            name_m = re.search(r"(\w+)\s*$", head)
            if not name_m:
                continue
            yield name_m.group(1), params, stmt_line


def check_ctx_threading(text, path):
    violations = []
    for name, params, line in namespace_scope_decls(text):
        if name in CTX_EXEMPT:
            continue
        if "ExecContext" not in params:
            violations.append(Violation(
                "ctx-threading", path, line,
                f"entry point '{name}' does not thread an ExecContext*"))
    return violations


# --------------------------------------------------------------------------
# Rules: banned tokens (comparator sorts, node maps, nondeterminism)


BANNED = {
    "no-comparator-sort": re.compile(r"std::(?:stable_)?sort\s*\("),
    "no-node-map": re.compile(
        r"std::(?:unordered_map|unordered_multimap|map)\s*<"),
}

NONDET = re.compile(
    r"(?<![\w:])(?:rand|srand|time|clock)\s*\(|std::random_device")


def check_banned_tokens(text, path, rules):
    violations = []
    lines = strip_block_comments(text).split("\n")
    allowed, bad_markers = allow_markers(lines)
    for i in bad_markers:
        violations.append(Violation(
            "allow-marker", path, i,
            "contracts: allow(...) marker with an empty reason"))
    for i, raw in enumerate(lines, start=1):
        code = strip_line_comment(raw)
        for rule, pat in rules.items():
            if pat.search(code) and rule not in allowed.get(i, ()):
                violations.append(Violation(
                    rule, path, i,
                    f"banned construct {pat.pattern!r} in a data-plane "
                    "hot path (see tools/check_contracts.py; add a "
                    "'// contracts: allow' marker only with a reason)"))
    return violations


def check_nondeterminism(text, path):
    violations = []
    lines = strip_block_comments(text).split("\n")
    allowed, _ = allow_markers(lines)
    for i, raw in enumerate(lines, start=1):
        code = strip_line_comment(raw)
        m = NONDET.search(code)
        if m and "no-nondeterminism" not in allowed.get(i, ()):
            violations.append(Violation(
                "no-nondeterminism", path, i,
                f"nondeterminism source {m.group(0)!r} in src/ "
                "(results must be bit-identical across runs)"))
    return violations


# --------------------------------------------------------------------------
# Rule: no-catalog-mutation


CATALOG_MUTATION_RE = re.compile(
    r"const_cast\s*<\s*Relation\b|std::const_pointer_cast\s*<")


def check_catalog_mutation(text, path):
    """Casting the const off a Relation (or any shared_ptr pointee) breaks
    the immutable-version contract the snapshot plane rests on; only
    core/database.cc may ever hold such a cast, under the catalog lock."""
    violations = []
    lines = strip_block_comments(text).split("\n")
    allowed, _ = allow_markers(lines)
    for i, raw in enumerate(lines, start=1):
        code = strip_line_comment(raw)
        m = CATALOG_MUTATION_RE.search(code)
        if m and "no-catalog-mutation" not in allowed.get(i, ()):
            violations.append(Violation(
                "no-catalog-mutation", path, i,
                f"{m.group(0).strip()!r} mutates a published relation "
                "version; registered versions are immutable (copy with "
                "Relation's copy constructor instead, or move the code "
                "into core/database.cc under the catalog lock)"))
    return violations


# --------------------------------------------------------------------------
# Rule: one-mm-operator


RAW_MM_RE = re.compile(r"BitMatrix::Multiply\b|\bCountingProduct\s*\(|"
                       r"\bMultiplyBitSliced\s*\(")
MM_CALLER_DIRS = ("src/engine/", "src/panda/")


def check_one_mm_operator(text, path):
    """Engines reach the matrix kernels only through the MM operators."""
    violations = []
    lines = strip_block_comments(text).split("\n")
    allowed, _ = allow_markers(lines)
    for i, raw in enumerate(lines, start=1):
        code = strip_line_comment(raw)
        m = RAW_MM_RE.search(code)
        if m and "one-mm-operator" not in allowed.get(i, ()):
            violations.append(Violation(
                "one-mm-operator", path, i,
                f"{m.group(0).strip()!r} called from an engine; multiply "
                "through IndicatorProduct or IndicatorCounts (mm/kernel.h), "
                "which charge their storage and count the product"))
    return violations


# --------------------------------------------------------------------------
# Rule: env-knob


ENV_KNOBS = ("FMMSW_THREADS", "FMMSW_FAULT_PLAN")
GETENV_RE = re.compile(r'getenv\s*\(\s*"(FMMSW_\w*)"')


def check_env_knob(text, path):
    """A getenv of an FMMSW_ variable must name a sanctioned knob."""
    violations = []
    lines = strip_block_comments(text).split("\n")
    for i, raw in enumerate(lines, start=1):
        for name in GETENV_RE.findall(strip_line_comment(raw)):
            if name not in ENV_KNOBS:
                violations.append(Violation(
                    "env-knob", path, i,
                    f"env var {name!r} is not one of {', '.join(ENV_KNOBS)}"
                    " (a new knob extends ENV_KNOBS in the same change)"))
    return violations


# --------------------------------------------------------------------------
# Rule: queryabort-status


THROW_ABORT_RE = re.compile(r"\bthrow\s+QueryAbort\s*\(")


def check_queryabort_status(text, path):
    """Every throw QueryAbort(...) names an ExecStatus and carries a
    string-literal message. Throw statements wrap; join lines up to the
    terminating ';' before checking."""
    violations = []
    lines = strip_block_comments(text).split("\n")
    allowed, _ = allow_markers(lines)
    i = 0
    while i < len(lines):
        code = strip_line_comment(lines[i])
        m = THROW_ABORT_RE.search(code)
        if not m or "queryabort-status" in allowed.get(i + 1, ()):
            i += 1
            continue
        stmt = code[m.start():]
        j = i
        while ";" not in stmt and j + 1 < len(lines):
            j += 1
            stmt += " " + strip_line_comment(lines[j])
        stmt = stmt.split(";", 1)[0]
        if "ExecStatus::k" not in stmt:
            violations.append(Violation(
                "queryabort-status", path, i + 1,
                "throw QueryAbort(...) without an ExecStatus::k* status "
                "(the recovery plane cannot classify it)"))
        if '"' not in stmt:
            violations.append(Violation(
                "queryabort-status", path, i + 1,
                "throw QueryAbort(...) without a string-literal message"))
        i = j + 1
    return violations


# --------------------------------------------------------------------------
# Rule: fault-site-coverage


SITE_TABLE_RE = re.compile(
    r"kFaultSiteNames\s*\[[^\]]*\]\s*=\s*\{(.*?)\}", re.S)
SITE_USE_RE = re.compile(r"FaultSite::k(\w+)")


def registered_fault_sites(impl_text):
    """Site tags from the kFaultSiteNames table in exec_context.cc, in
    order; None if the table is missing."""
    m = SITE_TABLE_RE.search(strip_block_comments(impl_text))
    if not m:
        return None
    return re.findall(r'"([a-z0-9]+)"', m.group(1))


def check_fault_site_coverage(impl_text, uses_text, impl_path):
    """`uses_text` is the concatenation of every src/ file outside
    core/exec_context.* — each registered tag must be polled somewhere
    out there, or the fault plan for that plane tests nothing."""
    sites = registered_fault_sites(impl_text)
    if sites is None:
        return [Violation("fault-site-coverage", impl_path, 0,
                          "kFaultSiteNames table not found")]
    used = {u.lower() for u in SITE_USE_RE.findall(uses_text)}
    violations = []
    for tag in sites:
        if tag not in used:
            violations.append(Violation(
                "fault-site-coverage", impl_path, 0,
                f"fault site '{tag}' is registered but never polled "
                "(no Poll(FaultSite::...) / site-tagged ParallelFor "
                "outside core/exec_context.*)"))
    return violations


# --------------------------------------------------------------------------
# Rule: relaxed-justified


RELAXED_WINDOW = 12  # lines above that may hold the // relaxed: comment


def check_relaxed_justified(text, path):
    violations = []
    lines = text.split("\n")
    for i, line in enumerate(lines, start=1):
        if "memory_order_relaxed" not in line:
            continue
        window = lines[max(0, i - 1 - RELAXED_WINDOW):i]
        if not any("relaxed:" in w for w in window):
            violations.append(Violation(
                "relaxed-justified", path, i,
                "memory_order_relaxed without an adjacent '// relaxed:' "
                "comment stating the invariant that makes relaxed safe"))
    return violations


def check_tsa_escape(text, path):
    violations = []
    lines = text.split("\n")
    for i, line in enumerate(lines, start=1):
        if "FMMSW_NO_THREAD_SAFETY_ANALYSIS" not in line:
            continue
        if "#define" in line or "define FMMSW" in line:
            continue
        window = lines[max(0, i - 1 - RELAXED_WINDOW):i]
        if not any("//" in w for w in window):
            violations.append(Violation(
                "tsa-escape", path, i,
                "FMMSW_NO_THREAD_SAFETY_ANALYSIS without an adjacent "
                "comment stating the unchecked invariant"))
    return violations


# --------------------------------------------------------------------------
# Repo walk


HOT_PATH_DIRS = ("src/relation", "src/engine", "src/mm")
HOT_PATH_FILES = ("src/util/radix.h", "src/util/radix.cc")


def is_hot_path(rel):
    rel = rel.replace(os.sep, "/")
    return rel.startswith(HOT_PATH_DIRS) or rel in HOT_PATH_FILES


def lint_repo(repo):
    violations = []
    src = os.path.join(repo, "src")
    header = os.path.join(src, "core", "exec_context.h")
    impl = os.path.join(src, "core", "exec_context.cc")
    with open(header) as f:
        header_text = f.read()
    with open(impl) as f:
        impl_text = f.read()
    violations += check_stats_coverage(
        header_text, impl_text, "src/core/exec_context.h",
        "src/core/exec_context.cc")

    site_uses = []
    for root, _, files in os.walk(src):
        for fname in sorted(files):
            if not fname.endswith((".h", ".cc")):
                continue
            path = os.path.join(root, fname)
            rel = os.path.relpath(path, repo)
            with open(path) as f:
                text = f.read()
            violations += check_relaxed_justified(text, rel)
            violations += check_tsa_escape(text, rel)
            violations += check_nondeterminism(text, rel)
            violations += check_queryabort_status(text, rel)
            violations += check_env_knob(text, rel)
            if rel.replace(os.sep, "/") != "src/core/database.cc":
                violations += check_catalog_mutation(text, rel)
            if rel.replace(os.sep, "/") not in (
                    "src/core/exec_context.h", "src/core/exec_context.cc"):
                site_uses.append(text)
            if is_hot_path(rel):
                violations += check_banned_tokens(text, rel, BANNED)
            if rel.replace(os.sep, "/").startswith(MM_CALLER_DIRS):
                violations += check_one_mm_operator(text, rel)
    violations += check_fault_site_coverage(
        impl_text, "\n".join(site_uses), "src/core/exec_context.cc")

    for rel in ["src/relation/ops.h"] + sorted(
            "src/engine/" + f for f in os.listdir(os.path.join(src, "engine"))
            if f.endswith(".h")):
        with open(os.path.join(repo, rel)) as f:
            violations += check_ctx_threading(f.read(), rel)
    return violations


# --------------------------------------------------------------------------
# Self-test: feed each rule a known-violating and a known-clean snippet
# and assert it fires exactly on the former.


def self_test():
    failures = []

    def expect(label, violations, rule, count):
        got = [v for v in violations if v.rule == rule]
        if len(got) != count:
            failures.append(
                f"{label}: expected {count} x {rule}, got "
                f"{[str(v) for v in violations]}")

    # stats-coverage: counter missing from Reset(), undocumented counter.
    header = """
struct ExecStats {
  std::atomic<int64_t> good_calls{0};   ///< documented
  std::atomic<int64_t> bad_calls{0};
};
"""
    impl = """
void ExecStats::Reset() {
  good_calls = 0;
}

std::string ExecStats::ToString() const {
  row("good_calls", good_calls);
  return out;
}
"""
    v = check_stats_coverage(header, impl, "h", "cc")
    # bad_calls: undocumented + missing from Reset + missing from ToString.
    expect("stats", v, "stats-coverage", 3)
    clean_impl = impl.replace("good_calls = 0;",
                              "good_calls = 0;\n  bad_calls = 0;").replace(
        'row("good_calls", good_calls);',
        'row("good_calls", good_calls);\n  row("bad_calls", bad_calls);')
    v = check_stats_coverage(header.replace(
        "bad_calls{0};", "bad_calls{0};  ///< now documented"),
        clean_impl, "h", "cc")
    expect("stats-clean", v, "stats-coverage", 0)

    # ctx-threading: entry point without ExecContext fires; with, doesn't;
    # struct members don't.
    hdr = """
namespace fmmsw {
struct Opts {
  bool flag = false;
  int Helper(int x);
};
Relation Naked(const Relation& a, const Relation& b);
Relation Threaded(const Relation& a, ExecContext* ctx = nullptr);
}  // namespace fmmsw
"""
    v = check_ctx_threading(hdr, "hdr")
    expect("ctx", v, "ctx-threading", 1)

    # no-node-map / no-comparator-sort: bare use fires; comment mention
    # and allow-marked use don't; empty-reason marker fires.
    src = """
std::map<int, int> hot;             // banned
// std::unordered_map in a comment is fine
// contracts: allow(no-node-map) schema-keyed plan structure, O(edges)
std::map<VarSet, Relation> pool;
std::sort(v.begin(), v.end());
std::stable_sort(w.begin(), w.end());  // contracts: allow(no-comparator-sort) radix fallback below kRadixMinN
// contracts: allow(no-node-map)
std::map<int, int> empty_reason;
// contracts: allow(no-node-map) a reason that wraps onto a
// second comment line before the statement it covers
std::map<int, int> wrapped_ok;
"""
    v = check_banned_tokens(src, "src", BANNED)
    expect("map", v, "no-node-map", 2)  # hot + empty_reason line
    expect("sort", v, "no-comparator-sort", 1)
    expect("marker", v, "allow-marker", 1)

    # relaxed-justified: unjustified relaxed fires, justified doesn't.
    src = """
x.fetch_add(1, std::memory_order_relaxed);
// relaxed: stats-only sum read after the fan-in.
y.fetch_add(1, std::memory_order_relaxed);
"""
    v = check_relaxed_justified(src, "src")
    expect("relaxed", v, "relaxed-justified", 1)

    # tsa-escape: bare escape fires, commented doesn't, #define doesn't.
    src = """
#define FMMSW_NO_THREAD_SAFETY_ANALYSIS x
void Bare() FMMSW_NO_THREAD_SAFETY_ANALYSIS;
// invariant: hook_ only written while no query runs.
void Documented() FMMSW_NO_THREAD_SAFETY_ANALYSIS;
"""
    v = check_tsa_escape(src, "src")
    expect("tsa", v, "tsa-escape", 1)

    # no-nondeterminism: rand()/time() fire; mt19937 seeded and
    # steady_clock don't; Rand-like identifiers don't.
    src = """
int a = rand();
std::srand(time(nullptr));
std::mt19937_64 gen(seed);
auto t = std::chrono::steady_clock::now();
int b = MyRand();
uint64_t c = SplitMixRandom(x);
"""
    v = check_nondeterminism(src, "src")
    # rand() + srand( + time( -> note srand/time share one line: both
    # patterns are alternatives of one regex, first match per line wins.
    expect("nondet", v, "no-nondeterminism", 2)

    # queryabort-status: status-less and message-less throws fire (also
    # across wrapped lines); a conforming throw and a comment mention
    # don't; an allow-marked site doesn't.
    src = """
throw QueryAbort(ExecStatus::kCancelled, "query cancelled");
throw QueryAbort(ExecStatus::kMemoryLimitExceeded,
                 "memory budget exceeded: " + std::to_string(now) +
                     " bytes");
throw QueryAbort("no status here");
throw QueryAbort(ExecStatus::kCancelled,
                 status_only_variable_message);
// a doc comment may say `throw QueryAbort` without firing
// contracts: allow(queryabort-status) rethrow helper, status attached upstream
throw QueryAbort(wrapped);
"""
    v = check_queryabort_status(src, "src")
    # "no status here": missing status; variable-message throw: missing
    # string literal.
    expect("abort", v, "queryabort-status", 2)

    # no-catalog-mutation: const_cast<Relation and const_pointer_cast
    # fire; a const_cast to another type, a comment mention, and an
    # allow-marked site don't.
    src = """
Relation& r = const_cast<Relation&>(snap.Find("R"));
auto p = std::const_pointer_cast<Relation>(versioned);
int& i = const_cast<int&>(ci);
// a doc comment may mention const_cast<Relation without firing
// contracts: allow(no-catalog-mutation) private pre-publication buffer
auto q = std::const_pointer_cast<Relation>(unpublished);
"""
    v = check_catalog_mutation(src, "src")
    expect("catalog", v, "no-catalog-mutation", 2)

    # one-mm-operator: a raw BitMatrix::Multiply, CountingProduct or
    # MultiplyBitSliced call fires; the two operators, a comment mention
    # and an allow-marked site don't.
    src = """
BitMatrix p = BitMatrix::Multiply(a, b, &ec);
Matrix m = CountingProduct(a, b, kernel, &ec);
IndicatorProduct prod(rows, inner, cols, ec);
prod.Multiply();
IndicatorCounts counts(rows, inner, cols, ec);
int64_t n = counts.Count(i, j);
// MultiplyBitSliced( reads every cell through IndicatorCounts
Matrix q = MultiplyBitSliced(a, b, &ec);
// contracts: allow(one-mm-operator) differential reference in a test hook
Matrix r = CountingProduct(a, b, MmKernel::kBitSliced, &ec);
"""
    v = check_one_mm_operator(src, "src")
    expect("mm-operator", v, "one-mm-operator", 3)

    # fault-site-coverage: a registered-but-never-polled tag fires; the
    # polled tags (via Poll or site-tagged ParallelFor) don't; a missing
    # table is itself a violation.
    impl = """
const char* const kFaultSiteNames[kNumFaultSites] = {
    "wcoj", "sort", "mm",
};
"""
    uses = """
guard.Poll(FaultSite::kWcoj);
ParallelFor(ec, FaultSite::kSort, n, chunk);
"""
    v = check_fault_site_coverage(impl, uses, "cc")
    expect("site", v, "fault-site-coverage", 1)  # "mm" never polled
    v = check_fault_site_coverage(impl, uses + "g.Poll(FaultSite::kMm);",
                                  "cc")
    expect("site-clean", v, "fault-site-coverage", 0)
    v = check_fault_site_coverage("// no table", uses, "cc")
    expect("site-notable", v, "fault-site-coverage", 1)

    # env-knob: an unsanctioned FMMSW_ getenv fires; the two knobs, a
    # non-FMMSW_ variable and a comment mention don't.
    src = """
const char* a = std::getenv("FMMSW_THREADS");
const char* c = std::getenv( "FMMSW_FAULT_PLAN" );
const char* d = std::getenv("FMMSW_NEW_KNOB");
const char* e = getenv("HOME");
// std::getenv("FMMSW_IN_A_COMMENT") does not fire
"""
    v = check_env_knob(src, "src")
    expect("env-knob", v, "env-knob", 1)

    if failures:
        for f in failures:
            print("SELF-TEST FAIL:", f)
        return 1
    print("check_contracts.py self-test: all rules fire as expected")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repo", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--self-test", action="store_true",
                    help="run the linter's injected-violation tests")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    violations = lint_repo(args.repo)
    for v in violations:
        print(v)
    if violations:
        print(f"\ncheck_contracts: {len(violations)} violation(s)")
        return 1
    print("check_contracts: all contracts hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
