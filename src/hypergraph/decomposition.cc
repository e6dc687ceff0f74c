#include "hypergraph/decomposition.h"

#include <algorithm>
#include <set>

#include "util/check.h"

namespace fmmsw {

std::vector<EliminationStep> EliminationSequence(const Hypergraph& h,
                                                 const Gveo& gveo) {
  // The blocks must partition the active vertices.
  VarSet covered;
  for (const VarSet& b : gveo.blocks) {
    FMMSW_CHECK(!b.empty());
    FMMSW_CHECK(!covered.Intersects(b));
    covered = covered | b;
  }
  FMMSW_CHECK(covered == h.vertices());

  std::vector<EliminationStep> steps;
  Hypergraph cur = h;
  for (const VarSet& block : gveo.blocks) {
    EliminationStep step;
    step.before = cur;
    step.block = block;
    step.u = cur.U(block);
    step.n = cur.N(block);
    step.required = true;
    for (const EliminationStep& prev : steps) {
      if (prev.u.ContainsAll(step.u)) {
        step.required = false;
        break;
      }
    }
    cur = cur.Eliminate(block);
    steps.push_back(std::move(step));
  }
  return steps;
}

std::vector<Gveo> AllVeos(const Hypergraph& h) {
  std::vector<int> vars = h.vertices().Members();
  std::sort(vars.begin(), vars.end());
  std::vector<Gveo> out;
  do {
    Gveo g;
    for (int v : vars) g.blocks.push_back(VarSet::Singleton(v));
    out.push_back(std::move(g));
  } while (std::next_permutation(vars.begin(), vars.end()));
  return out;
}

namespace {

void GveoRec(VarSet remaining, Gveo* cur, std::vector<Gveo>* out) {
  if (remaining.empty()) {
    FMMSW_CHECK(static_cast<int>(out->size()) < kMaxGveos &&
                "GVEO enumeration overflow; raise kMaxGveos");
    out->push_back(*cur);
    return;
  }
  // To avoid double-counting ordered partitions we let the first block be
  // any non-empty subset of the remaining variables.
  for (VarSet s : Subsets(remaining)) {
    if (s.empty()) continue;
    cur->blocks.push_back(s);
    GveoRec(remaining - s, cur, out);
    cur->blocks.pop_back();
  }
}

}  // namespace

std::vector<Gveo> AllGveos(const Hypergraph& h) {
  std::vector<Gveo> out;
  Gveo cur;
  GveoRec(h.vertices(), &cur, &out);
  return out;
}

std::vector<std::pair<int, int>> TreeEdges(const TreeDecomposition& td) {
  const int n = static_cast<int>(td.bags.size());
  std::vector<std::pair<int, int>> edges;
  if (n <= 1) return edges;
  // Prim's algorithm, maximizing intersection size.
  std::vector<bool> in_tree(n, false);
  std::vector<int> best_weight(n, -1), best_from(n, -1);
  in_tree[0] = true;
  for (int j = 1; j < n; ++j) {
    best_weight[j] = td.bags[0].Intersect(td.bags[j]).size();
    best_from[j] = 0;
  }
  for (int it = 1; it < n; ++it) {
    int pick = -1;
    for (int j = 0; j < n; ++j) {
      if (!in_tree[j] && (pick < 0 || best_weight[j] > best_weight[pick])) {
        pick = j;
      }
    }
    FMMSW_CHECK(pick >= 0);
    in_tree[pick] = true;
    edges.emplace_back(best_from[pick], pick);
    for (int j = 0; j < n; ++j) {
      if (in_tree[j]) continue;
      int w = td.bags[pick].Intersect(td.bags[j]).size();
      if (w > best_weight[j]) {
        best_weight[j] = w;
        best_from[j] = pick;
      }
    }
  }
  return edges;
}

bool IsValidTd(const Hypergraph& h, const TreeDecomposition& td) {
  // Coverage of every hyperedge.
  for (const VarSet& e : h.edges()) {
    bool covered = false;
    for (const VarSet& b : td.bags) {
      if (b.ContainsAll(e)) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  if (td.bags.empty()) return h.edges().empty();
  // Running intersection on the max-weight spanning tree (junction-tree
  // theorem: if any tree works, the maximum spanning tree works).
  auto edges = TreeEdges(td);
  const int n = static_cast<int>(td.bags.size());
  std::vector<std::vector<int>> adj(n);
  for (auto [a, b] : edges) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  for (int v : h.vertices().Members()) {
    // Bags containing v must form a connected subtree.
    std::vector<int> with_v;
    for (int i = 0; i < n; ++i) {
      if (td.bags[i].Contains(v)) with_v.push_back(i);
    }
    if (with_v.empty()) return false;
    std::vector<bool> seen(n, false);
    std::vector<int> stack = {with_v[0]};
    seen[with_v[0]] = true;
    int reached = 0;
    while (!stack.empty()) {
      int cur = stack.back();
      stack.pop_back();
      ++reached;
      for (int nx : adj[cur]) {
        if (!seen[nx] && td.bags[nx].Contains(v)) {
          seen[nx] = true;
          stack.push_back(nx);
        }
      }
    }
    if (reached != static_cast<int>(with_v.size())) return false;
  }
  return true;
}

std::vector<TreeDecomposition> EnumerateTds(const Hypergraph& h) {
  std::set<std::vector<uint32_t>> seen;
  std::vector<TreeDecomposition> tds;
  for (const Gveo& veo : AllVeos(h)) {
    auto steps = EliminationSequence(h, veo);
    // Bags are the U_i; drop bags contained in other bags (redundant).
    std::vector<VarSet> bags;
    for (const auto& s : steps) {
      if (!s.u.empty()) bags.push_back(s.u);
    }
    std::vector<VarSet> minimal;
    for (const VarSet& b : bags) {
      bool contained = false;
      for (const VarSet& c : bags) {
        if (c != b && c.ContainsAll(b)) {
          contained = true;
          break;
        }
        if (c == b && &c < &b) {  // exact duplicate, keep first
          contained = true;
          break;
        }
      }
      if (!contained) minimal.push_back(b);
    }
    std::vector<uint32_t> key;
    for (const VarSet& b : minimal) key.push_back(b.mask());
    std::sort(key.begin(), key.end());
    key.erase(std::unique(key.begin(), key.end()), key.end());
    if (!seen.insert(key).second) continue;
    TreeDecomposition td;
    for (uint32_t m : key) td.bags.push_back(VarSet(m));
    tds.push_back(std::move(td));
  }
  // Prune dominated TDs: A dominates B if every bag of A is contained in
  // some bag of B (then A's width is never worse for any monotone h).
  std::vector<bool> drop(tds.size(), false);
  for (size_t a = 0; a < tds.size(); ++a) {
    if (drop[a]) continue;
    for (size_t b = 0; b < tds.size(); ++b) {
      if (a == b || drop[b]) continue;
      bool dominates = true;
      for (const VarSet& ba : tds[a].bags) {
        bool found = false;
        for (const VarSet& bb : tds[b].bags) {
          if (bb.ContainsAll(ba)) {
            found = true;
            break;
          }
        }
        if (!found) {
          dominates = false;
          break;
        }
      }
      if (dominates) drop[b] = true;
    }
  }
  std::vector<TreeDecomposition> out;
  for (size_t i = 0; i < tds.size(); ++i) {
    if (!drop[i]) out.push_back(std::move(tds[i]));
  }
  return out;
}

}  // namespace fmmsw
