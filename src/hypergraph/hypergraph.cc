#include "hypergraph/hypergraph.h"

#include <algorithm>

#include "util/check.h"

namespace fmmsw {

Hypergraph::Hypergraph(int k, std::vector<std::string> names)
    : num_vars_(k), vertices_(VarSet::Full(k)), names_(std::move(names)) {
  FMMSW_CHECK(k >= 0 && k <= kMaxVars);
  if (names_.empty()) {
    for (int i = 0; i < k; ++i) names_.push_back("X" + std::to_string(i));
  }
  FMMSW_CHECK(static_cast<int>(names_.size()) == k);
}

void Hypergraph::AddEdge(VarSet e) {
  FMMSW_CHECK(vertices_.ContainsAll(e));
  FMMSW_CHECK(!e.empty());
  if (std::find(edges_.begin(), edges_.end(), e) == edges_.end()) {
    edges_.push_back(e);
  }
}

std::vector<int> Hypergraph::IncidentEdges(VarSet x) const {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(edges_.size()); ++i) {
    if (edges_[i].Intersects(x)) out.push_back(i);
  }
  return out;
}

VarSet Hypergraph::U(VarSet x) const {
  VarSet u;
  for (const VarSet& e : edges_) {
    if (e.Intersects(x)) u = u | e;
  }
  return u;
}

VarSet Hypergraph::N(VarSet x) const { return U(x) - x; }

Hypergraph Hypergraph::Eliminate(VarSet x) const {
  FMMSW_DCHECK(vertices_.ContainsAll(x));
  Hypergraph out;
  out.num_vars_ = num_vars_;
  out.names_ = names_;
  out.vertices_ = vertices_ - x;
  const VarSet n = N(x);
  for (const VarSet& e : edges_) {
    if (!e.Intersects(x)) out.AddEdge(e);
  }
  if (!n.empty()) out.AddEdge(n);
  return out;
}

bool Hypergraph::IsClustered() const {
  for (int i : vertices_.Members()) {
    for (int j : vertices_.Members()) {
      if (i >= j) continue;
      const VarSet pair{i, j};
      bool covered = false;
      for (const VarSet& e : edges_) {
        if (e.ContainsAll(pair)) {
          covered = true;
          break;
        }
      }
      if (!covered) return false;
    }
  }
  return true;
}

std::vector<Hypergraph::Ear> Hypergraph::EarOrder() const {
  std::vector<int> left(edges_.size());
  for (size_t e = 0; e < left.size(); ++e) left[e] = static_cast<int>(e);
  std::vector<Ear> ears;
  size_t i = 0;
  while (i < left.size() && left.size() > 1) {
    // Edge i is an ear if the vertices it shares with the other edges all
    // lie in one of them; ears can be removed in any order.
    const VarSet ear = edges_[left[i]];
    VarSet shared;
    for (size_t j = 0; j < left.size(); ++j) {
      if (j != i) shared = shared | (ear & edges_[left[j]]);
    }
    int witness = -1;
    for (size_t j = 0; j < left.size() && witness < 0; ++j) {
      if (j != i && edges_[left[j]].ContainsAll(shared)) witness = left[j];
    }
    if (witness < 0) {
      ++i;
      continue;
    }
    ears.push_back({left[i], shared.empty() ? -1 : witness});
    left.erase(left.begin() + static_cast<std::ptrdiff_t>(i));
    i = 0;
  }
  return ears;
}

Hypergraph Hypergraph::Core() const {
  Hypergraph out = *this;
  for (const Ear& ear : EarOrder()) out.edges_[ear.edge] = VarSet();
  std::erase(out.edges_, VarSet());
  out.vertices_ = VarSet();
  for (VarSet e : out.edges_) out.vertices_ = out.vertices_ | e;
  return out;
}

Hypergraph Hypergraph::WithoutSubsumedEdges() const {
  Hypergraph out;
  out.num_vars_ = num_vars_;
  out.names_ = names_;
  out.vertices_ = vertices_;
  for (const VarSet& e : edges_) {
    bool subsumed = false;
    for (const VarSet& f : edges_) {
      if (f != e && f.ContainsAll(e)) {
        subsumed = true;
        break;
      }
    }
    if (!subsumed) out.AddEdge(e);
  }
  return out;
}

std::string Hypergraph::ToString() const {
  std::string out = "H(V=" + vertices_.ToString(&names_) + ", E={";
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (i > 0) out += ", ";
    out += edges_[i].ToString(&names_);
  }
  out += "})";
  return out;
}

Hypergraph Hypergraph::Triangle() {
  Hypergraph h(3, {"X", "Y", "Z"});
  h.AddEdge({0, 1});
  h.AddEdge({1, 2});
  h.AddEdge({0, 2});
  return h;
}

Hypergraph Hypergraph::DoubleTriangle() {
  // Vars: X=0, Y=1, Z=2, Z'=3. Atoms R(X,Y), S(Y,Z), T(X,Z), S'(Y,Z'),
  // T'(X,Z').
  Hypergraph h(4, {"X", "Y", "Z", "Zp"});
  h.AddEdge({0, 1});
  h.AddEdge({1, 2});
  h.AddEdge({0, 2});
  h.AddEdge({1, 3});
  h.AddEdge({0, 3});
  return h;
}

Hypergraph Hypergraph::Clique(int k) {
  FMMSW_CHECK(k >= 2 && k <= kMaxVars);
  Hypergraph h(k);
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) h.AddEdge({i, j});
  }
  return h;
}

Hypergraph Hypergraph::Cycle(int k) {
  FMMSW_CHECK(k >= 3 && k <= kMaxVars);
  Hypergraph h(k);
  for (int i = 0; i < k; ++i) h.AddEdge({i, (i + 1) % k});
  return h;
}

Hypergraph Hypergraph::Pyramid(int k) {
  FMMSW_CHECK(k >= 2 && k + 1 <= kMaxVars);
  std::vector<std::string> names = {"Y"};
  for (int i = 1; i <= k; ++i) names.push_back("X" + std::to_string(i));
  Hypergraph h(k + 1, std::move(names));
  VarSet base;
  for (int i = 1; i <= k; ++i) {
    h.AddEdge({0, i});
    base.Add(i);
  }
  h.AddEdge(base);
  return h;
}

Hypergraph Hypergraph::LemmaC15() {
  // V = {X,Y,Z,W,L}; E = {XYW, XYL, XZ, YZ, ZWL}.
  Hypergraph h(5, {"X", "Y", "Z", "W", "L"});
  h.AddEdge({0, 1, 3});
  h.AddEdge({0, 1, 4});
  h.AddEdge({0, 2});
  h.AddEdge({1, 2});
  h.AddEdge({2, 3, 4});
  return h;
}

}  // namespace fmmsw
