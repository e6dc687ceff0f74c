#include "engine/strategy.h"

#include <cmath>

#include "hypergraph/hypergraph.h"

namespace fmmsw {

namespace {

// log2(7), the Strassen exponent: the degree split's MM price and the
// kernel must agree (see TriangleMm's omega parameter).
double StrassenOmega() { return std::log2(7.0); }

}  // namespace

const std::vector<StrategyCard>& TriangleCountLadder() {
  static const std::vector<StrategyCard> ladder = [] {
    std::vector<StrategyCard> l;
    l.push_back({"mm-strassen", true, MmKernel::kStrassen, StrassenOmega(), 3});
    l.push_back({"gemm-blocked", true, MmKernel::kNaive, 3.0, 2});
    l.push_back({"mm-bitsliced", true, MmKernel::kBitSliced, 3.0, 1});
    l.push_back({"wcoj", false, MmKernel::kBoolean, 3.0, 0});
    return l;
  }();
  return ladder;
}

const std::vector<StrategyCard>& TriangleBooleanLadder() {
  static const std::vector<StrategyCard> ladder = [] {
    std::vector<StrategyCard> l;
    l.push_back({"mm-strassen", true, MmKernel::kStrassen, StrassenOmega(), 2});
    l.push_back({"mm-boolean", true, MmKernel::kBoolean, 3.0, 1});
    l.push_back({"wcoj", false, MmKernel::kBoolean, 3.0, 0});
    return l;
  }();
  return ladder;
}

const std::vector<StrategyCard>& BooleanLadderFor(const Hypergraph& h) {
  static const std::vector<StrategyCard> wcoj = {
      {"wcoj", false, MmKernel::kBoolean, 3.0, 0}};
  return IsTriangleQuery(h.Core()) ? TriangleBooleanLadder() : wcoj;
}

bool IsTriangleQuery(const Hypergraph& h) {
  const Hypergraph t = Hypergraph::Triangle();
  if (h.vertices() != t.vertices()) return false;
  if (h.edges().size() != t.edges().size()) return false;
  for (size_t i = 0; i < t.edges().size(); ++i) {
    if (h.edges()[i] != t.edges()[i]) return false;
  }
  return true;
}

}  // namespace fmmsw
