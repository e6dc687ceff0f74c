#include "engine/strategy.h"

#include <cmath>

#include "hypergraph/hypergraph.h"

namespace fmmsw {

const std::vector<StrategyCard>& TriangleCountLadder() {
  static const std::vector<StrategyCard> ladder = {
      {"mm-bitsliced", true, MmKernel::kBitSliced, 3.0, 1},
      {"wcoj", false, MmKernel::kBoolean, 3.0, 0}};
  return ladder;
}

const std::vector<StrategyCard>& TriangleBooleanLadder() {
  // Priced at log2 7 although the bit-packed kernel realizes 3 (see
  // StrategyCard::omega).
  static const std::vector<StrategyCard> ladder = {
      {"mm-boolean", true, MmKernel::kBoolean, std::log2(7.0), 1},
      {"wcoj", false, MmKernel::kBoolean, 3.0, 0}};
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
