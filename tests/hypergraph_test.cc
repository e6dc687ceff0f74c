// Tests for hypergraphs, elimination sequences (Definition 4.1 and the
// worked Examples A.1-A.4), and tree-decomposition enumeration.

#include <algorithm>
#include <set>

#include "gtest/gtest.h"
#include "hypergraph/decomposition.h"
#include "hypergraph/hypergraph.h"
#include "query_shapes.h"
#include "util/rational.h"
#include "width/subw.h"

namespace fmmsw {
namespace {

TEST(HypergraphTest, NeighborhoodOperatorsExampleA1) {
  // Example A.1: V = {A,B,C,D,E}, E = {ABC, ABD, CDE}.
  Hypergraph h(5, {"A", "B", "C", "D", "E"});
  h.AddEdge({0, 1, 2});
  h.AddEdge({0, 1, 3});
  h.AddEdge({2, 3, 4});
  EXPECT_EQ(h.IncidentEdges(VarSet{0}).size(), 2u);
  EXPECT_EQ(h.U(VarSet{0}), VarSet({0, 1, 2, 3}));
  EXPECT_EQ(h.N(VarSet{0}), VarSet({1, 2, 3}));
}

TEST(HypergraphTest, SetNeighborhoods) {
  Hypergraph h = Hypergraph::Cycle(4);
  // del({X0, X2}) touches all four edges; U = all vertices.
  EXPECT_EQ(h.IncidentEdges(VarSet{0, 2}).size(), 4u);
  EXPECT_EQ(h.U(VarSet{0, 2}), VarSet::Full(4));
  EXPECT_EQ(h.N(VarSet{0, 2}), VarSet({1, 3}));
}

TEST(HypergraphTest, EliminationSequenceExampleA3) {
  // 4-cycle A,B,C,D with edges AB, BC, CD, DA; order (B, C, D, A).
  Hypergraph h = Hypergraph::Cycle(4);  // 0-1, 1-2, 2-3, 3-0
  Gveo order;
  order.blocks = {VarSet{1}, VarSet{2}, VarSet{3}, VarSet{0}};
  auto steps = EliminationSequence(h, order);
  ASSERT_EQ(steps.size(), 4u);
  // After eliminating B=1: edges {A,C}, {C,D}, {D,A}.
  EXPECT_EQ(steps[0].u, VarSet({0, 1, 2}));
  EXPECT_EQ(steps[1].before.edges().size(), 3u);
  EXPECT_EQ(steps[1].u, VarSet({0, 2, 3}));
  // Third step: only edge {D, A} remains.
  EXPECT_EQ(steps[2].before.edges().size(), 1u);
  EXPECT_EQ(steps[2].u, VarSet({0, 3}));
  // Proposition 4.11: steps 3 and 4 are subsumed by earlier U's.
  EXPECT_TRUE(steps[0].required);
  EXPECT_TRUE(steps[1].required);
  EXPECT_FALSE(steps[2].required);
  EXPECT_FALSE(steps[3].required);
}

TEST(HypergraphTest, GeneralizedEliminationBlocks) {
  Hypergraph h = Hypergraph::Clique(4);
  Gveo g;
  g.blocks = {VarSet{0, 1}, VarSet{2}, VarSet{3}};
  auto steps = EliminationSequence(h, g);
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].u, VarSet::Full(4));
  EXPECT_FALSE(steps[1].required);  // clustered: everything inside U_1
  EXPECT_FALSE(steps[2].required);
}

TEST(HypergraphTest, IsClustered) {
  EXPECT_TRUE(Hypergraph::Triangle().IsClustered());
  EXPECT_TRUE(Hypergraph::Clique(5).IsClustered());
  EXPECT_TRUE(Hypergraph::Pyramid(3).IsClustered());
  EXPECT_TRUE(Hypergraph::Pyramid(5).IsClustered());
  EXPECT_FALSE(Hypergraph::Cycle(4).IsClustered());
  EXPECT_FALSE(Hypergraph::Cycle(6).IsClustered());
  EXPECT_FALSE(Hypergraph::DoubleTriangle().IsClustered());
  // Every pair of Lemma C.15's five vertices co-occurs in one of
  // {XYW, XYL, XZ, YZ, ZWL}: the hypergraph is clustered, so the exact
  // Eq. (40) path applies to it.
  EXPECT_TRUE(Hypergraph::LemmaC15().IsClustered());
}

// Reference for alpha-acyclicity: fhtw = 1, i.e. some tree decomposition
// has every bag inside one edge (a fractional edge cover of weight 1).
bool AcyclicByTds(const Hypergraph& h) {
  for (const TreeDecomposition& td : EnumerateTds(h)) {
    bool all_in_one_edge = true;
    for (VarSet bag : td.bags) {
      all_in_one_edge &= FractionalEdgeCover(h, bag) == Rational(1);
    }
    if (all_in_one_edge) return true;
  }
  return false;
}

TEST(HypergraphTest, EarRemovalMatchesTreeDecompositionReference) {
  std::vector<QueryShape> shapes = QueryShapeTable();
  shapes.push_back({"triangle", Hypergraph::Triangle(), false});
  shapes.push_back({"clique5", Hypergraph::Clique(5), false});
  shapes.push_back({"cycle6", Hypergraph::Cycle(6), false});
  // Example A.1 loses E as an ear, then ABC, ABD, CD form a cycle.
  shapes.push_back({"example_a1", FromEdges(5, {{0, 1, 2}, {0, 1, 3},
                                                {2, 3, 4}}), false});
  // Two components: a join forest.
  shapes.push_back({"disjoint_edges", FromEdges(4, {{0, 1}, {2, 3}}), true});
  shapes.push_back({"triangle_and_edge",
                    FromEdges(5, {{0, 1}, {1, 2}, {0, 2}, {3, 4}}), false});
  // A join tree ABC - BCD - DE with a nested edge.
  shapes.push_back({"join_tree", FromEdges(5, {{0, 1, 2}, {1, 2, 3},
                                               {3, 4}, {1, 2}}), true});
  for (const QueryShape& s : shapes) {
    EXPECT_EQ(s.h.Core().edges().size() <= 1, s.acyclic) << s.name;
    EXPECT_EQ(AcyclicByTds(s.h), s.acyclic) << s.name;
  }
}

TEST(HypergraphTest, EarOrderKeepsEdgeNumberingAndCoreKeepsOrder) {
  // A triangle with the path Z - X3 - X4 hanging off Z: X3X4 leaves into
  // ZX3, then ZX3 into YZ, the first edge holding Z.
  const Hypergraph pendant = TrianglePendantQuery();
  const std::vector<Hypergraph::Ear> ears = pendant.EarOrder();
  ASSERT_EQ(ears.size(), 2u);
  EXPECT_EQ(ears[0].edge, 4);
  EXPECT_EQ(ears[0].witness, 3);
  EXPECT_EQ(ears[1].edge, 3);
  EXPECT_EQ(ears[1].witness, 1);
  const Hypergraph core = pendant.Core();
  EXPECT_EQ(core.vertices(), Hypergraph::Triangle().vertices());
  EXPECT_EQ(core.edges(), Hypergraph::Triangle().edges());
  EXPECT_EQ(core.num_vars(), 5);
  // An edge sharing no vertex leaves with no witness.
  const Hypergraph apart = FromEdges(4, {{0, 1}, {2, 3}});
  ASSERT_EQ(apart.EarOrder().size(), 1u);
  EXPECT_EQ(apart.EarOrder()[0].edge, 0);
  EXPECT_EQ(apart.EarOrder()[0].witness, -1);
  EXPECT_EQ(apart.Core().vertices(), VarSet({2, 3}));
  // No ears: the core is the hypergraph itself.
  EXPECT_TRUE(Hypergraph::Pyramid(3).EarOrder().empty());
  EXPECT_EQ(Hypergraph::Pyramid(3).Core().edges(),
            Hypergraph::Pyramid(3).edges());
}

TEST(HypergraphTest, EliminatePreservesIndices) {
  Hypergraph h = Hypergraph::Triangle();
  Hypergraph h2 = h.Eliminate(VarSet{1});  // eliminate Y
  EXPECT_EQ(h2.vertices(), VarSet({0, 2}));
  // R(X,Y) and S(Y,Z) replaced by {X,Z}; T(X,Z) already there -> one edge.
  EXPECT_EQ(h2.edges().size(), 1u);
  EXPECT_EQ(h2.edges()[0], VarSet({0, 2}));
}

TEST(HypergraphTest, WithoutSubsumedEdges) {
  Hypergraph h(3);
  h.AddEdge({0, 1, 2});
  h.AddEdge({0, 1});
  h.AddEdge({2});
  Hypergraph slim = h.WithoutSubsumedEdges();
  EXPECT_EQ(slim.edges().size(), 1u);
  EXPECT_EQ(slim.edges()[0], VarSet::Full(3));
}

TEST(GveoTest, AllVeosCount) {
  EXPECT_EQ(AllVeos(Hypergraph::Triangle()).size(), 6u);
  EXPECT_EQ(AllVeos(Hypergraph::Cycle(4)).size(), 24u);
}

TEST(GveoTest, AllGveosFubiniCounts) {
  // Ordered set partitions: Fubini numbers 13, 75, 541.
  EXPECT_EQ(AllGveos(Hypergraph::Triangle()).size(), 13u);
  EXPECT_EQ(AllGveos(Hypergraph::Cycle(4)).size(), 75u);
  EXPECT_EQ(AllGveos(Hypergraph::Clique(5)).size(), 541u);
}

TEST(GveoTest, BlocksPartitionVertices) {
  for (const Gveo& g : AllGveos(Hypergraph::Cycle(4))) {
    VarSet all;
    for (const VarSet& b : g.blocks) {
      EXPECT_FALSE(b.empty());
      EXPECT_FALSE(all.Intersects(b));
      all = all | b;
    }
    EXPECT_EQ(all, VarSet::Full(4));
  }
}

TEST(TdTest, FourCycleHasTwoTds) {
  // Example A.2: exactly the two bag-pairs {ABC, ACD} and {BCD, ABD}.
  auto tds = EnumerateTds(Hypergraph::Cycle(4));
  ASSERT_EQ(tds.size(), 2u);
  std::set<std::set<uint32_t>> got;
  for (const auto& td : tds) {
    std::set<uint32_t> bags;
    for (VarSet b : td.bags) bags.insert(b.mask());
    got.insert(bags);
  }
  std::set<std::set<uint32_t>> want = {
      {VarSet({0, 1, 2}).mask(), VarSet({0, 2, 3}).mask()},
      {VarSet({1, 2, 3}).mask(), VarSet({0, 1, 3}).mask()}};
  EXPECT_EQ(got, want);
}

TEST(TdTest, TriangleHasOnlyTrivialTd) {
  auto tds = EnumerateTds(Hypergraph::Triangle());
  ASSERT_EQ(tds.size(), 1u);
  ASSERT_EQ(tds[0].bags.size(), 1u);
  EXPECT_EQ(tds[0].bags[0], VarSet::Full(3));
}

TEST(TdTest, CliqueHasOnlyTrivialTd) {
  for (int k = 3; k <= 6; ++k) {
    auto tds = EnumerateTds(Hypergraph::Clique(k));
    ASSERT_EQ(tds.size(), 1u) << "k=" << k;
    EXPECT_EQ(tds[0].bags[0], VarSet::Full(k));
  }
}

TEST(TdTest, AllEnumeratedTdsAreValid) {
  for (const Hypergraph& h :
       {Hypergraph::Triangle(), Hypergraph::Cycle(4), Hypergraph::Cycle(5),
        Hypergraph::Cycle(6), Hypergraph::Pyramid(3),
        Hypergraph::DoubleTriangle(), Hypergraph::LemmaC15()}) {
    for (const auto& td : EnumerateTds(h)) {
      EXPECT_TRUE(IsValidTd(h, td)) << h.ToString();
    }
  }
}

TEST(TdTest, DoubleTriangleBestTdHasTriangleBags) {
  // Section 1.1: Q_double-triangle decomposes into bags {X,Y,Z}, {X,Y,Z'}.
  auto tds = EnumerateTds(Hypergraph::DoubleTriangle());
  bool found = false;
  for (const auto& td : tds) {
    std::set<uint32_t> bags;
    for (VarSet b : td.bags) bags.insert(b.mask());
    if (bags == std::set<uint32_t>{VarSet({0, 1, 2}).mask(),
                                   VarSet({0, 1, 3}).mask()}) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(TdTest, CycleBagCountsGrow) {
  // k-cycle TDs have ceil(k/2) ... bags; just sanity-check the counts grow
  // and every TD is non-redundant (no bag contains another).
  for (int k = 4; k <= 7; ++k) {
    auto tds = EnumerateTds(Hypergraph::Cycle(k));
    EXPECT_GE(tds.size(), 2u);
    for (const auto& td : tds) {
      for (const VarSet& a : td.bags) {
        for (const VarSet& b : td.bags) {
          if (a != b) {
            EXPECT_FALSE(a.ContainsAll(b));
          }
        }
      }
    }
  }
}

TEST(TdTest, TreeEdgesFormTree) {
  auto tds = EnumerateTds(Hypergraph::Cycle(6));
  for (const auto& td : tds) {
    auto edges = TreeEdges(td);
    EXPECT_EQ(edges.size(), td.bags.size() - 1);
  }
}

}  // namespace
}  // namespace fmmsw
