/**
 * @file
 * Unit tests for the Tarjan SCC decomposition and its recurrence
 * classification.
 */

#include <gtest/gtest.h>

#include <set>

#include "graph/scc.hh"

using namespace gpsched;

namespace
{

/** Chain a -> b -> c. */
Ddg
chain3()
{
    Ddg g;
    NodeId a = g.addNode(Opcode::IAlu);
    NodeId b = g.addNode(Opcode::IAlu);
    NodeId c = g.addNode(Opcode::IAlu);
    g.addEdge(a, b, 1);
    g.addEdge(b, c, 1);
    return g;
}

} // namespace

TEST(Scc, SingletonComponentsOnChain)
{
    Ddg g = chain3();
    SccDecomposition sccs = computeSccs(g);
    EXPECT_EQ(sccs.numComponents(), 3);
    for (int c = 0; c < 3; ++c) {
        EXPECT_EQ(sccs.components[c].size(), 1u);
        EXPECT_FALSE(sccs.isRecurrence[c]);
    }
}

TEST(Scc, ComponentOfIsConsistent)
{
    Ddg g = chain3();
    SccDecomposition sccs = computeSccs(g);
    for (int c = 0; c < sccs.numComponents(); ++c) {
        for (NodeId v : sccs.components[c])
            EXPECT_EQ(sccs.componentOf[v], c);
    }
}

TEST(Scc, TwoNodeCycleIsOneRecurrence)
{
    Ddg g;
    NodeId a = g.addNode(Opcode::FMul);
    NodeId b = g.addNode(Opcode::FAdd);
    g.addEdge(a, b, 4);
    g.addEdge(b, a, 3, 1);
    SccDecomposition sccs = computeSccs(g);
    EXPECT_EQ(sccs.numComponents(), 1);
    EXPECT_TRUE(sccs.isRecurrence[0]);
    EXPECT_EQ(sccs.components[0].size(), 2u);
}

TEST(Scc, SelfLoopIsRecurrence)
{
    Ddg g;
    NodeId a = g.addNode(Opcode::FAdd);
    g.addNode(Opcode::IAlu);
    g.addEdge(a, a, 3, 1);
    SccDecomposition sccs = computeSccs(g);
    EXPECT_EQ(sccs.numComponents(), 2);
    int rec = sccs.componentOf[a];
    EXPECT_TRUE(sccs.isRecurrence[rec]);
    EXPECT_FALSE(sccs.isRecurrence[1 - rec]);
}

TEST(Scc, ComponentsPartitionNodes)
{
    Ddg g;
    for (int i = 0; i < 6; ++i)
        g.addNode(Opcode::IAlu);
    g.addEdge(0, 1, 1);
    g.addEdge(1, 2, 1);
    g.addEdge(2, 0, 1, 1);
    g.addEdge(3, 4, 1);
    SccDecomposition sccs = computeSccs(g);
    std::set<NodeId> seen;
    for (const auto &comp : sccs.components) {
        for (NodeId v : comp) {
            EXPECT_TRUE(seen.insert(v).second)
                << "node in two components";
        }
    }
    EXPECT_EQ(seen.size(), 6u);
}

TEST(Scc, ReverseTopologicalEmissionOrder)
{
    // Tarjan emits an SCC only after all its successors' SCCs; the
    // analysis sweep relies on that. For the chain a->b->c the sink
    // must come first.
    Ddg g = chain3();
    SccDecomposition sccs = computeSccs(g);
    // Component containing node 2 (sink) must be emitted before the
    // component of node 0 (source).
    EXPECT_LT(sccs.componentOf[2], sccs.componentOf[0]);
}

TEST(Scc, BigCycleThroughDistanceEdges)
{
    Ddg g;
    const int n = 5;
    for (int i = 0; i < n; ++i)
        g.addNode(Opcode::FAdd);
    for (int i = 0; i + 1 < n; ++i)
        g.addEdge(i, i + 1, 3);
    g.addEdge(n - 1, 0, 3, 2); // close the loop at distance 2
    SccDecomposition sccs = computeSccs(g);
    EXPECT_EQ(sccs.numComponents(), 1);
    EXPECT_TRUE(sccs.isRecurrence[0]);
}

TEST(Scc, DisconnectedGraph)
{
    Ddg g;
    g.addNode(Opcode::IAlu);
    g.addNode(Opcode::FMul);
    g.addNode(Opcode::Load);
    SccDecomposition sccs = computeSccs(g);
    EXPECT_EQ(sccs.numComponents(), 3);
}

TEST(Scc, EmptyGraph)
{
    Ddg g;
    SccDecomposition sccs = computeSccs(g);
    EXPECT_EQ(sccs.numComponents(), 0);
}

TEST(Scc, GraphKeepsItsDecompositionUntilTheTopologyChanges)
{
    Ddg g = chain3();
    const SccDecomposition &first = g.sccs();
    EXPECT_EQ(first.componentOf, computeSccs(g).componentOf);
    EXPECT_EQ(&g.sccs(), &first);

    // SCCs depend on topology only: a new trip count keeps them.
    g.setTripCount(7);
    EXPECT_EQ(&g.sccs(), &first);

    // Closing the chain into a cycle drops them.
    g.addEdge(2, 0, 1, 1);
    EXPECT_EQ(g.sccs().numComponents(), 1);
    EXPECT_TRUE(g.sccs().isRecurrence[0]);

    NodeId extra = g.addNode(Opcode::Load);
    EXPECT_EQ(g.sccs().numComponents(), 2);
    EXPECT_FALSE(g.sccs().isRecurrence[g.sccs().componentOf[extra]]);
}

TEST(Scc, CopiedGraphComputesItsOwnDecompositionAndMovedOneKeepsIt)
{
    Ddg g = chain3();
    const SccDecomposition &original = g.sccs();
    Ddg copy = g;
    EXPECT_NE(&copy.sccs(), &original);
    EXPECT_EQ(copy.sccs().componentOf, original.componentOf);

    // Assigning over a graph drops the decomposition it held.
    Ddg cycle;
    NodeId a = cycle.addNode(Opcode::FMul);
    cycle.addEdge(a, a, 4, 1);
    ASSERT_TRUE(cycle.sccs().isRecurrence[0]);
    cycle = g;
    EXPECT_EQ(cycle.sccs().numComponents(), 3);
    EXPECT_FALSE(cycle.sccs().isRecurrence[0]);

    // A move takes the decomposition along; the source has none.
    Ddg moved = std::move(g);
    EXPECT_EQ(&moved.sccs(), &original);
    g = chain3();
    g.addEdge(2, 0, 1, 1);
    EXPECT_EQ(g.sccs().numComponents(), 1);
}
