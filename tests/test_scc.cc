/**
 * @file
 * Unit tests for the Tarjan SCC decomposition and its recurrence
 * classification, and for the slot that keeps a graph's analyses.
 */

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "graph/ddg_analysis.hh"
#include "graph/scc.hh"
#include "sched/sms_order.hh"
#include "support/compile_error.hh"
#include "testing/heap_count.hh"

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

/** Ring a -> b -> c -> a, carried on the closing edge: RecMII 3. */
Ddg
ring3()
{
    Ddg g = chain3();
    g.addEdge(2, 0, 1, 1);
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

TEST(GraphAnalyses, SlotKeepsEveryAnalysisUntilTheTopologyChanges)
{
    LatencyTable lat;
    Ddg g = ring3();
    EXPECT_EQ(g.recMii(), 3);
    EXPECT_EQ(g.recMii(), recMii(g));
    const SmsNodeSets &sets = g.smsNodeSets();
    EXPECT_EQ(sets.sets, computeSmsNodeSets(g).sets);

    const IiAnalysis *at3 = g.iiAnalysis(3, lat);
    ASSERT_NE(at3, nullptr);
    DdgAnalysis reference(g, lat, 3);
    EXPECT_TRUE(at3->feasible);
    EXPECT_EQ(at3->ii, 3);
    EXPECT_EQ(at3->scheduleLength, reference.scheduleLength());
    for (NodeId v = 0; v < g.numNodes(); ++v)
        EXPECT_EQ(at3->asap[v], reference.asap(v));
    EXPECT_EQ(at3->order, smsOrder(g, reference, sets));
    EXPECT_EQ(g.iiAnalysis(3, lat), at3);
    const IiAnalysis *at4 = g.iiAnalysis(4, lat);
    ASSERT_NE(at4, nullptr);
    EXPECT_EQ(at4->ii, 4);
    EXPECT_FALSE(g.iiAnalysis(2, lat)->feasible);

    // A new trip count keeps every analysis.
    g.setTripCount(7);
    EXPECT_EQ(&g.smsNodeSets(), &sets);
    EXPECT_EQ(g.iiAnalysis(3, lat), at3);
    EXPECT_EQ(g.iiAnalysis(4, lat), at4);

    // A slower carried edge drops them: RecMII grows to 7, so II 3
    // no longer satisfies the ring.
    g.addEdge(2, 0, 5, 1);
    EXPECT_EQ(g.recMii(), 7);
    EXPECT_FALSE(g.iiAnalysis(3, lat)->feasible);
    EXPECT_TRUE(g.iiAnalysis(7, lat)->feasible);
}

TEST(GraphAnalyses, CopyStartsEmptyAndMoveCarriesTheSlot)
{
    LatencyTable lat;
    Ddg g = ring3();
    const SmsNodeSets &sets = g.smsNodeSets();
    const IiAnalysis *at3 = g.iiAnalysis(3, lat);

    Ddg copy = g;
    EXPECT_NE(&copy.smsNodeSets(), &sets);
    EXPECT_NE(copy.iiAnalysis(3, lat), at3);
    EXPECT_EQ(copy.iiAnalysis(3, lat)->order, at3->order);

    Ddg moved = std::move(g);
    EXPECT_EQ(&moved.smsNodeSets(), &sets);
    EXPECT_EQ(moved.iiAnalysis(3, lat), at3);
}

TEST(GraphAnalyses, EntriesAreKeptForTheFirstLatencyTableOnly)
{
    LatencyTable lat;
    LatencyTable slow;
    slow.setTiming(Opcode::IAlu, OpTiming{4, 1});

    Ddg g = ring3();
    const IiAnalysis *at3 = g.iiAnalysis(3, lat);
    ASSERT_NE(at3, nullptr);
    // An equal table is the same table; another one computes alone.
    LatencyTable same;
    EXPECT_EQ(g.iiAnalysis(3, same), at3);
    EXPECT_EQ(g.iiAnalysis(3, slow), nullptr);
    IiAnalysis local = analyzeIi(g, slow, 3);
    EXPECT_TRUE(local.feasible);
    EXPECT_EQ(local.scheduleLength,
              DdgAnalysis(g, slow, 3).scheduleLength());
    EXPECT_NE(local.scheduleLength, at3->scheduleLength);

    // The first request decides the table.
    Ddg other = ring3();
    EXPECT_NE(other.iiAnalysis(3, slow), nullptr);
    EXPECT_EQ(other.iiAnalysis(3, lat), nullptr);
}

TEST(GraphAnalyses, LookupOfInstalledAnalysesAllocatesNothing)
{
    using gpsched::testing::heapAllocations;
    LatencyTable lat;
    Ddg g = ring3();
    g.recMii();
    g.smsNodeSets();
    g.iiAnalysis(3, lat);
    g.iiAnalysis(4, lat);

    const long before = heapAllocations();
    EXPECT_EQ(g.recMii(), 3);
    EXPECT_EQ(g.sccs().numComponents(), 1);
    EXPECT_EQ(g.smsNodeSets().sets.size(), 1u);
    EXPECT_EQ(g.iiAnalysis(3, lat)->ii, 3);
    EXPECT_EQ(g.iiAnalysis(4, lat)->ii, 4);
    EXPECT_EQ(heapAllocations() - before, 0);
}

TEST(GraphAnalyses, RecMiiErrorIsRaisedOnEveryCall)
{
    Ddg g;
    NodeId a = g.addNode(Opcode::IAlu);
    NodeId b = g.addNode(Opcode::IAlu);
    g.addEdge(a, b, 1);
    g.addEdge(b, a, 1); // distance 0: no II satisfies the cycle
    EXPECT_THROW(g.recMii(), CompileError);
    EXPECT_THROW(g.recMii(), CompileError);
}
