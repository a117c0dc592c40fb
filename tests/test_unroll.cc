/**
 * @file
 * Unit tests for the loop-unrolling transformation: edge/distance
 * arithmetic, trip-count folding, RecMII scaling, and end-to-end
 * schedulability of unrolled bodies.
 */

#include <gtest/gtest.h>

#include "graph/ddg_analysis.hh"
#include "graph/ddg_builder.hh"
#include "graph/unroll.hh"
#include "machine/configs.hh"
#include "sched/mii.hh"
#include "sched/validate.hh"
#include "testing/fixtures.hh"
#include "workload/loop_shapes.hh"

using namespace gpsched;
using namespace gpsched::testing;

TEST(Unroll, FactorOneIsACopy)
{
    LatencyTable lat;
    Ddg g = diamondLoop(lat);
    Ddg u = unrollLoop(g, 1);
    EXPECT_EQ(u.numNodes(), g.numNodes());
    EXPECT_EQ(u.numEdges(), g.numEdges());
    EXPECT_EQ(u.tripCount(), g.tripCount());
    EXPECT_EQ(u.name(), g.name());
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        EXPECT_EQ(u.edge(e).src, g.edge(e).src);
        EXPECT_EQ(u.edge(e).dst, g.edge(e).dst);
        EXPECT_EQ(u.edge(e).distance, g.edge(e).distance);
    }
}

TEST(Unroll, ReplicatesNodesAndEdges)
{
    LatencyTable lat;
    Ddg g = diamondLoop(lat);
    Ddg u = unrollLoop(g, 3);
    EXPECT_EQ(u.numNodes(), 3 * g.numNodes());
    EXPECT_EQ(u.numEdges(), 3 * g.numEdges());
    EXPECT_EQ(u.name(), "diamond_u3");
}

TEST(Unroll, CopyLabelsAndOpcodes)
{
    LatencyTable lat;
    Ddg g = diamondLoop(lat);
    Ddg u = unrollLoop(g, 2);
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        EXPECT_EQ(u.node(v).opcode, g.node(v).opcode);
        EXPECT_EQ(u.node(v + g.numNodes()).opcode, g.node(v).opcode);
        EXPECT_EQ(u.node(v).label, g.node(v).label + "#0");
        EXPECT_EQ(u.node(v + g.numNodes()).label,
                  g.node(v).label + "#1");
    }
}

TEST(Unroll, IntraIterationEdgesStayWithinCopies)
{
    LatencyTable lat;
    Ddg g = chainLoop(3, lat);
    Ddg u = unrollLoop(g, 2);
    // Each copy keeps its own chain at distance 0.
    for (EdgeId e = 0; e < u.numEdges(); ++e) {
        const DdgEdge &edge = u.edge(e);
        EXPECT_EQ(edge.src / g.numNodes(), edge.dst / g.numNodes());
        EXPECT_EQ(edge.distance, 0);
    }
}

TEST(Unroll, CarriedEdgesCrossCopiesWithScaledDistance)
{
    LatencyTable lat;
    // Self recurrence at distance 1: unrolled by 2 it becomes
    // copy0 -> copy1 at distance 0 and copy1 -> copy0 at distance 1.
    DdgBuilder b("acc", lat);
    NodeId acc = b.op(Opcode::FAdd, "x");
    b.carried(acc, acc, 1);
    Ddg g = b.tripCount(100).build();
    Ddg u = unrollLoop(g, 2);
    ASSERT_EQ(u.numEdges(), 2);
    const DdgEdge &forward = u.edge(0); // from copy 0
    const DdgEdge &wrap = u.edge(1);    // from copy 1
    EXPECT_EQ(forward.src, 0);
    EXPECT_EQ(forward.dst, 1);
    EXPECT_EQ(forward.distance, 0);
    EXPECT_EQ(wrap.src, 1);
    EXPECT_EQ(wrap.dst, 0);
    EXPECT_EQ(wrap.distance, 1);
}

TEST(Unroll, DistanceTwoUnrolledByTwoStaysParallel)
{
    LatencyTable lat;
    // distance 2, unroll 2: copy k feeds copy k at distance 1 —
    // two independent interleaved recurrences, as expected.
    DdgBuilder b("d2", lat);
    NodeId acc = b.op(Opcode::FAdd, "x");
    b.carried(acc, acc, 2);
    Ddg g = b.tripCount(100).build();
    Ddg u = unrollLoop(g, 2);
    for (EdgeId e = 0; e < u.numEdges(); ++e) {
        EXPECT_EQ(u.edge(e).src, u.edge(e).dst);
        EXPECT_EQ(u.edge(e).distance, 1);
    }
}

TEST(Unroll, TripCountRoundsUp)
{
    LatencyTable lat;
    Ddg g = chainLoop(2, lat);
    g.setTripCount(101);
    EXPECT_EQ(unrollLoop(g, 2).tripCount(), 51);
    EXPECT_EQ(unrollLoop(g, 4).tripCount(), 26);
    g.setTripCount(1);
    EXPECT_EQ(unrollLoop(g, 3).tripCount(), 1);
}

TEST(Unroll, RecMiiScalesWithFactor)
{
    LatencyTable lat;
    // Per-original-iteration recurrence cost is invariant: the
    // unrolled RecMII covers `factor` original iterations.
    Ddg g = recurrenceLoop(lat); // RecMII 7
    for (int factor : {1, 2, 3}) {
        Ddg u = unrollLoop(g, factor);
        EXPECT_EQ(recMii(u), 7 * factor) << "factor " << factor;
    }
}

TEST(Unroll, UnrolledBodyAmortizesResMiiRounding)
{
    LatencyTable lat;
    // 5 memory ops on a 4-port machine: ResMII = ceil(5/4) = 2 wastes
    // 3 slots per iteration; unrolled by 4, ResMII = ceil(20/4) = 5
    // serves 4 iterations (1.25 per original iteration).
    Ddg g = memHeavyLoop(4, lat); // 4 loads + 1 store = 5 mem ops
    MachineConfig m = unifiedConfig(64);
    EXPECT_EQ(resMii(g, m), 2);
    EXPECT_EQ(resMii(unrollLoop(g, 4), m), 5);
}

TEST(Unroll, UnrolledLoopSchedulesAndValidates)
{
    LatencyTable lat;
    Ddg g = dotProductKernel("dot", lat, 1, 100);
    MachineConfig m = twoClusterConfig(32, 1);
    for (int factor : {2, 3}) {
        Ddg u = unrollLoop(g, factor);
        auto ps = scheduleLoop(u, m);
        ASSERT_TRUE(ps.has_value()) << "factor " << factor;
        auto v = validateSchedule(u, m, *ps);
        EXPECT_TRUE(v) << "factor " << factor << ": " << v.message;
    }
}

using UnrollDeathTest = ::testing::Test;

TEST(UnrollDeathTest, FactorZeroPanics)
{
    LatencyTable lat;
    Ddg g = chainLoop(2, lat);
    EXPECT_DEATH(unrollLoop(g, 0), "");
}
