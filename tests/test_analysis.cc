/**
 * @file
 * Unit tests for the modulo-aware longest-path analysis (ASAP/ALAP/
 * slack) and the RecMII computation.
 */

#include <gtest/gtest.h>

#include "graph/ddg_analysis.hh"
#include "graph/ddg_builder.hh"
#include "testing/fixtures.hh"

using namespace gpsched;
using namespace gpsched::testing;

TEST(Analysis, ChainAsapFollowsLatencies)
{
    LatencyTable lat;
    DdgBuilder b("t", lat);
    NodeId ld = b.op(Opcode::Load);   // latency 2
    NodeId mul = b.op(Opcode::FMul);  // latency 4
    NodeId add = b.op(Opcode::FAdd);  // latency 3
    b.flow(ld, mul);
    b.flow(mul, add);
    Ddg g = b.build();

    DdgAnalysis a(g, lat, 1);
    ASSERT_TRUE(a.feasible());
    EXPECT_EQ(a.asap(ld), 0);
    EXPECT_EQ(a.asap(mul), 2);
    EXPECT_EQ(a.asap(add), 6);
    EXPECT_EQ(a.scheduleLength(), 9); // add finishes at 6 + 3
}

TEST(Analysis, AlapEqualsAsapOnCriticalPath)
{
    LatencyTable lat;
    Ddg g = chainLoop(4, lat);
    DdgAnalysis a(g, lat, 1);
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        EXPECT_EQ(a.asap(v), a.alap(v));
        EXPECT_EQ(a.mobility(v), 0);
    }
}

TEST(Analysis, MobilityOfSideChain)
{
    LatencyTable lat;
    DdgBuilder b("t", lat);
    NodeId ld = b.op(Opcode::Load);
    NodeId slow = b.op(Opcode::FDiv); // latency 12
    NodeId fast = b.op(Opcode::IAlu); // latency 1
    NodeId join = b.op(Opcode::FAdd);
    b.flow(ld, slow);
    b.flow(ld, fast);
    b.flow(slow, join);
    b.flow(fast, join);
    Ddg g = b.build();
    DdgAnalysis a(g, lat, 1);
    EXPECT_EQ(a.mobility(slow), 0);
    EXPECT_EQ(a.mobility(fast), 11); // can slide by 12 - 1
}

TEST(Analysis, SlackIsNonNegativeAndZeroOnCriticalEdges)
{
    LatencyTable lat;
    Ddg g = diamondLoop(lat);
    DdgAnalysis a(g, lat, 2);
    ASSERT_TRUE(a.feasible());
    for (EdgeId e = 0; e < g.numEdges(); ++e)
        EXPECT_GE(a.slack(e), 0) << "edge " << e;
    EXPECT_GE(a.maxSlack(), 0);
}

TEST(Analysis, RecurrenceInfeasibleBelowRecMii)
{
    LatencyTable lat;
    Ddg g = recurrenceLoop(lat); // FMul(4) + FAdd(3) cycle, dist 1
    int rec = recMii(g);
    EXPECT_EQ(rec, 7);
    DdgAnalysis below(g, lat, rec - 1);
    EXPECT_FALSE(below.feasible());
    DdgAnalysis at(g, lat, rec);
    EXPECT_TRUE(at.feasible());
}

TEST(Analysis, RecMiiScalesWithDistance)
{
    LatencyTable lat;
    DdgBuilder b("t", lat);
    NodeId mul = b.op(Opcode::FMul);
    NodeId add = b.op(Opcode::FAdd);
    b.flow(mul, add);
    b.carried(add, mul, 2); // distance 2: ceil(7/2) = 4
    Ddg g = b.build();
    EXPECT_EQ(recMii(g), 4);
}

TEST(Analysis, RecMiiOfAcyclicGraphIsOne)
{
    LatencyTable lat;
    EXPECT_EQ(recMii(chainLoop(5, lat)), 1);
    EXPECT_EQ(recMii(diamondLoop(lat)), 1);
}

TEST(Analysis, HigherIiRelaxesCarriedEdges)
{
    LatencyTable lat;
    Ddg g = recurrenceLoop(lat);
    DdgAnalysis a7(g, lat, 7);
    DdgAnalysis a10(g, lat, 10);
    ASSERT_TRUE(a7.feasible());
    ASSERT_TRUE(a10.feasible());
    // The flat schedule cannot get longer when the II grows.
    EXPECT_LE(a10.scheduleLength(), a7.scheduleLength());
}

TEST(Analysis, ExtraEdgeLatencyShiftsAsap)
{
    LatencyTable lat;
    DdgBuilder b("t", lat);
    NodeId a = b.op(Opcode::IAlu);
    NodeId c = b.op(Opcode::IAlu);
    EdgeId e = b.flow(a, c);
    Ddg g = b.build();
    std::vector<int> extra(g.numEdges(), 0);
    extra[e] = 5;
    DdgAnalysis plain(g, lat, 1);
    DdgAnalysis delayed(g, lat, 1, &extra);
    EXPECT_EQ(plain.asap(c), 1);
    EXPECT_EQ(delayed.asap(c), 6);
    EXPECT_EQ(delayed.effectiveLatency(e), 6);
}

TEST(Analysis, ExtraLatencyOnRecurrenceRaisesRecMii)
{
    LatencyTable lat;
    Ddg g = recurrenceLoop(lat);
    std::vector<int> extra(g.numEdges(), 0);
    extra[0] = 2; // the FMul -> FAdd edge inside the cycle
    EXPECT_EQ(recMii(g, &extra), 9);
}

TEST(Analysis, DepthAndHeightSpanScheduleLength)
{
    LatencyTable lat;
    Ddg g = diamondLoop(lat);
    DdgAnalysis a(g, lat, 2);
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        int lat_v = lat.latency(g.node(v).opcode);
        EXPECT_LE(a.depth(v) + lat_v + (a.height(v) - lat_v),
                  a.scheduleLength());
        EXPECT_EQ(a.height(v), a.scheduleLength() - a.alap(v));
    }
}

// Property sweep: for a family of IIs, feasibility is monotone (once
// feasible, always feasible for larger IIs) and ASAP respects every
// edge constraint.
class AnalysisIiSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(AnalysisIiSweep, AsapSatisfiesAllEdges)
{
    LatencyTable lat;
    DdgBuilder b("sweep", lat);
    NodeId mul = b.op(Opcode::FMul);
    NodeId add = b.op(Opcode::FAdd);
    NodeId st = b.op(Opcode::Store);
    b.flow(mul, add);
    b.carried(add, mul, 1);
    b.flow(add, st);
    Ddg g = b.build();

    int ii = GetParam();
    DdgAnalysis a(g, lat, ii);
    if (ii < 7) {
        EXPECT_FALSE(a.feasible());
        return;
    }
    ASSERT_TRUE(a.feasible());
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const auto &edge = g.edge(e);
        EXPECT_GE(a.asap(edge.dst),
                  a.asap(edge.src) + a.effectiveLatency(e));
        EXPECT_GE(a.alap(edge.dst),
                  a.alap(edge.src) + a.effectiveLatency(e));
    }
}

INSTANTIATE_TEST_SUITE_P(IiRange, AnalysisIiSweep,
                         ::testing::Values(1, 2, 3, 5, 6, 7, 8, 12,
                                           20));
