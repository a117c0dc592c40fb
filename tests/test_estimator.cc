/**
 * @file
 * Unit tests for the partition execution-time estimator (paper
 * Section 3.2.2): resource utilization, overload detection, the
 * bus-bound and communication-delay aware execution time, and the
 * tie-break metrics.
 */

#include <gtest/gtest.h>

#include "graph/ddg_builder.hh"
#include "machine/configs.hh"
#include "machine/machine_desc.hh"
#include "partition/estimator.hh"
#include "testing/fixtures.hh"

using namespace gpsched;
using namespace gpsched::testing;

TEST(Estimator, UtilizationCountsOccupancy)
{
    LatencyTable lat;
    Ddg g = parallelLoop(4, lat); // 4 IAlu ops
    MachineConfig m = twoClusterConfig(32, 1);
    PartitionEstimator est(g, m, 2);

    Partition all0(g.numNodes(), 2, 0);
    // 4 ops on 2 INT units over II=2: exactly 100%.
    PartitionEstimate e = est.evaluate(all0);
    EXPECT_EQ(e.peakUtilPermille, 1000);
    EXPECT_TRUE(e.resourcesOk);

    Partition split(g.numNodes(), 2, 0);
    split.assign(0, 1);
    split.assign(1, 1);
    EXPECT_EQ(est.evaluate(split).peakUtilPermille, 500);
}

TEST(Estimator, OverloadDetected)
{
    LatencyTable lat;
    Ddg g = parallelLoop(5, lat);
    MachineConfig m = twoClusterConfig(32, 1);
    PartitionEstimator est(g, m, 2);
    Partition all0(g.numNodes(), 2, 0);
    EXPECT_FALSE(est.evaluate(all0).resourcesOk);

    Partition split(g.numNodes(), 2, 0);
    split.assign(0, 1);
    split.assign(1, 1);
    EXPECT_TRUE(est.evaluate(split).resourcesOk);
}

TEST(Estimator, PerClusterResMii)
{
    LatencyTable lat;
    Ddg g = parallelLoop(6, lat);
    MachineConfig m = twoClusterConfig(32, 1);
    PartitionEstimator est(g, m, 1);
    Partition all0(g.numNodes(), 2, 0);
    EXPECT_EQ(est.evaluate(all0).iiEff, 3); // 6 ops / 2 units
    Partition split(g.numNodes(), 2, 0);
    for (int i = 0; i < 3; ++i)
        split.assign(i, 1);
    EXPECT_EQ(est.evaluate(split).iiEff, 2);
}

TEST(Estimator, MissingUnitClassIsOverloadAtAnyIi)
{
    LatencyTable lat;
    Ddg g = recurrenceLoop(lat); // FMul + FAdd
    // Only c0 has FP units.
    MachineConfig m = loadMachineFile(
        GPSCHED_SOURCE_DIR "/examples/machines/fpless_3c.machine");
    PartitionEstimator est(g, m, 16);

    Partition home(g.numNodes(), 3, 0);
    PartitionEstimate ok = est.evaluate(home);
    EXPECT_TRUE(ok.resourcesOk);
    EXPECT_LT(ok.peakUtilPermille, 1000);

    Partition stranded(g.numNodes(), 3, 0);
    stranded.assign(1, 1); // an FP op on a cluster with no FP unit
    PartitionEstimate e = est.evaluate(stranded);
    EXPECT_FALSE(e.resourcesOk);
    EXPECT_EQ(e.peakUtilPermille, 1000000);
    EXPECT_GT(e.execTime, ok.execTime);
}

TEST(Estimator, ExecTimeUsesTripCount)
{
    LatencyTable lat;
    Ddg g = chainLoop(3, lat);
    g.setTripCount(100);
    MachineConfig m = twoClusterConfig(32, 1);
    // II=2: 3 unit-latency ops fit the 2 INT units of one cluster.
    PartitionEstimator est(g, m, 2);
    Partition p(g.numNodes(), 2, 0);
    PartitionEstimate e = est.evaluate(p);
    ASSERT_TRUE(e.resourcesOk);
    EXPECT_EQ(e.iiEff, 2);
    EXPECT_EQ(e.pathLength, 3);
    EXPECT_EQ(e.execTime, 99 * 2 + 3);
}

TEST(Estimator, CutEdgesSlowTheEstimate)
{
    LatencyTable lat;
    Ddg g = chainLoop(4, lat);
    MachineConfig m = twoClusterConfig(32, 1);
    PartitionEstimator est(g, m, 2);

    Partition together(g.numNodes(), 2, 0);
    Partition split(g.numNodes(), 2, 0);
    split.assign(2, 1);
    split.assign(3, 1);

    PartitionEstimate te = est.evaluate(together);
    PartitionEstimate se = est.evaluate(split);
    // The split adds a bus delay on the chain: longer critical path.
    EXPECT_GT(se.pathLength, te.pathLength);
    EXPECT_GT(se.execTime, te.execTime);
    EXPECT_EQ(se.cutEdges, 1);
    EXPECT_EQ(te.cutEdges, 0);
}

TEST(Estimator, BusBoundRaisesIiEff)
{
    LatencyTable lat;
    // Many independent producer->consumer pairs, all cut: NComm
    // exceeds the input II, so IIbus dominates iiEff.
    DdgBuilder b("comm-heavy", lat);
    std::vector<NodeId> sinks;
    for (int i = 0; i < 6; ++i) {
        NodeId p = b.op(Opcode::IAlu);
        NodeId c = b.op(Opcode::FAdd);
        b.flow(p, c);
        sinks.push_back(c);
    }
    Ddg g = b.tripCount(50).build();
    MachineConfig m = twoClusterConfig(32, 1);
    PartitionEstimator est(g, m, 2);

    Partition split(g.numNodes(), 2, 0);
    for (NodeId c : sinks)
        split.assign(c, 1);
    PartitionEstimate e = est.evaluate(split);
    EXPECT_EQ(e.iiBus, 6);
    EXPECT_GE(e.iiEff, 6);
}

TEST(Estimator, CutRecurrenceRaisesIiEff)
{
    LatencyTable lat;
    Ddg g = recurrenceLoop(lat); // RecMII 7 uncut
    MachineConfig m = twoClusterConfig(32, 1);
    PartitionEstimator est(g, m, 7);
    Partition cut(g.numNodes(), 2, 0);
    cut.assign(1, 1); // split the 2-op recurrence
    PartitionEstimate e = est.evaluate(cut);
    // Both cycle edges gain the bus latency: RecMII grows to 9.
    EXPECT_EQ(e.iiEff, 9);
    Partition together(g.numNodes(), 2, 0);
    EXPECT_EQ(est.evaluate(together).iiEff, 7);
}

TEST(Estimator, CutSlackTieBreakComputed)
{
    LatencyTable lat;
    Ddg g = diamondLoop(lat);
    MachineConfig m = twoClusterConfig(32, 1);
    PartitionEstimator est(g, m, 3);
    Partition p(g.numNodes(), 2, 0);
    p.assign(4, 1); // store alone
    PartitionEstimate e = est.evaluate(p);
    EXPECT_EQ(e.cutEdges, 1);
    EXPECT_GE(e.cutSlackTotal, 0);
}

TEST(Estimator, RegisterAwareReportsPressure)
{
    LatencyTable lat;
    // One producer with many same-cluster consumers spread over a
    // long ASAP span: a long lifetime the estimator must see.
    DdgBuilder b("pressure", lat);
    NodeId src = b.op(Opcode::Load, "src");
    NodeId prev = src;
    for (int i = 0; i < 6; ++i) {
        NodeId v = b.op(Opcode::FAdd);
        b.flow(prev, v);
        b.flow(src, v); // src stays live to the end of the chain
        prev = v;
    }
    Ddg g = b.tripCount(100).build();
    MachineConfig m = twoClusterConfig(32, 1);

    PartitionEstimator plain(g, m, 2);
    PartitionEstimator aware(g, m, 2, true);
    Partition p(g.numNodes(), 2, 0);
    EXPECT_TRUE(plain.evaluate(p).regPressure.empty());
    PartitionEstimate e = aware.evaluate(p);
    ASSERT_EQ(e.regPressure.size(), 2u);
    // src lives ~18 cycles at II=2: about 9 registers at once.
    EXPECT_GE(e.regPressure[0], 8);
    EXPECT_EQ(e.regPressure[1], 0);
}

TEST(Estimator, RegisterOverflowPenalizesExecTime)
{
    LatencyTable lat;
    DdgBuilder b("overflow", lat);
    NodeId src = b.op(Opcode::Load, "src");
    NodeId prev = src;
    for (int i = 0; i < 10; ++i) {
        NodeId v = b.op(Opcode::FAdd);
        b.flow(prev, v);
        b.flow(src, v);
        prev = v;
    }
    Ddg g = b.tripCount(100).build();
    // Tiny register file: 4 per cluster.
    MachineConfig m("small", 2, 2, 2, 2, 8, 1, 1);

    PartitionEstimator plain(g, m, 2);
    PartitionEstimator aware(g, m, 2, true);
    Partition p(g.numNodes(), 2, 0);
    PartitionEstimate pe = plain.evaluate(p);
    PartitionEstimate ae = aware.evaluate(p);
    ASSERT_FALSE(ae.regPressure.empty());
    ASSERT_GT(ae.regPressure[0], m.regsInCluster(0));
    EXPECT_GT(ae.execTime, pe.execTime);
}

TEST(Estimator, OverloadedPartitionRanksBehindAnyFeasibleOne)
{
    LatencyTable lat;
    Ddg g = parallelLoop(8, lat);
    MachineConfig m = fourClusterConfig(32, 1);
    PartitionEstimator est(g, m, 2);
    Partition overload(g.numNodes(), 4, 0);
    Partition spread(g.numNodes(), 4, 0);
    for (int i = 0; i < 8; ++i)
        spread.assign(i, i % 4);
    EXPECT_GT(est.evaluate(overload).execTime,
              est.evaluate(spread).execTime);
}
