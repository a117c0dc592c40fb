/**
 * @file
 * Unit tests for the multilevel GP partitioner as a whole (paper
 * Section 3.2): assignment validity, resource feasibility, cut
 * quality on structured graphs, IIbus reporting and determinism.
 */

#include <gtest/gtest.h>

#include "graph/ddg_builder.hh"
#include "machine/configs.hh"
#include "partition/multilevel.hh"
#include "sched/mii.hh"
#include "testing/fixtures.hh"
#include "workload/loop_shapes.hh"
#include "workload/specfp.hh"

using namespace gpsched;
using namespace gpsched::testing;

TEST(Multilevel, AssignsEveryNodeAValidCluster)
{
    LatencyTable lat;
    Ddg g = memHeavyLoop(10, lat);
    MachineConfig m = fourClusterConfig(32, 1);
    GpPartitioner part(m);
    GpPartitionResult r = part.run(g, computeMii(g, m));
    ASSERT_EQ(r.partition.numNodes(), g.numNodes());
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        EXPECT_GE(r.partition.clusterOf(v), 0);
        EXPECT_LT(r.partition.clusterOf(v), 4);
    }
}

TEST(Multilevel, ReportedIiBusMatchesPartition)
{
    LatencyTable lat;
    Ddg g = stencilKernel("st", lat, 7, 100);
    MachineConfig m = twoClusterConfig(32, 1);
    GpPartitioner part(m);
    GpPartitionResult r = part.run(g, computeMii(g, m));
    EXPECT_EQ(r.iiBus, iiBusBound(g, r.partition, m));
    EXPECT_EQ(r.estimate.iiBus, r.iiBus);
}

TEST(Multilevel, ResourceFeasibleWhenPossible)
{
    LatencyTable lat;
    // 8 independent INT ops on 2 clusters at II >= 2: a 4/4 split
    // exists, the partitioner must find one that fits.
    Ddg g = parallelLoop(8, lat);
    MachineConfig m = twoClusterConfig(32, 1);
    GpPartitioner part(m);
    GpPartitionResult r = part.run(g, 2);
    EXPECT_TRUE(r.estimate.resourcesOk);
}

TEST(Multilevel, KeepsChainTogether)
{
    LatencyTable lat;
    // A single dependence chain fits one cluster at a modest II and
    // any cut only hurts: expect zero communications.
    Ddg g = chainLoop(5, lat);
    g.setTripCount(200);
    MachineConfig m = twoClusterConfig(32, 1);
    GpPartitioner part(m);
    GpPartitionResult r = part.run(g, 3);
    EXPECT_EQ(numCommunications(g, r.partition), 0);
    EXPECT_EQ(r.iiBus, 0);
}

TEST(Multilevel, SplitsParallelChainsUnderPressure)
{
    LatencyTable lat;
    // Two independent FP chains; a single cluster of the 2-cluster
    // machine (2 FP units) cannot sustain 8 FP ops at II=2, so the
    // partitioner must use both clusters.
    DdgBuilder b("two-chains", lat);
    for (int c = 0; c < 2; ++c) {
        NodeId prev = b.op(Opcode::FMul);
        for (int i = 0; i < 3; ++i) {
            NodeId v = b.op(i % 2 ? Opcode::FMul : Opcode::FAdd);
            b.flow(prev, v);
            prev = v;
        }
    }
    Ddg g = b.tripCount(100).build();
    MachineConfig m = twoClusterConfig(32, 1);
    GpPartitioner part(m);
    GpPartitionResult r = part.run(g, 2);
    EXPECT_TRUE(r.estimate.resourcesOk);
    EXPECT_FALSE(r.partition.nodesIn(0).empty());
    EXPECT_FALSE(r.partition.nodesIn(1).empty());
    // The ideal split cuts nothing: each chain is independent.
    EXPECT_EQ(numCutEdges(g, r.partition), 0);
}

TEST(Multilevel, NeverCutsARecurrenceNeedlessly)
{
    LatencyTable lat;
    // One recurrence plus abundant independent work: the recurrence
    // nodes must stay in one cluster (cutting them raises RecMII).
    Ddg g = recurrenceKernel("rec", lat, 8, 100);
    MachineConfig m = twoClusterConfig(32, 1);
    GpPartitioner part(m);
    GpPartitionResult r = part.run(g, computeMii(g, m));
    // Nodes 1 (FMul) and 2 (FAdd) form the recurrence.
    EXPECT_EQ(r.partition.clusterOf(1), r.partition.clusterOf(2));
}

TEST(Multilevel, DeterministicForFixedSeed)
{
    LatencyTable lat;
    Rng gen(21);
    Ddg g = randomLoop("r", lat, gen);
    MachineConfig m = fourClusterConfig(32, 1);
    GpPartitioner part(m);
    int mii = computeMii(g, m);
    GpPartitionResult a = part.run(g, mii);
    GpPartitionResult b = part.run(g, mii);
    EXPECT_EQ(a.partition.raw(), b.partition.raw());
    EXPECT_EQ(a.iiBus, b.iiBus);
}

TEST(Multilevel, UnifiedMachineTrivialPartition)
{
    LatencyTable lat;
    Ddg g = diamondLoop(lat);
    MachineConfig m = unifiedConfig(32);
    GpPartitioner part(m);
    GpPartitionResult r = part.run(g, 2);
    for (NodeId v = 0; v < g.numNodes(); ++v)
        EXPECT_EQ(r.partition.clusterOf(v), 0);
    EXPECT_EQ(r.iiBus, 0);
}

TEST(Multilevel, RegisterAwareOptionPlumbsThrough)
{
    LatencyTable lat;
    Ddg g = wideBlockKernel("w", lat, 8, 4, 100);
    MachineConfig m = fourClusterConfig(32, 1);
    int mii = computeMii(g, m);

    GpPartitionerOptions aware;
    aware.registerAware = true;
    GpPartitionResult r = GpPartitioner(m, aware).run(g, mii);
    ASSERT_EQ(r.estimate.regPressure.size(), 4u);
    for (int c = 0; c < 4; ++c)
        EXPECT_GE(r.estimate.regPressure[c], 0);

    GpPartitionResult plain = GpPartitioner(m).run(g, mii);
    EXPECT_TRUE(plain.estimate.regPressure.empty());
}

TEST(Multilevel, HandlesEveryWorkloadShape)
{
    LatencyTable lat;
    auto suite = specFp95Suite(lat);
    MachineConfig m = fourClusterConfig(32, 1);
    GpPartitioner part(m);
    for (const Program &prog : suite) {
        for (const Ddg &g : prog.loops) {
            int mii = computeMii(g, m);
            GpPartitionResult r = part.run(g, mii);
            EXPECT_EQ(r.partition.numNodes(), g.numNodes())
                << prog.name << "/" << g.name();
        }
    }
}
