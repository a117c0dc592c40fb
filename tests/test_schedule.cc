/**
 * @file
 * Unit tests for PartialSchedule: placement planning and commitment,
 * precedence and resource feasibility, inter-cluster transfers (bus
 * and memory), register lifetimes and the figures of merit.
 */

#include <gtest/gtest.h>

#include "graph/ddg_builder.hh"
#include "machine/configs.hh"
#include "sched/schedule.hh"
#include "sched/validate.hh"
#include "testing/fixtures.hh"
#include "testing/heap_count.hh"

using namespace gpsched;
using namespace gpsched::testing;

namespace
{

/** Two-node producer/consumer loop: Load -> FAdd. */
Ddg
pairLoop(const LatencyTable &lat)
{
    DdgBuilder b("pair", lat);
    NodeId ld = b.op(Opcode::Load, "ld");
    NodeId add = b.op(Opcode::FAdd, "add");
    b.flow(ld, add);
    return b.tripCount(10).build();
}

} // namespace

TEST(Schedule, PlaceSingleNode)
{
    LatencyTable lat;
    Ddg g = pairLoop(lat);
    MachineConfig m = twoClusterConfig(32, 1);
    PartialSchedule ps(g, m, 2);

    PlacementPlan plan;
    ps.planPlacement(0, 0, 5, plan);
    ASSERT_TRUE(plan.feasible);
    EXPECT_EQ(plan.cycle, 5);
    ps.apply(plan);
    EXPECT_TRUE(ps.isScheduled(0));
    EXPECT_EQ(ps.cycleOf(0), 5);
    EXPECT_EQ(ps.clusterOf(0), 0);
    EXPECT_EQ(ps.numScheduled(), 1);
}

TEST(Schedule, PrecedenceRejectsEarlyConsumer)
{
    LatencyTable lat;
    Ddg g = pairLoop(lat);
    MachineConfig m = twoClusterConfig(32, 1);
    PartialSchedule ps(g, m, 2);
    placeAt(ps, 0, 0, 0); // load at 0, result at 2

    EXPECT_FALSE(canPlace(ps, 1, 0, 1));
    PlacementPlan ok;
    ps.planPlacement(1, 0, 2, ok);
    EXPECT_TRUE(ok.feasible);
}

TEST(Schedule, FuConflictRejectsOversubscribedSlot)
{
    LatencyTable lat;
    Ddg g = parallelLoop(3, lat);
    MachineConfig m = twoClusterConfig(32, 1); // 2 INT units
    PartialSchedule ps(g, m, 1);               // single kernel slot
    placeAt(ps, 0, 0, 0);
    placeAt(ps, 1, 0, 0);
    EXPECT_FALSE(canPlace(ps, 2, 0, 0));
    EXPECT_FALSE(canPlace(ps, 2, 0, 7)); // same slot
    EXPECT_TRUE(canPlace(ps, 2, 1, 0));  // other cluster
}

TEST(Schedule, SameClusterNeedsNoTransfer)
{
    LatencyTable lat;
    Ddg g = pairLoop(lat);
    MachineConfig m = twoClusterConfig(32, 1);
    PartialSchedule ps(g, m, 2);
    placeAt(ps, 0, 0, 0);
    PlacementPlan plan;
    ps.planPlacement(1, 0, 2, plan);
    ASSERT_TRUE(plan.feasible);
    EXPECT_TRUE(plan.transfers.empty());
    ps.apply(plan);
    EXPECT_EQ(ps.stats().busTransfers, 0);
}

TEST(Schedule, CrossClusterAllocatesBusTransfer)
{
    LatencyTable lat;
    Ddg g = pairLoop(lat);
    MachineConfig m = twoClusterConfig(32, 1);
    PartialSchedule ps(g, m, 2);
    placeAt(ps, 0, 0, 0); // write at 2

    // Consumer on cluster 1 at cycle 3: bus rides [2,3).
    PlacementPlan plan;
    ps.planPlacement(1, 1, 3, plan);
    ASSERT_TRUE(plan.feasible);
    ASSERT_EQ(plan.transfers.size(), 1u);
    const Transfer &t = plan.transfers[0].transfer;
    EXPECT_TRUE(t.viaBus);
    EXPECT_EQ(t.producer, 0);
    EXPECT_EQ(t.destCluster, 1);
    EXPECT_GE(t.readCycle, 2);
    EXPECT_LE(t.arrivalCycle, 3);
    ps.apply(plan);
    EXPECT_EQ(ps.stats().busTransfers, 1);
    auto v = validateSchedule(g, m, ps);
    EXPECT_TRUE(v) << v.message;
}

TEST(Schedule, CrossClusterTooEarlyIsRejected)
{
    LatencyTable lat;
    Ddg g = pairLoop(lat);
    MachineConfig m = twoClusterConfig(32, 1);
    PartialSchedule ps(g, m, 2);
    placeAt(ps, 0, 0, 0); // write at 2
    // Cycle 2 in another cluster: arrival >= 3 > use -> infeasible.
    EXPECT_FALSE(canPlace(ps, 1, 1, 2));
}

TEST(Schedule, SaturatedBusFallsBackToMemoryComm)
{
    LatencyTable lat;
    // Two producer/consumer pairs crossing clusters at II=1: only
    // one bus slot exists, the second value must go through memory.
    DdgBuilder b("two-pairs", lat);
    NodeId p1 = b.op(Opcode::IAlu);
    NodeId c1 = b.op(Opcode::FAdd);
    b.flow(p1, c1);
    NodeId p2 = b.op(Opcode::IAlu);
    NodeId c2 = b.op(Opcode::FAdd);
    b.flow(p2, c2);
    Ddg g = b.tripCount(10).build();

    MachineConfig m = twoClusterConfig(32, 1);
    PartialSchedule ps(g, m, 1);
    placeAt(ps, p1, 0, 0);
    placeAt(ps, p2, 0, 0);
    PlacementPlan cp1;
    ps.planInWindow(c1, 1, 1, 12, cp1);
    ASSERT_TRUE(cp1.feasible);
    ps.apply(cp1);
    EXPECT_EQ(ps.stats().busTransfers, 1);

    PlacementPlan cp2;
    ps.planInWindow(c2, 1, 1, 12, cp2);
    ASSERT_TRUE(cp2.feasible);
    ps.apply(cp2);
    // The single bus slot of the II=1 kernel is taken: the second
    // transfer must be a CommSt/CommLd pair.
    EXPECT_EQ(ps.stats().busTransfers, 1);
    EXPECT_EQ(ps.stats().memTransfers, 1);
    auto v = validateSchedule(g, m, ps);
    EXPECT_TRUE(v) << v.message;
}

TEST(Schedule, TransferSharedBetweenConsumersInSameCluster)
{
    LatencyTable lat;
    DdgBuilder b("fanout", lat);
    NodeId p = b.op(Opcode::IAlu);
    NodeId c1 = b.op(Opcode::FAdd);
    NodeId c2 = b.op(Opcode::FMul);
    b.flow(p, c1);
    b.flow(p, c2);
    Ddg g = b.tripCount(10).build();

    MachineConfig m = twoClusterConfig(32, 1);
    PartialSchedule ps(g, m, 2);
    placeAt(ps, p, 0, 0);
    placeInWindow(ps, c1, 1, 2, 10);
    placeInWindow(ps, c2, 1, 2, 10);
    // One value, one destination cluster: a single transfer.
    EXPECT_EQ(ps.stats().busTransfers + ps.stats().memTransfers, 1);
    auto v = validateSchedule(g, m, ps);
    EXPECT_TRUE(v) << v.message;
}

TEST(Schedule, TransferReplacedWhenConsumerNeedsItEarlier)
{
    LatencyTable lat;
    DdgBuilder b("replace", lat);
    NodeId p = b.op(Opcode::IAlu);
    NodeId late = b.op(Opcode::FAdd);
    NodeId early = b.op(Opcode::FMul);
    b.flow(p, late);
    b.flow(p, early);
    Ddg g = b.tripCount(10).build();

    MachineConfig m = twoClusterConfig(32, 1);
    PartialSchedule ps(g, m, 4);
    placeAt(ps, p, 0, 0); // write at 1
    // A late consumer first: the transfer may arrive late.
    placeAt(ps, late, 1, 8);
    int arrival_before =
        ps.transfersOf(p).at(1).arrivalCycle;
    // An earlier consumer in the same cluster forces a re-placement.
    PlacementPlan plan;
    ps.planPlacement(early, 1, 2, plan);
    ASSERT_TRUE(plan.feasible);
    ps.apply(plan);
    int arrival_after = ps.transfersOf(p).at(1).arrivalCycle;
    EXPECT_LE(arrival_after, 2);
    EXPECT_LE(arrival_after, arrival_before);
    EXPECT_EQ(ps.transfersOf(p).size(), 1u);
    auto v = validateSchedule(g, m, ps);
    EXPECT_TRUE(v) << v.message;
}

TEST(Schedule, RegisterPressureRejectsPlacement)
{
    LatencyTable lat;
    // A lifetime of L cycles in an II-cycle kernel occupies
    // ceil(L/II) registers at once; with 2 registers per cluster a
    // 10-cycle lifetime at II=4 (3 registers) must be rejected while
    // a 4-cycle one is accepted.
    DdgBuilder b("pressure", lat);
    NodeId p = b.op(Opcode::IAlu);
    NodeId c = b.op(Opcode::Store);
    b.flow(p, c);
    Ddg g = b.tripCount(10).build();

    MachineConfig m("tiny", 2, 4, 4, 4, 4, 1, 1); // 2 regs/cluster
    PartialSchedule ps(g, m, 4);
    placeAt(ps, p, 0, 0); // write at 1
    EXPECT_FALSE(canPlace(ps, c, 0, 10));
    EXPECT_TRUE(canPlace(ps, c, 0, 4));
}

TEST(Schedule, SelfEdgeFeasibleOnlyWhenIiCoversLatency)
{
    LatencyTable lat;
    DdgBuilder b("self", lat);
    NodeId acc = b.op(Opcode::FAdd); // latency 3
    b.carried(acc, acc, 1);
    Ddg g = b.tripCount(10).build();
    MachineConfig m = twoClusterConfig(32, 1);

    PartialSchedule tight(g, m, 2);
    EXPECT_FALSE(canPlace(tight, acc, 0, 0));
    PartialSchedule ok(g, m, 3);
    EXPECT_TRUE(canPlace(ok, acc, 0, 0));
}

TEST(Schedule, PlanInWindowScansBothDirections)
{
    LatencyTable lat;
    Ddg g = parallelLoop(2, lat);
    MachineConfig m("one", 1, 1, 1, 1, 32, 0, 1); // 1 INT unit
    PartialSchedule ps(g, m, 2);
    placeAt(ps, 0, 0, 0);
    // Upward scan skips the busy slot 0.
    PlacementPlan up;
    ps.planInWindow(1, 0, 0, 4, up);
    ASSERT_TRUE(up.feasible);
    EXPECT_EQ(up.cycle, 1);
    // Downward scan from 4 finds 3 -> slot 1 free.
    PlacementPlan down;
    ps.planInWindow(1, 0, 4, 0, down);
    ASSERT_TRUE(down.feasible);
    EXPECT_EQ(down.cycle, 3);
}

TEST(Schedule, NegativeCyclesWrapIntoKernel)
{
    LatencyTable lat;
    Ddg g = parallelLoop(2, lat);
    MachineConfig m("one", 1, 1, 1, 1, 32, 0, 1);
    PartialSchedule ps(g, m, 2);
    placeAt(ps, 0, 0, -4); // slot 0
    EXPECT_FALSE(canPlace(ps, 1, 0, 0));
    EXPECT_TRUE(canPlace(ps, 1, 0, -3));
}

TEST(Schedule, ScheduleLengthSpansOverheadOps)
{
    LatencyTable lat;
    Ddg g = pairLoop(lat);
    MachineConfig m = twoClusterConfig(32, 1);
    PartialSchedule ps(g, m, 2);
    placeAt(ps, 0, 0, 0);
    placeInWindow(ps, 1, 1, 3, 10);
    // load issues at 0, consumer at 3 finishing at 6; the transfer
    // sits in between.
    EXPECT_EQ(ps.scheduleLength(), 6);
}

TEST(Schedule, InsertionFomPrefersTransferFreePlacement)
{
    LatencyTable lat;
    Ddg g = pairLoop(lat);
    MachineConfig m = twoClusterConfig(32, 1);
    PartialSchedule ps(g, m, 2);
    placeAt(ps, 0, 0, 0);
    PlacementPlan local;
    ps.planPlacement(1, 0, 2, local);
    PlacementPlan remote;
    ps.planPlacement(1, 1, 3, remote);
    ASSERT_TRUE(local.feasible);
    ASSERT_TRUE(remote.feasible);
    FigureOfMerit fl = ps.insertionFom(local);
    FigureOfMerit fr = ps.insertionFom(remote);
    EXPECT_TRUE(FigureOfMerit::better(fl, fr, 0.0));
}

TEST(Schedule, GlobalFomReflectsUtilization)
{
    LatencyTable lat;
    Ddg g = pairLoop(lat);
    MachineConfig m = twoClusterConfig(32, 1);
    PartialSchedule ps(g, m, 2);
    FigureOfMerit empty = ps.globalFom();
    EXPECT_DOUBLE_EQ(empty.maxComponent(), 0.0);
    placeAt(ps, 0, 0, 0);
    placeInWindow(ps, 1, 1, 3, 10);
    EXPECT_GT(ps.globalFom().maxComponent(), 0.0);
}

TEST(Schedule, PlannedMemoryExtensionChangesFomArity)
{
    LatencyTable lat;
    Ddg g = pairLoop(lat);
    MachineConfig m = twoClusterConfig(32, 1);
    PartialSchedule global(g, m, 2);
    PartialSchedule planned(g, m, 2, {1, 0});
    // Global variant: bus + 2 mem + 2 regs + 1 remaining = 6.
    EXPECT_EQ(global.globalFom().size(), 6u);
    // Per-cluster variant: bus + 2 mem + 2 regs + 2 remaining = 7.
    EXPECT_EQ(planned.globalFom().size(), 7u);
}

TEST(Schedule, MaxLiveTracksValueLifetime)
{
    LatencyTable lat;
    Ddg g = pairLoop(lat);
    MachineConfig m = twoClusterConfig(32, 1);
    PartialSchedule ps(g, m, 4);
    placeAt(ps, 0, 0, 0); // write at 2
    placeAt(ps, 1, 0, 6); // read at 6
    // Live [2,6]: 5 cycles over a 4-cycle kernel -> 2 registers at
    // one slot.
    EXPECT_EQ(ps.maxLive(0), 2);
    EXPECT_EQ(ps.maxLive(1), 0);
}

TEST(Schedule, ValidatorRejectsIncompleteSchedules)
{
    // Meta-test: the oracle the integration suite leans on must
    // actually fail on a schedule that is not complete.
    LatencyTable lat;
    Ddg g = pairLoop(lat);
    MachineConfig m = twoClusterConfig(32, 1);
    PartialSchedule ps(g, m, 2);
    placeAt(ps, 0, 0, 0);
    auto v = validateSchedule(g, m, ps);
    EXPECT_FALSE(v);
    EXPECT_NE(v.message.find("not scheduled"), std::string::npos)
        << v.message;
}

TEST(Schedule, WarmPlanProbesDoNotAllocate)
{
    // The probed FAdd reads two values from cluster 0 and feeds a
    // consumer already placed there, so each probe plans transfers
    // both ways, groups edges, builds pair changes and checks the
    // register files: every scratch buffer the probe path owns.
    LatencyTable lat;
    DdgBuilder b("probe", lat);
    NodeId p1 = b.op(Opcode::Load, "p1");
    NodeId p2 = b.op(Opcode::IAlu, "p2");
    NodeId x = b.op(Opcode::FAdd, "x");
    NodeId y = b.op(Opcode::FMul, "y");
    b.flow(p1, x);
    b.flow(p2, x);
    b.flow(x, y);
    b.carried(x, x, 1);
    Ddg g = b.tripCount(10).build();
    MachineConfig m = twoClusterConfig(32, 1);
    PartialSchedule ps(g, m, 4);
    placeAt(ps, p1, 0, 0);
    placeAt(ps, p2, 0, 0);
    placeAt(ps, y, 0, 20);

    PlacementPlan plan;
    ASSERT_TRUE(ps.planInWindow(x, 1, 0, 12, plan));
    ASSERT_EQ(plan.transfers.size(), 3u);
    const int warm_cycle = plan.cycle;

    const long before = heapAllocations();
    constexpr int kProbes = 64;
    int feasible = 0;
    for (int i = 0; i < kProbes; ++i)
        feasible += ps.planInWindow(x, 1, 0, 12, plan) ? 1 : 0;
    EXPECT_EQ(heapAllocations() - before, 0);
    EXPECT_EQ(feasible, kProbes);
    EXPECT_EQ(plan.cycle, warm_cycle);
}

using ScheduleDeathTest = ::testing::Test;

TEST(ScheduleDeathTest, ApplyInfeasiblePlanPanics)
{
    LatencyTable lat;
    Ddg g = pairLoop(lat);
    MachineConfig m = twoClusterConfig(32, 1);
    PartialSchedule ps(g, m, 2);
    PlacementPlan bad;
    EXPECT_DEATH(ps.apply(bad), "");
}

TEST(ScheduleDeathTest, DoubleSchedulePanics)
{
    LatencyTable lat;
    Ddg g = pairLoop(lat);
    MachineConfig m = twoClusterConfig(32, 1);
    PartialSchedule ps(g, m, 2);
    placeAt(ps, 0, 0, 0);
    EXPECT_DEATH(canPlace(ps, 0, 0, 1), "");
}
