/**
 * @file
 * Unit tests for the integrated modulo scheduler (Section 3.3):
 * complete schedules at MII on simple loops, cluster policies, and
 * failure reporting at infeasible IIs. Every produced schedule is
 * checked by the independent validator.
 */

#include <string>

#include <gtest/gtest.h>

#include "graph/ddg_analysis.hh"
#include "machine/configs.hh"
#include "partition/multilevel.hh"
#include "sched/mii.hh"
#include "sched/uracam.hh"
#include "sched/validate.hh"
#include "testing/fixtures.hh"
#include "workload/loop_shapes.hh"

using namespace gpsched;
using namespace gpsched::testing;

TEST(Uracam, SchedulesChainAtMiiOnUnified)
{
    LatencyTable lat;
    Ddg g = chainLoop(5, lat);
    MachineConfig m = unifiedConfig(32);
    int mii = computeMii(g, m);
    PartialSchedule ps(g, m, mii);
    ModuloScheduler sched(g, m);
    ASSERT_TRUE(sched.schedule(ps, ClusterPolicy::FreeChoice, nullptr));
    EXPECT_EQ(ps.numScheduled(), g.numNodes());
    auto v = validateSchedule(g, m, ps);
    EXPECT_TRUE(v) << v.message;
}

TEST(Uracam, RecurrenceScheduledAtRecMii)
{
    LatencyTable lat;
    Ddg g = recurrenceLoop(lat);
    MachineConfig m = twoClusterConfig(32, 1);
    int mii = computeMii(g, m);
    EXPECT_EQ(mii, 7);
    PartialSchedule ps(g, m, mii);
    ModuloScheduler sched(g, m);
    ASSERT_TRUE(sched.schedule(ps, ClusterPolicy::FreeChoice, nullptr));
    // The recurrence kernel distance must be exactly honored.
    auto v = validateSchedule(g, m, ps);
    EXPECT_TRUE(v) << v.message;
}

TEST(Uracam, FailsBelowRecMii)
{
    LatencyTable lat;
    Ddg g = recurrenceLoop(lat);
    MachineConfig m = twoClusterConfig(32, 1);
    PartialSchedule ps(g, m, 6);
    ModuloScheduler sched(g, m);
    EXPECT_FALSE(
        sched.schedule(ps, ClusterPolicy::FreeChoice, nullptr));
}

TEST(Uracam, AssignedOnlyRespectsThePartition)
{
    LatencyTable lat;
    Ddg g = parallelLoop(6, lat);
    MachineConfig m = twoClusterConfig(32, 1);
    Partition part(g.numNodes(), 2, 0);
    for (int i = 0; i < 3; ++i)
        part.assign(i, 1);
    PartialSchedule ps(g, m, 3);
    ModuloScheduler sched(g, m);
    ASSERT_TRUE(
        sched.schedule(ps, ClusterPolicy::AssignedOnly, &part));
    for (NodeId v = 0; v < g.numNodes(); ++v)
        EXPECT_EQ(ps.clusterOf(v), part.clusterOf(v));
}

TEST(Uracam, AssignedOnlyFailsWhenPartitionOverloads)
{
    LatencyTable lat;
    Ddg g = parallelLoop(6, lat);
    MachineConfig m = twoClusterConfig(32, 1);
    Partition all0(g.numNodes(), 2, 0);
    // 6 INT ops on one 2-unit cluster at II=2 cannot fit.
    PartialSchedule ps(g, m, 2);
    ModuloScheduler sched(g, m);
    EXPECT_FALSE(
        sched.schedule(ps, ClusterPolicy::AssignedOnly, &all0));
}

TEST(Uracam, PreferAssignedDeviatesOnlyUnderPressure)
{
    LatencyTable lat;
    Ddg g = parallelLoop(4, lat);
    MachineConfig m = twoClusterConfig(32, 1);
    // A feasible balanced partition: GP must follow it exactly.
    Partition part(g.numNodes(), 2, 0);
    part.assign(2, 1);
    part.assign(3, 1);
    PartialSchedule ps(g, m, 2);
    ModuloScheduler sched(g, m);
    ASSERT_TRUE(
        sched.schedule(ps, ClusterPolicy::PreferAssigned, &part));
    for (NodeId v = 0; v < g.numNodes(); ++v)
        EXPECT_EQ(ps.clusterOf(v), part.clusterOf(v));
}

TEST(Uracam, PreferAssignedRescuesOverloadedPartition)
{
    LatencyTable lat;
    Ddg g = parallelLoop(6, lat);
    MachineConfig m = twoClusterConfig(32, 1);
    Partition all0(g.numNodes(), 2, 0); // infeasible as Fixed
    PartialSchedule ps(g, m, 2);
    ModuloScheduler sched(g, m);
    ASSERT_TRUE(
        sched.schedule(ps, ClusterPolicy::PreferAssigned, &all0));
    // Some nodes must have deviated to cluster 1.
    int deviated = 0;
    for (NodeId v = 0; v < g.numNodes(); ++v)
        deviated += ps.clusterOf(v) != 0;
    EXPECT_GT(deviated, 0);
    auto v = validateSchedule(g, m, ps);
    EXPECT_TRUE(v) << v.message;
}

TEST(Uracam, UsesBothClustersWhenOneCannotHostEverything)
{
    LatencyTable lat;
    Ddg g = memHeavyLoop(8, lat); // 9 memory ops
    MachineConfig m = twoClusterConfig(32, 1);
    int mii = computeMii(g, m); // ceil(9/4) = 3
    auto ps = scheduleLoop(g, m);
    ASSERT_TRUE(ps.has_value());
    EXPECT_LE(mii, ps->ii());
    int in0 = 0, in1 = 0;
    for (NodeId v = 0; v < g.numNodes(); ++v)
        (ps->clusterOf(v) == 0 ? in0 : in1) += 1;
    EXPECT_GT(in0, 0);
    EXPECT_GT(in1, 0);
    auto res = validateSchedule(g, m, *ps);
    EXPECT_TRUE(res) << res.message;
}

TEST(Uracam, ScheduleIntoDirtyScheduleDies)
{
    LatencyTable lat;
    Ddg g = chainLoop(2, lat);
    MachineConfig m = unifiedConfig(32);
    PartialSchedule ps(g, m, 2);
    placeAt(ps, 0, 0, 0);
    ModuloScheduler sched(g, m);
    EXPECT_DEATH(
        sched.schedule(ps, ClusterPolicy::FreeChoice, nullptr), "");
}

// Parameterized: every loop shape schedules and validates on every
// clustered configuration.
struct ShapeCase
{
    const char *name;
    int shape; // index into the factory below
};

class UracamShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
  public:
    static Ddg
    makeShape(int shape, const LatencyTable &lat)
    {
        switch (shape) {
          case 0:
            return streamKernel("s", lat, 3, 2, 50);
          case 1:
            return stencilKernel("st", lat, 5, 50);
          case 2:
            return reductionKernel("r", lat, 4, 50);
          case 3:
            return recurrenceKernel("rec", lat, 6, 50);
          case 4:
            return wideBlockKernel("w", lat, 6, 3, 50);
          case 5:
            return dotProductKernel("d", lat, 2, 50);
          case 6:
            return daxpyKernel("y", lat, 2, 50);
          default:
            return intAddressKernel("ia", lat, 3, 50);
        }
    }

    static MachineConfig
    makeMachine(int machine)
    {
        switch (machine) {
          case 0:
            return unifiedConfig(32);
          case 1:
            return twoClusterConfig(32, 1);
          case 2:
            return fourClusterConfig(32, 1);
          default:
            return fourClusterConfig(32, 2);
        }
    }
};

TEST_P(UracamShapeSweep, SchedulesAndValidates)
{
    auto [shape, machine] = GetParam();
    LatencyTable lat;
    Ddg g = makeShape(shape, lat);
    MachineConfig m = makeMachine(machine);
    auto ps = scheduleLoop(g, m);
    ASSERT_TRUE(ps.has_value())
        << g.name() << " failed on " << m.name();
    EXPECT_EQ(ps->numScheduled(), g.numNodes());
    auto v = validateSchedule(g, m, *ps);
    EXPECT_TRUE(v) << g.name() << " on " << m.name() << ": "
                   << v.message;
}

namespace
{

/** Every placement, transfer, spill and statistic of two schedules. */
void
expectSameSchedule(const PartialSchedule &a, const PartialSchedule &b,
                   const std::string &context)
{
    ASSERT_EQ(a.ii(), b.ii()) << context;
    ASSERT_EQ(a.numScheduled(), b.numScheduled()) << context;
    for (NodeId v = 0; v < a.ddg().numNodes(); ++v) {
        ASSERT_EQ(a.isScheduled(v), b.isScheduled(v)) << context;
        if (!a.isScheduled(v))
            continue;
        EXPECT_EQ(a.clusterOf(v), b.clusterOf(v)) << context;
        EXPECT_EQ(a.cycleOf(v), b.cycleOf(v)) << context;
        EXPECT_EQ(a.transfersOf(v), b.transfersOf(v)) << context;
        const SpillInfo sa = a.spillOf(v), sb = b.spillOf(v);
        EXPECT_EQ(sa.spilled, sb.spilled) << context;
        EXPECT_EQ(sa.storeCycle, sb.storeCycle) << context;
        EXPECT_EQ(sa.loadCycle, sb.loadCycle) << context;
    }
    EXPECT_TRUE(a.stats() == b.stats()) << context;
    EXPECT_EQ(a.scheduleLength(), b.scheduleLength()) << context;
    EXPECT_EQ(a.busUsedSlots(), b.busUsedSlots()) << context;
    for (int c = 0; c < a.machine().numClusters(); ++c) {
        EXPECT_EQ(a.maxLive(c), b.maxLive(c)) << context;
        EXPECT_EQ(a.memFreeSlots(c), b.memFreeSlots(c)) << context;
    }
}

} // namespace

// A schedule reset after an attempt, successful or not, schedules
// exactly like a freshly built one, whether the II grows or shrinks.
TEST_P(UracamShapeSweep, ResetScheduleMatchesAFreshOne)
{
    auto [shape, machine] = GetParam();
    LatencyTable lat;
    Ddg g = makeShape(shape, lat);
    MachineConfig m = makeMachine(machine);
    const int mii = computeMii(g, m);
    ModuloScheduler sched(g, m);
    PartialSchedule reused(g, m, mii);
    sched.schedule(reused, ClusterPolicy::FreeChoice, nullptr);
    for (int ii : {mii + 1, mii, mii + 3}) {
        reused.reset(ii);
        PartialSchedule fresh(g, m, ii);
        const bool a =
            sched.schedule(reused, ClusterPolicy::FreeChoice, nullptr);
        const bool b =
            sched.schedule(fresh, ClusterPolicy::FreeChoice, nullptr);
        const std::string context =
            g.name() + " on " + m.name() + " at II " +
            std::to_string(ii);
        ASSERT_EQ(a, b) << context;
        expectSameSchedule(reused, fresh, context);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesTimesMachines, UracamShapeSweep,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Range(0, 4)));
