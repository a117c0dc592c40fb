/**
 * @file
 * Unit tests for the Section-3.3.2 transformations: spill insertion
 * and removal, bus-to-memory and memory-to-bus conversion, and the
 * most-saturated-first driver.
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "graph/ddg_builder.hh"
#include "machine/configs.hh"
#include "sched/schedule.hh"
#include "sched/transforms.hh"
#include "sched/validate.hh"
#include "testing/fixtures.hh"
#include "workload/specfp.hh"

using namespace gpsched;
using namespace gpsched::testing;

namespace
{

/**
 * One producer whose value is read again far later: a long lifetime
 * with a wide idle gap, the canonical spill candidate.
 */
Ddg
longLifetimeLoop(const LatencyTable &lat)
{
    DdgBuilder b("longlife", lat);
    NodeId p = b.op(Opcode::IAlu, "p");
    NodeId c = b.op(Opcode::Store, "c");
    b.flow(p, c);
    return b.tripCount(10).build();
}

/** Cross-cluster pair for transfer-conversion tests. */
Ddg
crossPair(const LatencyTable &lat)
{
    DdgBuilder b("cross", lat);
    NodeId p = b.op(Opcode::IAlu, "p");
    NodeId c = b.op(Opcode::FAdd, "c");
    b.flow(p, c);
    return b.tripCount(10).build();
}

/** Everything a failed transformation must leave as it was. */
struct ScheduleSnapshot
{
    std::vector<double> fom;
    ScheduleStats stats;
    std::vector<std::map<int, Transfer>> transfers;
    std::vector<std::tuple<bool, int, int>> spills;
    std::vector<int> maxLive;
    int length = 0;
};

ScheduleSnapshot
snapshot(const PartialSchedule &ps)
{
    ScheduleSnapshot snap;
    FigureOfMerit fom = ps.globalFom();
    snap.fom.assign(fom.data(), fom.data() + fom.size());
    snap.stats = ps.stats();
    for (NodeId v = 0; v < ps.ddg().numNodes(); ++v) {
        snap.transfers.push_back(ps.transfersOf(v));
        SpillInfo spill = ps.spillOf(v);
        snap.spills.emplace_back(spill.spilled, spill.storeCycle,
                                 spill.loadCycle);
    }
    for (int c = 0; c < ps.machine().numClusters(); ++c)
        snap.maxLive.push_back(ps.maxLive(c));
    snap.length = ps.scheduleLength();
    return snap;
}

void
expectSameSchedule(const ScheduleSnapshot &before,
                   const ScheduleSnapshot &after, const char *what)
{
    EXPECT_EQ(before.fom, after.fom) << what;
    EXPECT_EQ(before.stats, after.stats) << what;
    EXPECT_EQ(before.transfers, after.transfers) << what;
    EXPECT_EQ(before.spills, after.spills) << what;
    EXPECT_EQ(before.maxLive, after.maxLive) << what;
    EXPECT_EQ(before.length, after.length) << what;
}

} // namespace

TEST(Transforms, SpillSplitsLongLifetime)
{
    LatencyTable lat;
    Ddg g = longLifetimeLoop(lat);
    // 8 registers per cluster: the 30-cycle lifetime at II=4 eats 8
    // of them, saturating the file and making the spill profitable.
    MachineConfig m("tiny", 2, 4, 4, 4, 16, 1, 1);
    PartialSchedule ps(g, m, 4);
    placeAt(ps, 0, 0, 0);  // write at 1
    placeAt(ps, 1, 0, 30); // read at 30
    int live_before = ps.maxLive(0);
    ASSERT_GE(live_before, 2);

    ASSERT_TRUE(TransformEngine::trySpill(ps, 0));
    SpillInfo spill = ps.spillOf(0);
    EXPECT_TRUE(spill.spilled);
    EXPECT_GE(spill.storeCycle, 1);
    EXPECT_LE(spill.loadCycle + lat.latency(Opcode::SpillLd), 30);
    EXPECT_LT(ps.maxLive(0), live_before);
    EXPECT_EQ(ps.stats().spills, 1);
    auto v = validateSchedule(g, m, ps);
    EXPECT_TRUE(v) << v.message;
}

TEST(Transforms, SpillNeedsAGap)
{
    LatencyTable lat;
    DdgBuilder b("nogap", lat);
    NodeId p = b.op(Opcode::IAlu);
    NodeId c = b.op(Opcode::FAdd);
    b.flow(p, c);
    Ddg g = b.tripCount(10).build();
    MachineConfig m = twoClusterConfig(32, 1);
    PartialSchedule ps(g, m, 2);
    placeAt(ps, 0, 0, 0); // write at 1
    placeAt(ps, 1, 0, 2); // read at 2: 1-cycle life
    EXPECT_FALSE(TransformEngine::trySpill(ps, 0));
}

TEST(Transforms, UnspillRestoresWhenRegistersAllow)
{
    LatencyTable lat;
    Ddg g = longLifetimeLoop(lat);
    MachineConfig m("tiny", 2, 4, 4, 4, 16, 1, 1);
    PartialSchedule ps(g, m, 4);
    placeAt(ps, 0, 0, 0);
    placeAt(ps, 1, 0, 30);
    ASSERT_TRUE(TransformEngine::trySpill(ps, 0));
    int mem_with_spill = ps.memFreeSlots(0);

    // The engine only removes the spill when the global figure of
    // merit improves (registers must absorb the merged lifetime).
    bool undone = TransformEngine::tryUnspill(ps, 0);
    if (undone) {
        EXPECT_FALSE(ps.spillOf(0).spilled);
        EXPECT_GT(ps.memFreeSlots(0), mem_with_spill);
        auto v = validateSchedule(g, m, ps);
        EXPECT_TRUE(v) << v.message;
    }
}

TEST(Transforms, BusToMemFreesTheBus)
{
    LatencyTable lat;
    Ddg g = crossPair(lat);
    MachineConfig m = twoClusterConfig(32, 1);
    PartialSchedule ps(g, m, 3);
    placeAt(ps, 0, 0, 0);            // write at 1
    placeInWindow(ps, 1, 1, 10, 20); // plenty of slack
    ASSERT_EQ(ps.stats().busTransfers, 1);
    int bus_free = ps.busFreeSlots();

    ASSERT_TRUE(TransformEngine::tryBusToMem(ps));
    EXPECT_EQ(ps.stats().busTransfers, 0);
    EXPECT_EQ(ps.stats().memTransfers, 1);
    EXPECT_GT(ps.busFreeSlots(), bus_free);
    auto v = validateSchedule(g, m, ps);
    EXPECT_TRUE(v) << v.message;
}

TEST(Transforms, BusToMemRefusedWithoutSlack)
{
    LatencyTable lat;
    Ddg g = crossPair(lat);
    MachineConfig m = twoClusterConfig(32, 1);
    PartialSchedule ps(g, m, 3);
    placeAt(ps, 0, 0, 0); // write at 1
    placeAt(ps, 1, 1, 2); // use at 2: bus is tight
    ASSERT_EQ(ps.stats().busTransfers, 1);
    // CommSt(1) + CommLd(2) needs 3 cycles between write and use;
    // only 1 exists.
    EXPECT_FALSE(TransformEngine::tryBusToMem(ps));
}

TEST(Transforms, BusAndMemoryTradePressure)
{
    LatencyTable lat;
    // Three cross-cluster values on a machine with one memory port
    // per cluster: two transfers fill the bus, the third goes through
    // memory. Relieving the bus (bus->mem) then makes memory the
    // bottleneck, and mem->bus becomes the improving move.
    DdgBuilder b("three-cross", lat);
    std::vector<NodeId> prods, cons;
    for (int i = 0; i < 3; ++i) {
        NodeId p = b.op(Opcode::IAlu);
        NodeId c = b.op(Opcode::FAdd);
        b.flow(p, c);
        prods.push_back(p);
        cons.push_back(c);
    }
    Ddg g = b.tripCount(10).build();
    MachineConfig m("narrow", 2, 2, 2, 1, 32, 1, 1);
    PartialSchedule ps(g, m, 2);
    placeAt(ps, prods[0], 0, 0);
    placeAt(ps, prods[1], 0, 0);
    placeAt(ps, prods[2], 0, 1);
    placeInWindow(ps, cons[0], 1, 8, 16);
    placeInWindow(ps, cons[1], 1, 8, 16);
    placeInWindow(ps, cons[2], 1, 8, 16);
    ASSERT_EQ(ps.stats().busTransfers, 2); // bus full at II=2
    ASSERT_EQ(ps.stats().memTransfers, 1);

    // Bus saturated: mem->bus is infeasible outright.
    EXPECT_FALSE(TransformEngine::tryMemToBus(ps));
    // bus->mem would push both single-port memory pipes to 100%,
    // strictly worse than one saturated bus: the engine refuses, and
    // the strict-improvement rule is exactly what prevents the two
    // conversions from ping-ponging forever.
    EXPECT_FALSE(TransformEngine::tryBusToMem(ps));
    EXPECT_EQ(TransformEngine::run(ps), 0);
    EXPECT_EQ(ps.stats().busTransfers, 2);
    EXPECT_EQ(ps.stats().memTransfers, 1);
    auto v = validateSchedule(g, m, ps);
    EXPECT_TRUE(v) << v.message;
}

TEST(Transforms, EngineStopsAtFixpoint)
{
    LatencyTable lat;
    Ddg g = crossPair(lat);
    MachineConfig m = twoClusterConfig(32, 1);
    PartialSchedule ps(g, m, 3);
    placeAt(ps, 0, 0, 0);
    placeInWindow(ps, 1, 1, 10, 20);
    int first = TransformEngine::run(ps);
    int second = TransformEngine::run(ps);
    // A second run right after convergence must do nothing.
    EXPECT_EQ(second, 0);
    (void)first;
    auto v = validateSchedule(g, m, ps);
    EXPECT_TRUE(v) << v.message;
}

TEST(Transforms, SpillEnablesFurtherPlacement)
{
    LatencyTable lat;
    // Three ~20-cycle lifetimes at II=4 want 5 registers each; a
    // 12-register cluster holds two but not three until a spill
    // frees capacity.
    DdgBuilder b("three", lat);
    std::vector<NodeId> ps_, cs_;
    for (int i = 0; i < 3; ++i) {
        NodeId p = b.op(Opcode::IAlu);
        NodeId c = b.op(Opcode::Store);
        b.flow(p, c);
        ps_.push_back(p);
        cs_.push_back(c);
    }
    Ddg g = b.tripCount(10).build();
    MachineConfig m("tiny", 2, 4, 4, 4, 24, 1, 1);
    PartialSchedule sched(g, m, 4);
    for (int i = 0; i < 3; ++i)
        placeAt(sched, ps_[i], 0, i);
    placeAt(sched, cs_[0], 0, 20);
    placeAt(sched, cs_[1], 0, 21);
    ASSERT_FALSE(canPlace(sched, cs_[2], 0, 22));

    ASSERT_GT(TransformEngine::run(sched), 0);
    PlacementPlan retry;
    sched.planPlacement(cs_[2], 0, 22, retry);
    EXPECT_TRUE(retry.feasible);
    sched.apply(retry);
    auto v = validateSchedule(g, m, sched);
    EXPECT_TRUE(v) << v.message;
}

TEST(Transforms, RejectedTransformationsRestoreTheSchedule)
{
    // The engine tries tryMemToBus once per round because a failed
    // try (like every other failed transformation) leaves the
    // schedule exactly as it was. Converged SPECfp95 schedules on the
    // Table-1 machines give every kind of try candidates that it
    // applies, measures and then takes back.
    LatencyTable lat;
    const Program program = specFp95Program("tomcatv", lat);
    int rounds_checked = 0;
    for (const MachineConfig &m : table1Configs()) {
        for (const Ddg &g : program.loops) {
            std::optional<PartialSchedule> ps = scheduleLoop(g, m);
            if (!ps)
                continue;
            while (TransformEngine::run(*ps) > 0) {
            }
            const ScheduleSnapshot before = snapshot(*ps);
            ASSERT_EQ(TransformEngine::run(*ps), 0);
            expectSameSchedule(before, snapshot(*ps), m.name().c_str());
            ++rounds_checked;

            for (int c = 0; c < m.numClusters(); ++c) {
                EXPECT_FALSE(TransformEngine::trySpill(*ps, c));
                EXPECT_FALSE(TransformEngine::tryUnspill(*ps, c));
            }
            EXPECT_FALSE(TransformEngine::tryBusToMem(*ps));
            EXPECT_FALSE(TransformEngine::tryMemToBus(*ps));
            expectSameSchedule(before, snapshot(*ps), m.name().c_str());
        }
    }
    EXPECT_GT(rounds_checked, 0);
}
