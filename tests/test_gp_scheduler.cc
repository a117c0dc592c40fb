/**
 * @file
 * Unit tests for the per-loop code-generation drivers (paper Figure
 * 1): the GP scheme, the Fixed Partition variant and the URACAM
 * baseline, plus the list-scheduling fallback and the IPC/cycle
 * accounting of CompiledLoop.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "core/gp_scheduler.hh"
#include "core/metrics.hh"
#include "graph/ddg_builder.hh"
#include "machine/configs.hh"
#include "testing/fixtures.hh"
#include "workload/loop_shapes.hh"

using namespace gpsched;
using namespace gpsched::testing;

TEST(LoopCompiler, KindNames)
{
    EXPECT_EQ(toString(SchedulerKind::Uracam), "URACAM");
    EXPECT_EQ(toString(SchedulerKind::FixedPartition), "Fixed");
    EXPECT_EQ(toString(SchedulerKind::Gp), "GP");
}

TEST(LoopCompiler, CompilesChainAtMii)
{
    LatencyTable lat;
    Ddg g = chainLoop(4, lat);
    g.setTripCount(100);
    for (SchedulerKind kind :
         {SchedulerKind::Uracam, SchedulerKind::FixedPartition,
          SchedulerKind::Gp}) {
        MachineConfig m = twoClusterConfig(32, 1);
        LoopCompiler lc(m, kind);
        CompiledLoop r = lc.compile(g);
        EXPECT_TRUE(r.moduloScheduled) << toString(kind);
        EXPECT_EQ(r.mii, 1);
        EXPECT_EQ(r.ii, 1) << toString(kind);
        EXPECT_EQ(r.ops, 4 * 100);
        EXPECT_EQ(r.cycles, 99 * r.ii + r.scheduleLength);
        EXPECT_GT(r.ipc, 0.0);
        EXPECT_GE(r.scheduleAttempts, 1);
    }
}

TEST(LoopCompiler, GpRunsThePartitionerUracamDoesNot)
{
    LatencyTable lat;
    Ddg g = diamondLoop(lat);
    MachineConfig m = twoClusterConfig(32, 1);
    CompiledLoop gp =
        LoopCompiler(m, SchedulerKind::Gp).compile(g);
    CompiledLoop ur =
        LoopCompiler(m, SchedulerKind::Uracam).compile(g);
    EXPECT_GE(gp.partitionRuns, 1);
    EXPECT_EQ(ur.partitionRuns, 0);
}

TEST(LoopCompiler, UnifiedMachineNeedsNoPartition)
{
    LatencyTable lat;
    Ddg g = diamondLoop(lat);
    MachineConfig m = unifiedConfig(32);
    CompiledLoop r = LoopCompiler(m, SchedulerKind::Gp).compile(g);
    EXPECT_EQ(r.partitionRuns, 0);
    EXPECT_TRUE(r.moduloScheduled);
}

TEST(LoopCompiler, IiNeverBelowMii)
{
    LatencyTable lat;
    Ddg g = recurrenceKernel("rec", lat, 8, 50);
    MachineConfig m = fourClusterConfig(32, 1);
    for (SchedulerKind kind :
         {SchedulerKind::Uracam, SchedulerKind::FixedPartition,
          SchedulerKind::Gp}) {
        CompiledLoop r = LoopCompiler(m, kind).compile(g);
        if (r.moduloScheduled) {
            EXPECT_GE(r.ii, r.mii) << toString(kind);
        }
    }
}

TEST(LoopCompiler, RecurrenceBoundIiIsExact)
{
    LatencyTable lat;
    Ddg g = recurrenceLoop(lat); // RecMII 7, trivial resources
    MachineConfig m = twoClusterConfig(32, 1);
    CompiledLoop r = LoopCompiler(m, SchedulerKind::Gp).compile(g);
    EXPECT_TRUE(r.moduloScheduled);
    EXPECT_EQ(r.ii, 7);
}

TEST(LoopCompiler, ListFallbackWhenModuloCannotWork)
{
    LatencyTable lat;
    // A loop whose schedule is totally serial: a chain of FDivs with
    // a carried dependence. RecMII equals the chain length, so the
    // II immediately reaches the flat-schedule bound and the driver
    // must fall back to list scheduling.
    DdgBuilder b("serial", lat);
    NodeId prev = invalidNode;
    NodeId first = invalidNode;
    for (int i = 0; i < 3; ++i) {
        NodeId v = b.op(Opcode::FDiv);
        if (prev != invalidNode)
            b.flow(prev, v);
        else
            first = v;
        prev = v;
    }
    b.carried(prev, first, 1);
    Ddg g = b.tripCount(20).build();

    MachineConfig m = fourClusterConfig(32, 1);
    CompiledLoop r = LoopCompiler(m, SchedulerKind::Gp).compile(g);
    // Either modulo scheduling succeeded exactly at the serial bound
    // or the fallback kicked in; both must report valid accounting.
    EXPECT_GT(r.cycles, 0);
    EXPECT_GT(r.ipc, 0.0);
    if (!r.moduloScheduled) {
        EXPECT_EQ(r.ii, 0);
        EXPECT_EQ(r.cycles, g.tripCount() * r.scheduleLength);
    }
}

TEST(LoopCompiler, CountOverflowIsATypedInvalidInputError)
{
    // Operations: two nodes of 2^63 - 1 iterations.
    Ddg ops("ops_overflow");
    ops.addNode(Opcode::Load, "a");
    ops.addNode(Opcode::Store, "b");
    ops.addEdge(0, 1, 2, 0, DepKind::Flow);
    ops.setTripCount(std::numeric_limits<std::int64_t>::max());

    // Modulo cycles: one node of 2^62 + 1 iterations at II 2.
    Ddg modulo("modulo_overflow");
    modulo.addNode(Opcode::IAlu, "i");
    modulo.addEdge(0, 0, 2, 1, DepKind::Flow);
    modulo.setTripCount((std::int64_t{1} << 62) + 1);

    // Fallback cycles: a recurrence whose RecMII exceeds the II cap
    // forces the list schedule; 2^40 iterations of ~9.4M cycles.
    Ddg fallback("fallback_overflow");
    for (int i = 0; i < 10; ++i)
        fallback.addNode(Opcode::FAdd, "");
    for (int i = 0; i < 10; ++i)
        fallback.addEdge(i, (i + 1) % 10, maxEdgeLatency, i == 9 ? 1 : 0,
                         DepKind::Flow);
    fallback.setTripCount(maxTripCount);

    MachineConfig m = twoClusterConfig(32, 1);
    for (const Ddg &g : {ops, modulo, fallback}) {
        for (SchedulerKind kind :
             {SchedulerKind::Uracam, SchedulerKind::FixedPartition,
              SchedulerKind::Gp}) {
            try {
                CompiledLoop r = LoopCompiler(m, kind).compile(g);
                ADD_FAILURE() << g.name() << " " << toString(kind)
                              << ": cycles " << r.cycles << ", ops "
                              << r.ops;
            } catch (const CompileError &error) {
                EXPECT_EQ(error.kind(), CompileErrorKind::InvalidInput)
                    << g.name();
                EXPECT_EQ(error.loopName(), g.name());
            }
        }
    }
}

TEST(LoopCompiler, ScheduleBeyondTheCycleBoundIsATypedInvalidInputError)
{
    // A legal modulo schedule: an IAlu recurrence sets the II, and a
    // chain of ten FAdds joined by 2^20-latency order edges places
    // its later ops past cycle 2^20, beyond what the simulator
    // replays.
    Ddg far("far_cycles");
    far.addNode(Opcode::IAlu, "a");
    far.addNode(Opcode::IAlu, "b");
    far.addEdge(0, 1, 4, 0, DepKind::Flow);
    far.addEdge(1, 0, 4, 1, DepKind::Flow);
    for (int i = 0; i < 10; ++i)
        far.addNode(Opcode::FAdd, "");
    for (NodeId v = 2; v < 11; ++v)
        far.addEdge(v, v + 1, maxEdgeLatency, 0, DepKind::Order);
    far.setTripCount(maxTripCount);

    MachineConfig m = twoClusterConfig(32, 1);
    try {
        CompiledLoop r = LoopCompiler(m, SchedulerKind::Gp).compile(far);
        ADD_FAILURE() << "compiled at II " << r.ii;
    } catch (const CompileError &error) {
        EXPECT_EQ(error.kind(), CompileErrorKind::InvalidInput);
        EXPECT_NE(std::string(error.what()).find("recorded-cycle bound"),
                  std::string::npos)
            << error.what();
    }
}

TEST(LoopCompiler, FixedPartitionNeverDeviates)
{
    // Indirect check: Fixed must never beat GP by more than noise on
    // a loop where deviation matters (GP >= Fixed in II).
    LatencyTable lat;
    Ddg g = memHeavyLoop(10, lat);
    g.setTripCount(100);
    MachineConfig m = fourClusterConfig(32, 1);
    CompiledLoop fx =
        LoopCompiler(m, SchedulerKind::FixedPartition).compile(g);
    CompiledLoop gp = LoopCompiler(m, SchedulerKind::Gp).compile(g);
    EXPECT_TRUE(fx.moduloScheduled);
    EXPECT_TRUE(gp.moduloScheduled);
    EXPECT_LE(gp.ii, fx.ii);
}

TEST(LoopCompiler, DeterministicAcrossRuns)
{
    LatencyTable lat;
    Rng rng(91);
    Ddg g = randomLoop("r", lat, rng);
    MachineConfig m = fourClusterConfig(32, 2);
    LoopCompiler lc(m, SchedulerKind::Gp);
    CompiledLoop a = lc.compile(g);
    CompiledLoop b = lc.compile(g);
    EXPECT_EQ(a.moduloScheduled, b.moduloScheduled);
    EXPECT_EQ(a.ii, b.ii);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.stats.busTransfers, b.stats.busTransfers);
}

TEST(Metrics, IpcFormulas)
{
    EXPECT_DOUBLE_EQ(ipcOf(100, 50), 2.0);
    EXPECT_DOUBLE_EQ(ipcOf(1, 0), 0.0);
    EXPECT_NEAR(ipcGainPercent(1.23, 1.0), 23.0, 1e-9);
    EXPECT_DOUBLE_EQ(averageIpc({2.0, 4.0}), 3.0);
}

// Parameterized: every scheme on every clustered machine compiles a
// mixed bag of loops with sound accounting.
class CompilerSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CompilerSweep, SoundAccounting)
{
    auto [kind_idx, machine_idx] = GetParam();
    SchedulerKind kind = static_cast<SchedulerKind>(kind_idx);
    LatencyTable lat;
    MachineConfig m = machine_idx == 0   ? unifiedConfig(32)
                      : machine_idx == 1 ? twoClusterConfig(32, 1)
                      : machine_idx == 2 ? fourClusterConfig(32, 1)
                                         : fourClusterConfig(64, 2);
    LoopCompiler lc(m, kind);
    std::vector<Ddg> loops;
    loops.push_back(stencilKernel("st", lat, 7, 64));
    loops.push_back(reductionKernel("r", lat, 3, 64));
    loops.push_back(recurrenceKernel("rec", lat, 5, 64));
    loops.push_back(daxpyKernel("d", lat, 2, 64));
    for (const Ddg &g : loops) {
        CompiledLoop r = lc.compile(g);
        EXPECT_GT(r.cycles, 0) << g.name();
        EXPECT_EQ(r.ops,
                  static_cast<std::int64_t>(g.numNodes()) *
                      g.tripCount());
        EXPECT_NEAR(r.ipc,
                    static_cast<double>(r.ops) / r.cycles, 1e-12);
        if (r.moduloScheduled) {
            EXPECT_GE(r.ii, r.mii);
            EXPECT_EQ(r.cycles,
                      (g.tripCount() - 1) * r.ii + r.scheduleLength);
        }
        // IPC can never exceed the machine issue width.
        EXPECT_LE(r.ipc, m.totalIssueWidth());
    }
}

INSTANTIATE_TEST_SUITE_P(
    KindsTimesMachines, CompilerSweep,
    ::testing::Combine(::testing::Range(0, 3),
                       ::testing::Range(0, 4)));
