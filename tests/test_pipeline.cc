/**
 * @file
 * Unit tests for the whole-program pipeline: per-program aggregation
 * of operations, cycles and scheduling time, and suite-level means.
 */

#include <gtest/gtest.h>

#include "core/metrics.hh"
#include "core/pipeline.hh"
#include "machine/configs.hh"
#include "testing/fixtures.hh"
#include "workload/loop_shapes.hh"

using namespace gpsched;
using namespace gpsched::testing;

namespace
{

Program
smallProgram(const LatencyTable &lat)
{
    Program p;
    p.name = "small";
    p.loops.push_back(stencilKernel("a", lat, 5, 50));
    p.loops.push_back(reductionKernel("b", lat, 3, 80));
    p.loops.push_back(daxpyKernel("c", lat, 2, 30));
    return p;
}

} // namespace

TEST(Pipeline, AggregatesLoops)
{
    LatencyTable lat;
    Program prog = smallProgram(lat);
    MachineConfig m = twoClusterConfig(32, 1);
    ProgramResult r = compileProgram(prog, m, SchedulerKind::Gp);

    ASSERT_EQ(r.loops.size(), prog.loops.size());
    std::int64_t ops = 0, cycles = 0;
    for (const CompiledLoop &loop : r.loops) {
        ops += loop.ops;
        cycles += loop.cycles;
    }
    EXPECT_EQ(r.totalOps, ops);
    EXPECT_EQ(r.totalCycles, cycles);
    EXPECT_DOUBLE_EQ(r.ipc, ipcOf(ops, cycles));
    EXPECT_EQ(r.name, "small");
}

TEST(Pipeline, SuiteMeanIpc)
{
    LatencyTable lat;
    std::vector<Program> suite = {smallProgram(lat)};
    suite.push_back(suite[0]);
    suite[1].name = "twin";
    MachineConfig m = twoClusterConfig(32, 1);
    SuiteResult r = compileSuite(suite, m, SchedulerKind::Gp);
    ASSERT_EQ(r.programs.size(), 2u);
    // Identical programs -> the mean equals either IPC.
    EXPECT_NEAR(r.meanIpc, r.programs[0].ipc, 1e-12);
    EXPECT_NEAR(r.programs[0].ipc, r.programs[1].ipc, 1e-12);
}

TEST(Pipeline, UnifiedUpperBoundsClusteredPerProgram)
{
    // The unified machine has the same resources with no
    // communication penalty; its IPC must match or beat every
    // clustered scheme on the same loops (paper Section 4.1).
    LatencyTable lat;
    Program prog = smallProgram(lat);
    MachineConfig uni = unifiedConfig(32);
    MachineConfig c4 = fourClusterConfig(32, 1);
    double unified_ipc =
        compileProgram(prog, uni, SchedulerKind::Uracam).ipc;
    for (SchedulerKind kind :
         {SchedulerKind::Uracam, SchedulerKind::FixedPartition,
          SchedulerKind::Gp}) {
        double clustered =
            compileProgram(prog, c4, kind).ipc;
        EXPECT_LE(clustered, unified_ipc * 1.0001)
            << toString(kind);
    }
}

/**
 * Skip-and-report: a program containing a loop the engine rejects
 * still aggregates — the bad loop lands in ProgramResult::failures
 * (with its diagnostic), the good loops are compiled normally, and
 * the suite tallies failedLoops.
 */
TEST(Pipeline, BadLoopIsSkippedAndReported)
{
    LatencyTable lat;
    Program prog = smallProgram(lat);
    // Sabotage one loop: flow edge promising latency 1 where the
    // machine needs FMul's 4.
    Ddg bad("sabotaged");
    NodeId mul = bad.addNode(Opcode::FMul);
    NodeId add = bad.addNode(Opcode::FAdd);
    bad.addEdge(mul, add, 1, 0, DepKind::Flow);
    bad.setTripCount(10);
    prog.loops.insert(prog.loops.begin() + 1, bad);

    MachineConfig m = twoClusterConfig(32, 1);
    ProgramResult r = compileProgram(prog, m, SchedulerKind::Gp);

    EXPECT_EQ(r.loops.size(), prog.loops.size() - 1);
    ASSERT_EQ(r.failures.size(), 1u);
    EXPECT_EQ(r.failures[0].loopName(), "sabotaged");
    EXPECT_EQ(r.failures[0].kind(), CompileErrorKind::InvalidInput);

    // The surviving loops match a clean compile of the same program
    // without the saboteur.
    Program clean = smallProgram(lat);
    ProgramResult reference =
        compileProgram(clean, m, SchedulerKind::Gp);
    EXPECT_EQ(r.totalOps, reference.totalOps);
    EXPECT_EQ(r.totalCycles, reference.totalCycles);
    EXPECT_DOUBLE_EQ(r.ipc, reference.ipc);

    // Suite-level accounting.
    SuiteResult suite =
        compileSuite({prog, clean}, m, SchedulerKind::Gp);
    EXPECT_EQ(suite.failedLoops, 1u);
    ASSERT_EQ(suite.programs.size(), 2u);
    EXPECT_EQ(suite.programs[0].failures.size(), 1u);
    EXPECT_TRUE(suite.programs[1].failures.empty());
}

TEST(Pipeline, EmptyProgram)
{
    Program prog;
    prog.name = "empty";
    MachineConfig m = twoClusterConfig(32, 1);
    ProgramResult r = compileProgram(prog, m, SchedulerKind::Gp);
    EXPECT_EQ(r.totalOps, 0);
    EXPECT_EQ(r.totalCycles, 0);
    EXPECT_EQ(r.ipc, 0.0);
}
