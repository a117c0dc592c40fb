/**
 * @file
 * Sim-backed regression pin for the slack-aware transfer policy on
 * the skewed-FU and three-tier-bus corpus machines, where the policy
 * steers slack-rich transfers to slow buses. Every GP-compiled loop
 * of the SPECfp95 suite is held to the two-oracle contract
 * (sim::replaySuite): the validator and the cycle-accurate simulator
 * must accept it, and the replayed II, cycles and IPC must equal the
 * compiler's claims exactly, so the policy's schedules rest on
 * independent oracles, not on the estimator's own claims.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "machine/registry.hh"
#include "sim/replay.hh"
#include "workload/specfp.hh"

using namespace gpsched;

TEST(SimRegression, CorpusMachinesReplayExactly)
{
    LatencyTable lat;
    std::vector<Program> suite = specFp95Suite(lat);
    std::size_t loops = 0;
    for (const Program &program : suite)
        loops += program.loops.size();

    for (const char *file :
         {"skewed_fu_2c.machine", "skewed_fu_4c.machine",
          "threetier_bus_4c.machine"}) {
        MachineConfig m = MachineRegistry::builtin().resolve(
            std::string(GPSCHED_SOURCE_DIR "/examples/machines/") +
            file);
        SuiteResult result = compileSuite(suite, m, SchedulerKind::Gp);
        EXPECT_EQ(result.failedLoops, 0u) << file;
        sim::ReplayReport report = sim::replaySuite(suite, result, m);
        EXPECT_TRUE(report.ok()) << file << ": " << report.summary();
        EXPECT_EQ(report.loopsChecked,
                  static_cast<std::int64_t>(loops))
            << file;
    }
}
