/**
 * @file
 * End-to-end integration tests: the synthetic SPECfp95 suite is
 * compiled on the paper's machine configurations with all three
 * schemes; every modulo schedule produced is checked by the
 * independent validator, and the paper's structural results
 * (unified is an upper bound; GP tracks or beats Fixed) are
 * asserted as invariants.
 */

#include <gtest/gtest.h>

#include "core/pipeline.hh"
#include "graph/ddg_analysis.hh"
#include "machine/configs.hh"
#include "partition/multilevel.hh"
#include "sched/mii.hh"
#include "sched/validate.hh"
#include "testing/fixtures.hh"
#include "workload/loop_shapes.hh"
#include "workload/specfp.hh"

using namespace gpsched;
using namespace gpsched::testing;

namespace
{

/** Compiles every loop of @p prog with the scheduler core and runs
 *  the independent validator on each successful modulo schedule. */
void
validateProgram(const Program &prog, const MachineConfig &m,
                ClusterPolicy policy)
{
    GpPartitioner partitioner(m);
    for (const Ddg &g : prog.loops) {
        const Partition *assignment = nullptr;
        GpPartitionResult part{Partition(g.numNodes(),
                                         m.numClusters()),
                               0,
                               {}};
        if (policy != ClusterPolicy::FreeChoice &&
            m.numClusters() > 1) {
            part = partitioner.run(g, computeMii(g, m));
            assignment = &part.partition;
        }
        auto ps = scheduleLoop(g, m, policy, assignment, 8);
        if (!ps.has_value())
            continue; // list-scheduling territory; not validated here
        auto v = validateSchedule(g, m, *ps);
        EXPECT_TRUE(v) << prog.name << "/" << g.name() << " on "
                       << m.name() << ": " << v.message;
    }
}

} // namespace

// ---------------------------------------------------------------------
// Schedule validity across machines, schemes and the whole suite.
// ---------------------------------------------------------------------

class SuiteValidation
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
  public:
    static MachineConfig
    machine(int idx)
    {
        switch (idx) {
          case 0:
            return twoClusterConfig(32, 1);
          case 1:
            return twoClusterConfig(64, 1);
          case 2:
            return fourClusterConfig(32, 1);
          case 3:
            return fourClusterConfig(64, 1);
          default:
            return fourClusterConfig(32, 2);
        }
    }
};

TEST_P(SuiteValidation, EveryScheduleIsValid)
{
    auto [machine_idx, policy_idx] = GetParam();
    LatencyTable lat;
    MachineConfig m = SuiteValidation::machine(machine_idx);
    ClusterPolicy policy = static_cast<ClusterPolicy>(policy_idx);
    // Two characteristic programs per case keep the sweep fast while
    // covering stencils, recurrences, wide blocks and gathers.
    for (const char *name : {"hydro2d", "fpppp"}) {
        Program prog = specFp95Program(name, lat);
        validateProgram(prog, m, policy);
    }
}

INSTANTIATE_TEST_SUITE_P(
    MachinesTimesPolicies, SuiteValidation,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Range(0, 3)));

TEST(Integration, FullSuiteValidOnPaperHeadlineConfig)
{
    // The 2-cluster, 32-register, 1-bus/1-cycle machine is the
    // configuration behind the paper's +23% headline; validate every
    // loop of all ten benchmarks under the GP policy there.
    LatencyTable lat;
    MachineConfig m = twoClusterConfig(32, 1);
    for (const Program &prog : specFp95Suite(lat))
        validateProgram(prog, m, ClusterPolicy::PreferAssigned);
}

// ---------------------------------------------------------------------
// Paper-shape invariants of the full evaluation pipeline.
// ---------------------------------------------------------------------

TEST(Integration, UnifiedIsAnUpperBoundForEveryScheme)
{
    LatencyTable lat;
    auto suite = specFp95Suite(lat);
    MachineConfig uni = unifiedConfig(32);
    SuiteResult unified =
        compileSuite(suite, uni, SchedulerKind::Uracam);
    for (int machine = 0; machine < 2; ++machine) {
        MachineConfig m = machine == 0 ? twoClusterConfig(32, 1)
                                       : fourClusterConfig(32, 1);
        for (SchedulerKind kind :
             {SchedulerKind::Uracam, SchedulerKind::FixedPartition,
              SchedulerKind::Gp}) {
            SuiteResult r = compileSuite(suite, m, kind);
            EXPECT_LE(r.meanIpc, unified.meanIpc * 1.0001)
                << m.name() << " " << toString(kind);
        }
    }
}

TEST(Integration, GpBeatsOrMatchesFixedOnAverage)
{
    LatencyTable lat;
    auto suite = specFp95Suite(lat);
    MachineConfig m = twoClusterConfig(32, 1);
    double fixed =
        compileSuite(suite, m, SchedulerKind::FixedPartition).meanIpc;
    double gp = compileSuite(suite, m, SchedulerKind::Gp).meanIpc;
    EXPECT_GE(gp, fixed * 0.999);
}

TEST(Integration, ClusteringCostsPerformance)
{
    // More clusters with the same total resources can only add
    // communication cost: 4-cluster GP must not beat 2-cluster GP on
    // average.
    LatencyTable lat;
    auto suite = specFp95Suite(lat);
    double c2 = compileSuite(suite, twoClusterConfig(32, 1),
                             SchedulerKind::Gp)
                    .meanIpc;
    double c4 = compileSuite(suite, fourClusterConfig(32, 1),
                             SchedulerKind::Gp)
                    .meanIpc;
    EXPECT_LE(c4, c2 * 1.02);
}

TEST(Integration, SlowerBusHurts)
{
    LatencyTable lat;
    auto suite = specFp95Suite(lat);
    double lat1 = compileSuite(suite, fourClusterConfig(32, 1),
                               SchedulerKind::Gp)
                      .meanIpc;
    double lat2 = compileSuite(suite, fourClusterConfig(32, 2),
                               SchedulerKind::Gp)
                      .meanIpc;
    EXPECT_LE(lat2, lat1 * 1.02);
}

TEST(Integration, MoreRegistersNeverHurt)
{
    LatencyTable lat;
    auto suite = specFp95Suite(lat);
    double r32 = compileSuite(suite, twoClusterConfig(32, 1),
                              SchedulerKind::Gp)
                     .meanIpc;
    double r64 = compileSuite(suite, twoClusterConfig(64, 1),
                              SchedulerKind::Gp)
                     .meanIpc;
    EXPECT_GE(r64, r32 * 0.98);
}

// ---------------------------------------------------------------------
// Fuzzing: random loop bodies through every policy, every schedule
// validated from first principles.
// ---------------------------------------------------------------------

class RandomLoopFuzz
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>>
{
};

TEST_P(RandomLoopFuzz, SchedulesValidateOrFailCleanly)
{
    auto [seed, machine_idx] = GetParam();
    LatencyTable lat;
    Rng rng(seed);
    RandomLoopParams params;
    params.numOps = 16 + static_cast<int>(seed % 5) * 8;
    params.carriedProb = 0.2;
    Ddg g = randomLoop("fuzz", lat, rng, params);
    MachineConfig m = SuiteValidation::machine(machine_idx);

    GpPartitioner partitioner(m);
    GpPartitionResult part = partitioner.run(g, computeMii(g, m));
    for (int policy_idx = 0; policy_idx < 3; ++policy_idx) {
        ClusterPolicy policy =
            static_cast<ClusterPolicy>(policy_idx);
        const Partition *assignment =
            policy == ClusterPolicy::FreeChoice ? nullptr
                                                : &part.partition;
        auto ps = scheduleLoop(g, m, policy, assignment, 8);
        if (!ps.has_value())
            continue; // a clean failure is acceptable (II exhausted)
        auto v = validateSchedule(g, m, *ps);
        EXPECT_TRUE(v) << "seed " << seed << " machine " << m.name()
                       << " policy " << policy_idx << ": "
                       << v.message;
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsTimesMachines, RandomLoopFuzz,
    ::testing::Combine(::testing::Values(11u, 22u, 33u, 44u, 55u,
                                         66u, 77u, 88u),
                       ::testing::Range(0, 5)));

TEST(Integration, MostLoopsModuloSchedule)
{
    // The paper reports the fallback fires "for just a few loops".
    LatencyTable lat;
    auto suite = specFp95Suite(lat);
    MachineConfig m = fourClusterConfig(32, 1);
    SuiteResult r = compileSuite(suite, m, SchedulerKind::Gp);
    int total = 0, fallback = 0;
    for (const ProgramResult &p : r.programs) {
        for (const CompiledLoop &loop : p.loops) {
            ++total;
            fallback += !loop.moduloScheduled;
        }
    }
    EXPECT_LT(fallback * 5, total) << fallback << "/" << total;
}
