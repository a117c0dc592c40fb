/**
 * @file
 * The heterogeneity-aware optimization layers: capacity-balanced
 * initial assignment (partition/multilevel.hh) and the slack-aware
 * bus-class transfer cost model (sched/schedule.hh).
 *
 * Pins the two acceptance properties of the cost model:
 *
 *  1. *Homogeneous parity* — on Table-1 machines the slack-aware
 *     default produces bit-identical compiled loops to the legacy
 *     FastestFirst policy, over a fig2/fig3-style workload slice:
 *     same II, same cycles, same placements, transfers, spills and
 *     partition.
 *
 *  2. *Heterogeneous wins* — on the shipped scenario corpus the
 *     slack-aware policy never trails fastest-first on the pinned
 *     machines and is strictly better on at least one.
 *
 * Plus unit-level checks that the policy does what its name says
 * (slack-rich transfers ride slow classes, tight ones ride fast
 * ones) and that capacity-balanced seeding respects 0-FU clusters.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "graph/ddg_builder.hh"
#include "machine/configs.hh"
#include "machine/registry.hh"
#include "partition/multilevel.hh"
#include "sched/mii.hh"
#include "sched/validate.hh"
#include "testing/fixtures.hh"
#include "workload/specfp.hh"

using namespace gpsched;
using namespace gpsched::testing;

namespace
{

/** Legacy policy: the exact pre-cost-model transfer selection. */
LoopCompilerOptions
legacyOptions()
{
    LoopCompilerOptions options;
    options.transferCost = TransferCostPolicy::FastestFirst;
    return options;
}

MachineConfig
corpusMachine(const std::string &file)
{
    return MachineRegistry::builtin().resolve(
        GPSCHED_SOURCE_DIR "/examples/machines/" + file);
}

/** Field-by-field equality of two compiled loops (schedule payload
 *  included), with a readable message on the first difference. */
::testing::AssertionResult
sameCompiledLoop(const CompiledLoop &a, const CompiledLoop &b)
{
    if (a.moduloScheduled != b.moduloScheduled)
        return ::testing::AssertionFailure() << "moduloScheduled";
    if (a.ii != b.ii)
        return ::testing::AssertionFailure()
               << "ii " << a.ii << " vs " << b.ii;
    if (a.scheduleLength != b.scheduleLength)
        return ::testing::AssertionFailure() << "scheduleLength";
    if (a.cycles != b.cycles)
        return ::testing::AssertionFailure()
               << "cycles " << a.cycles << " vs " << b.cycles;
    if (!(a.stats == b.stats))
        return ::testing::AssertionFailure() << "stats";
    if (a.placements != b.placements)
        return ::testing::AssertionFailure() << "placements";
    if (a.transfers != b.transfers)
        return ::testing::AssertionFailure() << "transfers";
    if (a.spills != b.spills)
        return ::testing::AssertionFailure() << "spills";
    if (a.partition != b.partition)
        return ::testing::AssertionFailure() << "partition";
    return ::testing::AssertionSuccess();
}

} // namespace

// ---------------------------------------------------------------------
// Acceptance: homogeneous parity. Table-1 machines have a single bus
// class, so the slack-aware policy must degenerate to the legacy
// behaviour bit-for-bit.
// ---------------------------------------------------------------------

TEST(TransferPolicy, HomogeneousParityOnTable1Machines)
{
    LatencyTable lat;
    std::vector<Program> suite = specFp95Suite(lat);
    suite.resize(2); // fig2/fig3-style slice, fast but end-to-end

    for (const MachineConfig &m :
         {twoClusterConfig(32, 1), fourClusterConfig(64, 2),
          fourClusterConfig(32, 1)}) {
        ASSERT_TRUE(m.homogeneous());
        ASSERT_EQ(m.numBusClasses(), 1);
        for (SchedulerKind kind :
             {SchedulerKind::Uracam, SchedulerKind::FixedPartition,
              SchedulerKind::Gp}) {
            for (const Program &program : suite) {
                for (const Ddg &loop : program.loops) {
                    CompiledLoop legacy =
                        LoopCompiler(m, kind, legacyOptions())
                            .compile(loop);
                    CompiledLoop current =
                        LoopCompiler(m, kind, {}).compile(loop);
                    EXPECT_TRUE(sameCompiledLoop(legacy, current))
                        << toString(kind) << " on " << m.name()
                        << ", loop " << loop.name();
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Acceptance: on the pinned heterogeneous corpus machines the
// slack-aware policy matches-or-beats fastest-first mean IPC, and is
// strictly better on at least one (regstarved-4c, where the fast bus
// class is the scarce resource). bench_corpus --gate-policy applies
// the same check across the whole corpus.
// ---------------------------------------------------------------------

TEST(TransferPolicy, SlackAwareBeatsFastestFirstOnCorpusMachines)
{
    LatencyTable lat;
    std::vector<Program> suite = specFp95Suite(lat);

    LoopCompilerOptions fastest;
    fastest.transferCost = TransferCostPolicy::FastestFirst;
    LoopCompilerOptions slack;
    slack.transferCost = TransferCostPolicy::SlackAware;

    double strict_machine_gain = 0.0;
    for (const char *file :
         {"regstarved_4c.machine", "bigsmall_3c.machine",
          "memfarm_3c.machine"}) {
        MachineConfig m = corpusMachine(file);
        ASSERT_GT(m.numBusClasses(), 1) << file;
        double ipc_fastest =
            compileSuite(suite, m, SchedulerKind::Gp, fastest)
                .meanIpc;
        double ipc_slack =
            compileSuite(suite, m, SchedulerKind::Gp, slack).meanIpc;
        EXPECT_GE(ipc_slack, ipc_fastest) << file;
        if (std::string(file) == "regstarved_4c.machine")
            strict_machine_gain = ipc_slack - ipc_fastest;
    }
    EXPECT_GT(strict_machine_gain, 0.0)
        << "slack-aware must strictly win somewhere";
}

// ---------------------------------------------------------------------
// Unit: the slack-aware policy steers a slack-rich transfer to the
// slow bus class and a tight transfer to the fast one; fastest-first
// always rides the fast class while it has slots.
// ---------------------------------------------------------------------

namespace
{

/** Two identical clusters joined by one fast (lat 1) and one slow
 *  (lat 3) bus. */
MachineConfig
twoTierMachine()
{
    std::vector<ClusterDesc> clusters(2);
    for (ClusterDesc &c : clusters) {
        c.fu[0] = c.fu[1] = c.fu[2] = 2;
        c.regs = 16;
    }
    return MachineConfig("two-tier", std::move(clusters),
                         {BusDesc{1, 1}, BusDesc{1, 3}});
}

/** Producer on cluster 0, consumer placed on cluster 1 @p gap cycles
 *  later; returns the bus class the planned transfer rides. */
int
transferClassAtGap(const MachineConfig &m, int gap,
                   TransferCostPolicy transfer_cost)
{
    LatencyTable lat;
    DdgBuilder b("xfer", lat);
    NodeId p = b.op(Opcode::IAlu, "p");
    NodeId c = b.op(Opcode::IAlu, "c");
    b.flow(p, c);
    Ddg g = b.tripCount(4).build();

    PartialSchedule ps(g, m, /*ii=*/8, {}, transfer_cost);
    PlacementPlan first;
    ps.planPlacement(p, 0, 0, first);
    EXPECT_TRUE(first.feasible);
    ps.apply(first);
    PlacementPlan second;
    ps.planPlacement(c, 1, gap, second);
    EXPECT_TRUE(second.feasible);
    EXPECT_EQ(second.transfers.size(), 1u);
    if (second.transfers.empty())
        return -1; // the EXPECT above already failed the test
    EXPECT_TRUE(second.transfers[0].transfer.viaBus);
    return second.transfers[0].transfer.busClass;
}

} // namespace

TEST(TransferPolicy, SlackRichTransfersRideTheSlowClass)
{
    MachineConfig m = twoTierMachine();
    const TransferCostPolicy slack = TransferCostPolicy::SlackAware;

    // Window = gap - producer latency (1). The slow class (lat 3)
    // needs window >= 3 + margin 2 = 5, i.e. gap >= 6.
    EXPECT_EQ(transferClassAtGap(m, 7, slack), 1);
    EXPECT_EQ(transferClassAtGap(m, 6, slack), 1);
    EXPECT_EQ(transferClassAtGap(m, 5, slack), 0);
    EXPECT_EQ(transferClassAtGap(m, 3, slack), 0);

    const TransferCostPolicy fastest = TransferCostPolicy::FastestFirst;
    EXPECT_EQ(transferClassAtGap(m, 7, fastest), 0);
    EXPECT_EQ(transferClassAtGap(m, 3, fastest), 0);
}

// ---------------------------------------------------------------------
// Unit: capacity-balanced seeding. On a machine whose wide cluster
// owns no FP units, an FP-heavy loop must not end up with FP ops on
// the FP-less cluster, and the partition must schedule and validate.
// ---------------------------------------------------------------------

TEST(InitialAssignment, CapacityBalancedRespectsZeroFuClusters)
{
    LatencyTable lat;
    std::vector<ClusterDesc> clusters(2);
    clusters[0].name = "wide-int";
    clusters[0].fu[static_cast<int>(FuClass::Int)] = 4;
    clusters[0].fu[static_cast<int>(FuClass::Fp)] = 0;
    clusters[0].fu[static_cast<int>(FuClass::Mem)] = 2;
    clusters[0].regs = 16;
    clusters[1].name = "fp-side";
    clusters[1].fu[static_cast<int>(FuClass::Int)] = 1;
    clusters[1].fu[static_cast<int>(FuClass::Fp)] = 2;
    clusters[1].fu[static_cast<int>(FuClass::Mem)] = 1;
    clusters[1].regs = 16;
    MachineConfig m("intfarm-2c", std::move(clusters),
                    {BusDesc{2, 1}});

    Ddg g = diamondLoop(lat); // loads + FMul/FAdd + store

    GpPartitioner partitioner(m);
    GpPartitionResult result =
        partitioner.run(g, computeMii(g, m));

    for (NodeId v = 0; v < g.numNodes(); ++v) {
        if (fuClassOf(g.node(v).opcode) == FuClass::Fp) {
            EXPECT_EQ(result.partition.clusterOf(v), 1)
                << "FP op " << v << " seeded on the FP-less cluster";
        }
    }
    EXPECT_TRUE(result.estimate.resourcesOk);

    auto ps = scheduleLoop(g, m, ClusterPolicy::PreferAssigned,
                           &result.partition);
    ASSERT_TRUE(ps.has_value());
    auto v = validateSchedule(g, m, *ps);
    EXPECT_TRUE(v) << v.message;
}

// ---------------------------------------------------------------------
// The expected-bus-latency cost-model input: exact on single-class
// fabrics, capacity-weighted in between, clamped to >= 1.
// ---------------------------------------------------------------------

TEST(TransferPolicy, ExpectedBusLatencyModel)
{
    EXPECT_EQ(twoClusterConfig(32, 1).expectedBusLatency(), 1);
    EXPECT_EQ(twoClusterConfig(32, 2).expectedBusLatency(), 2);
    EXPECT_EQ(unifiedConfig(64).expectedBusLatency(), 1);

    std::vector<ClusterDesc> clusters(2);
    for (ClusterDesc &c : clusters) {
        c.fu[0] = c.fu[1] = c.fu[2] = 1;
        c.regs = 8;
    }
    // 1 bus @ lat 1 + 4 buses @ lat 4: 5 buses / (1 + 1) cap = 2.5
    // -> rounds to 3.
    MachineConfig m("mix", std::move(clusters),
                    {BusDesc{1, 1}, BusDesc{4, 4}});
    EXPECT_EQ(m.expectedBusLatency(), 3);
}
