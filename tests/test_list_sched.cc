/**
 * @file
 * Unit tests for the list-scheduling fallback: precedence and
 * resource correctness of one acyclic iteration, cluster-aware
 * transfers, and schedule-length bounds.
 */

#include <gtest/gtest.h>

#include "graph/ddg_builder.hh"
#include "machine/configs.hh"
#include "sched/list_sched.hh"
#include "testing/fixtures.hh"
#include "workload/fuzz.hh"
#include "workload/loop_shapes.hh"

using namespace gpsched;
using namespace gpsched::testing;

namespace
{

/** Independently recounts resource usage per (cluster,class,cycle). */
void
expectResourcesRespected(const Ddg &g, const MachineConfig &m,
                         const ListScheduleResult &r)
{
    const LatencyTable &lat = m.latencies();
    std::map<std::tuple<int, int, int>, int> usage;
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        Opcode op = g.node(v).opcode;
        int cls = static_cast<int>(fuClassOf(op));
        for (int i = 0; i < lat.occupancy(op); ++i)
            ++usage[{r.cluster[v], cls, r.cycle[v] + i}];
    }
    for (const auto &[key, used] : usage) {
        auto [cluster, cls, cycle] = key;
        EXPECT_LE(used,
                  m.fuPerCluster(static_cast<FuClass>(cls)))
            << "cluster " << cluster << " class " << cls << " cycle "
            << cycle;
    }
}

/** Checks every distance-0 dependence. */
void
expectPrecedenceRespected(const Ddg &g, const ListScheduleResult &r,
                          const MachineConfig &m)
{
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const DdgEdge &edge = g.edge(e);
        if (edge.distance != 0 || edge.src == edge.dst)
            continue;
        int min_delay = edge.latency;
        if (edge.isFlow() &&
            r.cluster[edge.src] != r.cluster[edge.dst]) {
            min_delay += m.busLatencyOf(0);
        }
        EXPECT_GE(r.cycle[edge.dst], r.cycle[edge.src] + min_delay)
            << "edge " << e;
    }
}

/**
 * Counts distance-0 edges that break the validator's rule,
 * cycle[dst] >= cycle[src] + latency. Unlike
 * expectPrecedenceRespected it adds no bus latency: a consumer
 * served by a transfer already sent to its cluster may legitimately
 * issue sooner than a fresh transfer would allow.
 */
int
distanceZeroViolations(const Ddg &g, const ListScheduleResult &r)
{
    int violations = 0;
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const DdgEdge &edge = g.edge(e);
        if (edge.distance == 0 && edge.src != edge.dst &&
            r.cycle[edge.dst] < r.cycle[edge.src] + edge.latency)
            ++violations;
    }
    return violations;
}

} // namespace

TEST(ListSched, ChainLengthEqualsCriticalPath)
{
    LatencyTable lat;
    Ddg g = chainLoop(5, lat); // 5 unit-latency ops
    MachineConfig m = unifiedConfig(32);
    ListScheduleResult r = listSchedule(g, m);
    EXPECT_EQ(r.scheduleLength, 5);
    expectPrecedenceRespected(g, r, m);
}

TEST(ListSched, ParallelOpsLimitedByIssueWidth)
{
    LatencyTable lat;
    Ddg g = parallelLoop(9, lat);
    MachineConfig m = twoClusterConfig(32, 1); // 4 INT units total
    ListScheduleResult r = listSchedule(g, m);
    // ceil(9/4) = 3 issue rounds of latency-1 ops.
    EXPECT_EQ(r.scheduleLength, 3);
    expectResourcesRespected(g, m, r);
}

TEST(ListSched, CrossClusterDependenceAddsBusDelay)
{
    LatencyTable lat;
    // More parallel chains than one cluster's INT units force a
    // split; any cut chain must absorb the bus latency.
    Ddg g = memHeavyLoop(10, lat);
    MachineConfig m = fourClusterConfig(32, 1);
    ListScheduleResult r = listSchedule(g, m);
    expectPrecedenceRespected(g, r, m);
    expectResourcesRespected(g, m, r);
}

TEST(ListSched, LoopCarriedEdgesDoNotConstrainWithinIteration)
{
    LatencyTable lat;
    Ddg g = recurrenceLoop(lat);
    MachineConfig m = unifiedConfig(32);
    ListScheduleResult r = listSchedule(g, m);
    // One iteration: FMul then FAdd = 4 + 3 cycles.
    EXPECT_EQ(r.scheduleLength, 7);
}

TEST(ListSched, EmptyGraph)
{
    Ddg g;
    MachineConfig m = unifiedConfig(32);
    ListScheduleResult r = listSchedule(g, m);
    EXPECT_EQ(r.scheduleLength, 0);
}

TEST(ListSched, TransfersCounted)
{
    LatencyTable lat;
    // 13 independent INT ops exceed one cluster of the 2-cluster
    // machine; producers and consumers split across clusters create
    // transfers in richer graphs. Build an explicit fan-out.
    DdgBuilder b("fan", lat);
    NodeId src = b.op(Opcode::Load);
    for (int i = 0; i < 8; ++i) {
        NodeId c = b.op(Opcode::FAdd);
        b.flow(src, c);
    }
    Ddg g = b.tripCount(10).build();
    MachineConfig m = twoClusterConfig(32, 1); // 2 FP units/cluster
    ListScheduleResult r = listSchedule(g, m);
    expectPrecedenceRespected(g, r, m);
    expectResourcesRespected(g, m, r);
    // 8 FAdds over 2+2 FP units: both clusters work, so the value
    // of src crosses at least once.
    EXPECT_GE(r.busTransfers, 1);
}

TEST(ListSched, DeterministicAcrossRuns)
{
    LatencyTable lat;
    Rng rng(31);
    Ddg g = randomLoop("r", lat, rng);
    MachineConfig m = fourClusterConfig(32, 1);
    ListScheduleResult a = listSchedule(g, m);
    ListScheduleResult b = listSchedule(g, m);
    EXPECT_EQ(a.cycle, b.cycle);
    EXPECT_EQ(a.cluster, b.cluster);
}

// Parameterized sweep: random loops on every machine obey
// precedence and resources.
class ListSchedSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>>
{
};

TEST_P(ListSchedSweep, RandomLoopsRespectAllConstraints)
{
    auto [seed, machine] = GetParam();
    LatencyTable lat;
    Rng rng(seed);
    RandomLoopParams params;
    params.numOps = 30;
    Ddg g = randomLoop("r", lat, rng, params);
    MachineConfig m = machine == 0   ? unifiedConfig(32)
                      : machine == 1 ? twoClusterConfig(32, 1)
                                     : fourClusterConfig(32, 2);
    ListScheduleResult r = listSchedule(g, m);
    expectPrecedenceRespected(g, r, m);
    expectResourcesRespected(g, m, r);
    EXPECT_GT(r.scheduleLength, 0);
}

// The pinned fuzz corpus (200 loops) on the 13-machine fuzz list,
// sharded over the sweep's parameters: seed k takes the cases
// i % 5 == k - 1, machine index m the machines j % 3 == m. Its
// latency-inflated edges catch a consumer that reuses an earlier
// transfer yet issues before its own edge latency has elapsed.
TEST_P(ListSchedSweep, FuzzCorpusRespectsDistanceZeroEdges)
{
    auto [seed, machine] = GetParam();
    LatencyTable lat;
    std::vector<fuzz::FuzzMachine> machines =
        fuzz::fuzzMachines(GPSCHED_SOURCE_DIR "/examples/machines");
    for (int i = static_cast<int>(seed) - 1; i < 200; i += 5) {
        Ddg g = fuzz::corpusCase(0xf022c0de5eedULL, i, lat).ddg;
        for (std::size_t j = static_cast<std::size_t>(machine);
             j < machines.size(); j += 3) {
            ListScheduleResult r =
                listSchedule(g, machines[j].config);
            EXPECT_EQ(distanceZeroViolations(g, r), 0)
                << "corpus case " << i << " on " << machines[j].spec;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsTimesMachines, ListSchedSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                       ::testing::Values(0, 1, 2)));
