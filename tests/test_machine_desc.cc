/**
 * @file
 * The machine-description layer: `.machine` parse/print round-trips,
 * line-numbered diagnostics for malformed files, the registry's
 * Table-1 presets (including bit-identical scheduling parity with
 * the direct constructors), heterogeneous machines end-to-end
 * through the schedule oracle, and LoopKey separation of machines
 * differing in a single cluster's FU mix.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/pipeline.hh"
#include "engine/engine.hh"
#include "engine/loop_key.hh"
#include "machine/configs.hh"
#include "machine/machine_desc.hh"
#include "machine/registry.hh"
#include "sched/mii.hh"
#include "sched/validate.hh"
#include "support/random.hh"
#include "testing/fixtures.hh"
#include "testing/machine_text.hh"
#include "workload/loop_shapes.hh"
#include "workload/specfp.hh"

using namespace gpsched;
using namespace gpsched::testing;

namespace
{

/** The heterogeneous example shipped under examples/machines/. */
MachineConfig
heteroTwoCluster()
{
    std::vector<ClusterDesc> clusters(2);
    clusters[0].name = "wide";
    clusters[0].fu[static_cast<int>(FuClass::Int)] = 3;
    clusters[0].fu[static_cast<int>(FuClass::Fp)] = 2;
    clusters[0].fu[static_cast<int>(FuClass::Mem)] = 2;
    clusters[0].regs = 24;
    clusters[1].name = "narrow";
    clusters[1].fu[static_cast<int>(FuClass::Int)] = 1;
    clusters[1].fu[static_cast<int>(FuClass::Fp)] = 1;
    clusters[1].fu[static_cast<int>(FuClass::Mem)] = 1;
    clusters[1].regs = 8;
    return MachineConfig("hetero-2c", std::move(clusters),
                         {BusDesc{1, 1}, BusDesc{1, 2}});
}

MachineParseError
expectParseFailure(const std::string &text)
{
    MachineParseError error;
    auto machine = parseMachineDescText(text, &error);
    EXPECT_FALSE(machine.has_value()) << "parsed: " << text;
    return error;
}

} // namespace

// --- general MachineConfig shapes ------------------------------------

TEST(MachineConfigGeneral, HeterogeneousAccessors)
{
    MachineConfig m = heteroTwoCluster();
    EXPECT_FALSE(m.homogeneous());
    EXPECT_EQ(m.numClusters(), 2);
    EXPECT_EQ(m.fuInCluster(0, FuClass::Int), 3);
    EXPECT_EQ(m.fuInCluster(1, FuClass::Int), 1);
    EXPECT_EQ(m.regsInCluster(0), 24);
    EXPECT_EQ(m.regsInCluster(1), 8);
    EXPECT_EQ(m.totalRegs(), 32);
    EXPECT_EQ(m.totalIssueWidth(), 10);
    EXPECT_EQ(m.totalFu(FuClass::Fp), 3);
    EXPECT_EQ(m.issueWidthOfCluster(0), 7);
    EXPECT_EQ(m.numBusClasses(), 2);
    EXPECT_EQ(m.numBuses(), 2);
    EXPECT_EQ(m.maxBusLatency(), 2);
}

TEST(MachineConfigGeneral, BusClassesSortFastestFirst)
{
    std::vector<ClusterDesc> clusters(2);
    clusters[0].regs = clusters[1].regs = 8;
    MachineConfig m("buses", std::move(clusters),
                    {BusDesc{2, 3}, BusDesc{1, 1}});
    EXPECT_EQ(m.busClass(0).latency, 1);
    EXPECT_EQ(m.busClass(1).latency, 3);
    EXPECT_EQ(m.busLatencyOf(1), 3);
}

TEST(MachineConfigGeneral, HomogeneousCtorMatchesGeneralCtor)
{
    MachineConfig legacy = twoClusterConfig(32, 2, 1);
    std::vector<ClusterDesc> clusters(2);
    for (ClusterDesc &cl : clusters) {
        cl.fu[0] = cl.fu[1] = cl.fu[2] = 2;
        cl.regs = 16;
    }
    MachineConfig general(legacy.name(), std::move(clusters),
                          {BusDesc{1, 2}});
    EXPECT_EQ(legacy, general);
}

TEST(MachineConfigGeneralDeathTest, InvalidShapesDie)
{
    std::vector<ClusterDesc> no_fp(2);
    no_fp[0].fu[static_cast<int>(FuClass::Fp)] = 0;
    no_fp[1].fu[static_cast<int>(FuClass::Fp)] = 0;
    EXPECT_DEATH(MachineConfig("bad", no_fp, {BusDesc{1, 1}}), "");

    std::vector<ClusterDesc> fine(2);
    EXPECT_DEATH(MachineConfig("bad", fine, {}), "");
}

// --- .machine parse/print --------------------------------------------

TEST(MachineDesc, WriterOutputRoundTripsExactly)
{
    for (const MachineConfig &m : table1Configs()) {
        MachineParseError error;
        auto parsed = parseMachineDescText(machineDescText(m), &error);
        ASSERT_TRUE(parsed.has_value())
            << m.name() << ": " << error.toString();
        EXPECT_EQ(*parsed, m) << m.name();
    }
    MachineConfig hetero = heteroTwoCluster();
    hetero.latencies().setTiming(Opcode::FDiv, OpTiming{24, 24});
    auto parsed = parseMachineDescText(machineDescText(hetero));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, hetero);
}

TEST(MachineDesc, ParsesHandWrittenHeterogeneousText)
{
    const char *text = "# comment\n"
                       "machine hetero-2c\n"
                       "cluster wide int 3 fp 2 mem 2 regs 24\n"
                       "\n"
                       "cluster narrow regs 8 mem 1 fp 1 int 1\n"
                       "buses 1 latency 2   # slow bus\n"
                       "buses 1 latency 1\n"
                       "end\n";
    auto parsed = parseMachineDescText(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, heteroTwoCluster());
}

TEST(MachineDesc, LatencyOverridesParse)
{
    const char *text = "machine one\n"
                       "cluster c0 int 2 fp 2 mem 2 regs 16\n"
                       "latency fdiv 24 occupancy 24\n"
                       "latency load 4\n"
                       "end\n";
    auto parsed = parseMachineDescText(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->latencies().latency(Opcode::FDiv), 24);
    EXPECT_EQ(parsed->latencies().occupancy(Opcode::FDiv), 24);
    EXPECT_EQ(parsed->latencies().latency(Opcode::Load), 4);
    // Omitted occupancy keeps the default table's value.
    LatencyTable defaults;
    EXPECT_EQ(parsed->latencies().occupancy(Opcode::Load),
              defaults.occupancy(Opcode::Load));
}

TEST(MachineDesc, MalformedFilesReportLineNumberedErrors)
{
    struct Case
    {
        const char *text;
        int line;
        const char *fragment;
    };
    const std::vector<Case> cases = {
        {"", 0, "empty description"},
        {"cluster c0 int 1 fp 1 mem 1 regs 4\n", 1,
         "starts with 'machine NAME'"},
        {"machine m\ncluster c0 int 1 fp 1 mem 1 regs 4\n", 2,
         "missing 'end'"},
        {"machine m\nclutser c0\nend\n", 2, "unknown directive"},
        {"machine m\ncluster c0 int 1 fp 1 mem 1\nend\n", 2,
         "cluster needs"},
        {"machine m\ncluster c0 int 1 fp 1 mem 1 regs 0\nend\n", 2,
         "must be >= 1"},
        {"machine m\ncluster c0 int x fp 1 mem 1 regs 4\nend\n", 2,
         "needs an integer"},
        {"machine m\ncluster c0 int 1 int 1 mem 1 regs 4\nend\n", 2,
         "duplicate cluster keyword"},
        {"machine m\n"
         "cluster c0 int 1 fp 1 mem 1 regs 4\n"
         "cluster c0 int 1 fp 1 mem 1 regs 4\n"
         "buses 1 latency 1\nend\n",
         3, "duplicate cluster name"},
        {"machine m\ncluster c0 int 1 fp 1 mem 1 regs 4\n"
         "buses 0 latency 1\nend\n",
         3, "must be >= 1"},
        {"machine m\ncluster c0 int 1 fp 1 mem 1 regs 4\n"
         "latency nosuchop 3\nend\n",
         3, "unknown opcode mnemonic"},
        {"machine m\n"
         "cluster a int 1 fp 1 mem 1 regs 4\n"
         "cluster b int 1 fp 1 mem 1 regs 4\n"
         "end\n",
         4, "need at least one bus"},
        {"machine m\ncluster c0 int 1 fp 0 mem 1 regs 4\nend\n", 3,
         "no FP unit in any cluster"},
        {"machine m\ncluster c0 int 1 fp 1 mem 1 regs 4\nend\n"
         "cluster c1 int 1 fp 1 mem 1 regs 4\n",
         4, "after 'end'"},
        {"machine m\nmachine again\nend\n", 2,
         "duplicate 'machine'"},
    };
    for (const Case &c : cases) {
        MachineParseError error = expectParseFailure(c.text);
        EXPECT_EQ(error.line, c.line) << error.toString();
        EXPECT_NE(error.message.find(c.fragment), std::string::npos)
            << error.toString();
        EXPECT_NE(error.toString().find(":" +
                                        std::to_string(c.line) + ":"),
                  std::string::npos)
            << error.toString();
    }
}

TEST(MachineDesc, UnreadableFileIsAParseError)
{
    MachineParseError error;
    auto machine =
        parseMachineDescFile("/nonexistent/nope.machine", &error);
    EXPECT_FALSE(machine.has_value());
    EXPECT_NE(error.message.find("cannot open"), std::string::npos);
}

TEST(MachineDesc, ShippedExampleFilesParse)
{
    for (const char *name :
         {"hetero_2c.machine", "fpless_3c.machine"}) {
        std::string path =
            std::string(GPSCHED_SOURCE_DIR "/examples/machines/") +
            name;
        MachineParseError error;
        auto machine = parseMachineDescFile(path, &error);
        ASSERT_TRUE(machine.has_value()) << error.toString();
        EXPECT_FALSE(machine->homogeneous()) << name;
    }
}

// --- registry ---------------------------------------------------------

TEST(MachineRegistry, ServesEveryTable1Preset)
{
    const MachineRegistry &registry = MachineRegistry::builtin();
    std::vector<MachineConfig> presets = table1Configs();
    ASSERT_EQ(registry.size(), static_cast<int>(presets.size()));
    for (const MachineConfig &preset : presets) {
        const MachineConfig *served = registry.find(preset.name());
        ASSERT_NE(served, nullptr) << preset.name();
        EXPECT_EQ(*served, preset) << preset.name();
    }
    EXPECT_EQ(registry.find("no-such-machine"), nullptr);
}

TEST(MachineRegistry, ResolvesNamesAndFiles)
{
    const MachineRegistry &registry = MachineRegistry::builtin();
    EXPECT_EQ(registry.resolve("4c-r64-b2").name(), "4c-r64-b2");
    MachineConfig hetero = registry.resolve(
        GPSCHED_SOURCE_DIR "/examples/machines/hetero_2c.machine");
    EXPECT_EQ(hetero.name(), "hetero-2c");
    EXPECT_FALSE(hetero.homogeneous());
}

/**
 * The acceptance-criteria parity regression: Table-1 presets routed
 * through the description layer (write -> parse -> schedule) must
 * reproduce bit-identical suite results versus the directly
 * constructed presets, under every scheme, on a figure-2-style
 * workload slice.
 */
TEST(MachineRegistry, DescriptionRoutedPresetsScheduleIdentically)
{
    LatencyTable lat;
    std::vector<Program> suite = specFp95Suite(lat);
    suite.resize(2); // keep the parity sweep fast but end-to-end

    const MachineRegistry &registry = MachineRegistry::builtin();
    for (const MachineConfig &preset :
         {twoClusterConfig(32, 1), fourClusterConfig(64, 2)}) {
        MachineConfig routed = registry.resolve(preset.name());
        ASSERT_EQ(routed, preset);
        for (SchedulerKind kind :
             {SchedulerKind::Uracam, SchedulerKind::FixedPartition,
              SchedulerKind::Gp}) {
            SuiteResult direct = compileSuite(suite, preset, kind);
            SuiteResult via = compileSuite(suite, routed, kind);
            ASSERT_EQ(direct.programs.size(), via.programs.size());
            EXPECT_EQ(direct.meanIpc, via.meanIpc);
            for (std::size_t p = 0; p < direct.programs.size(); ++p) {
                EXPECT_EQ(direct.programs[p].totalCycles,
                          via.programs[p].totalCycles);
                EXPECT_EQ(direct.programs[p].totalOps,
                          via.programs[p].totalOps);
                ASSERT_EQ(direct.programs[p].loops.size(),
                          via.programs[p].loops.size());
                for (std::size_t l = 0;
                     l < direct.programs[p].loops.size(); ++l) {
                    EXPECT_EQ(direct.programs[p].loops[l].ii,
                              via.programs[p].loops[l].ii);
                    EXPECT_EQ(
                        direct.programs[p].loops[l].scheduleLength,
                        via.programs[p].loops[l].scheduleLength);
                }
            }
        }
    }
}

// --- heterogeneous machines end-to-end --------------------------------

TEST(HeterogeneousMachine, SchedulesValidateAgainstTheOracle)
{
    LatencyTable lat;
    MachineConfig hetero = heteroTwoCluster();
    Rng master(0x8e7e60ULL);
    int validated = 0;
    for (int i = 0; i < 12; ++i) {
        Rng rng(master.next());
        RandomLoopParams params;
        params.numOps = static_cast<int>(rng.nextRange(6, 32));
        params.memFraction = 0.1 + 0.3 * rng.nextDouble();
        params.fpFraction = 0.2 + 0.4 * rng.nextDouble();
        params.carriedProb = 0.3 * rng.nextDouble();
        params.tripCount = rng.nextRange(4, 200);
        Ddg g = randomLoop("het" + std::to_string(i), lat, rng,
                           params);
        auto ps = scheduleLoop(g, hetero, ClusterPolicy::FreeChoice);
        if (!ps.has_value())
            continue;
        auto v = validateSchedule(g, hetero, *ps);
        EXPECT_TRUE(v) << "loop " << i << ": " << v.message;
        ++validated;
    }
    EXPECT_GE(validated, 6) << "hetero sweep mostly failed to "
                               "schedule";
}

TEST(HeterogeneousMachine, FpOpsLandOnFpCapableClustersOnly)
{
    LatencyTable lat;
    MachineConfig fpless = loadMachineFile(
        GPSCHED_SOURCE_DIR "/examples/machines/fpless_3c.machine");
    Ddg g = diamondLoop(lat); // loads + FMul/FAdd + store
    auto ps = scheduleLoop(g, fpless, ClusterPolicy::FreeChoice);
    ASSERT_TRUE(ps.has_value());
    auto v = validateSchedule(g, fpless, *ps);
    ASSERT_TRUE(v) << v.message;
    for (NodeId n = 0; n < g.numNodes(); ++n) {
        if (fuClassOf(g.node(n).opcode) == FuClass::Fp) {
            EXPECT_EQ(ps->clusterOf(n), 0)
                << "FP op scheduled on an FP-less cluster";
        }
    }
}

TEST(HeterogeneousMachine, EngineCompilesHeteroBatch)
{
    LatencyTable lat;
    MachineConfig hetero = heteroTwoCluster();
    Ddg diamond = diamondLoop(lat);
    Ddg chain = chainLoop(6, lat);
    Engine engine;
    std::vector<EngineJob> batch = {
        EngineJob{&diamond, &hetero, SchedulerKind::Gp, {}},
        EngineJob{&chain, &hetero, SchedulerKind::Gp, {}},
    };
    std::vector<CompiledLoop> results =
        unwrapAll(engine.compileBatch(batch));
    ASSERT_EQ(results.size(), 2u);
    for (const CompiledLoop &loop : results)
        EXPECT_GT(loop.ipc, 0.0);
}

// --- LoopKey separation ----------------------------------------------

TEST(LoopKeyMachine, OneClusterFuMixDifferenceChangesTheKey)
{
    LatencyTable lat;
    Ddg loop = diamondLoop(lat);

    MachineConfig base = heteroTwoCluster();
    std::vector<ClusterDesc> tweaked;
    for (int c = 0; c < base.numClusters(); ++c)
        tweaked.push_back(base.cluster(c));
    // Swap one INT unit for an FP unit in the narrow cluster: total
    // issue width is unchanged, only the mix of one cluster differs.
    tweaked[1].fu[static_cast<int>(FuClass::Int)] = 0;
    tweaked[1].fu[static_cast<int>(FuClass::Fp)] = 2;
    MachineConfig variant("hetero-2c", tweaked,
                          {BusDesc{1, 1}, BusDesc{1, 2}});

    LoopKey ka =
        makeLoopKey(loop, base, SchedulerKind::Gp, {});
    LoopKey kb =
        makeLoopKey(loop, variant, SchedulerKind::Gp, {});
    EXPECT_NE(ka, kb);

    // Register-file placement matters too: same totals, different
    // per-cluster split.
    std::vector<ClusterDesc> reshuffled;
    for (int c = 0; c < base.numClusters(); ++c)
        reshuffled.push_back(base.cluster(c));
    reshuffled[0].regs = 16;
    reshuffled[1].regs = 16;
    MachineConfig regsplit("hetero-2c", reshuffled,
                           {BusDesc{1, 1}, BusDesc{1, 2}});
    EXPECT_NE(ka, makeLoopKey(loop, regsplit, SchedulerKind::Gp, {}));

    // And bus classes: merging the two classes into one changes the
    // key even at an equal total bus count.
    std::vector<ClusterDesc> same;
    for (int c = 0; c < base.numClusters(); ++c)
        same.push_back(base.cluster(c));
    MachineConfig onebus("hetero-2c", same, {BusDesc{2, 1}});
    EXPECT_NE(ka, makeLoopKey(loop, onebus, SchedulerKind::Gp, {}));
}

// --- engine coalescing (satellite regression) -------------------------

TEST(EngineCoalescing, ManyDuplicateJobsCompileOncePerUniqueKey)
{
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(64, 1);
    Ddg diamond = diamondLoop(lat);
    Ddg chain = chainLoop(8, lat);

    EngineOptions options;
    options.jobs = 8;
    Engine engine(options);

    // 64 concurrently submitted jobs over exactly two unique keys.
    std::vector<EngineJob> batch;
    for (int i = 0; i < 32; ++i) {
        batch.push_back(EngineJob{&diamond, &m, SchedulerKind::Gp, {}});
        batch.push_back(EngineJob{&chain, &m, SchedulerKind::Gp, {}});
    }
    std::vector<CompiledLoop> results =
        unwrapAll(engine.compileBatch(batch));
    ASSERT_EQ(results.size(), batch.size());

    auto count = [&](const char *name) {
        return engine.metrics().counterValue(name);
    };
    EXPECT_EQ(count("engine.jobsSubmitted"), batch.size());
    // One actual compilation per unique key; every other submission
    // was served by the cache or awaited the in-flight compile.
    EXPECT_EQ(count("engine.cacheMisses"), 2u);
    EXPECT_EQ(count("engine.cacheHits") + count("engine.coalesced") +
                  count("engine.cacheMisses"),
              count("engine.jobsSubmitted"));

    // Results are the duplicates' own names with identical schedules.
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(results[i].loopName, batch[i].loop->name());
        EXPECT_EQ(results[i].ii, results[i % 2].ii);
    }
}
