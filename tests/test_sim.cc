/**
 * @file
 * Unit tests of the cycle-accurate replay simulator (src/sim/):
 * compiled fixture loops replay to exactly the metrics the compiler
 * reported, the PartialSchedule overload agrees with the schedule's
 * own II, list-scheduled loops are cross-checked without a kernel
 * replay, hand-built broken schedules trip the right SimFault, a
 * digest pins every replay output of the specfp suite and of short
 * trip counts, and concurrent replays share no scratch.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/gp_scheduler.hh"
#include "engine/loop_key.hh"
#include "machine/configs.hh"
#include "sched/validate.hh"
#include "serialize/bytes.hh"
#include "sim/replay.hh"
#include "sim/sim.hh"
#include "support/random.hh"
#include "testing/fixtures.hh"
#include "workload/loop_shapes.hh"
#include "workload/specfp.hh"

using namespace gpsched;
using namespace gpsched::testing;

namespace
{

std::vector<Ddg>
fixtureLoops(const LatencyTable &lat)
{
    std::vector<Ddg> loops;
    loops.push_back(chainLoop(8, lat));
    loops.push_back(parallelLoop(6, lat));
    loops.push_back(recurrenceLoop(lat));
    loops.push_back(diamondLoop(lat));
    loops.push_back(memHeavyLoop(6, lat));
    return loops;
}

/** Minimal well-formed CompiledLoop skeleton for hand-built cases. */
CompiledLoop
emptyLoop(const Ddg &ddg, int ii)
{
    CompiledLoop loop;
    loop.loopName = ddg.name();
    loop.moduloScheduled = true;
    loop.ii = ii;
    loop.placements.resize(ddg.numNodes());
    return loop;
}

} // namespace

TEST(Sim, CompiledFixturesReplayToReportedMetrics)
{
    LatencyTable lat;
    std::vector<MachineConfig> machines = {twoClusterConfig(32, 1),
                                           fourClusterConfig(64, 2)};
    for (const MachineConfig &m : machines) {
        for (SchedulerKind kind :
             {SchedulerKind::Uracam, SchedulerKind::FixedPartition,
              SchedulerKind::Gp}) {
            for (const Ddg &g : fixtureLoops(lat)) {
                CompiledLoop loop =
                    LoopCompiler(m, kind).compile(g);
                sim::SimResult s = sim::simulate(g, m, loop);
                ASSERT_TRUE(s.simOk)
                    << g.name() << " on " << m.name() << ": "
                    << (s.fault ? s.fault->toString() : "");
                if (!loop.moduloScheduled) {
                    EXPECT_FALSE(s.replayed);
                    EXPECT_EQ(s.achievedII, 0);
                } else {
                    EXPECT_TRUE(s.replayed);
                    EXPECT_EQ(s.achievedII, loop.ii)
                        << g.name() << " on " << m.name();
                }
                EXPECT_EQ(s.simCycles, loop.cycles)
                    << g.name() << " on " << m.name();
                EXPECT_EQ(s.achievedIpc, loop.ipc)
                    << g.name() << " on " << m.name();
            }
        }
    }
}

TEST(Sim, PartialScheduleReplayAgreesWithScheduleState)
{
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(64, 2);
    for (const Ddg &g : fixtureLoops(lat)) {
        auto ps = scheduleLoop(g, m);
        ASSERT_TRUE(ps.has_value()) << g.name();
        sim::SimResult s = sim::simulate(g, m, *ps);
        ASSERT_TRUE(s.simOk)
            << g.name() << ": "
            << (s.fault ? s.fault->toString() : "");
        EXPECT_EQ(s.achievedII, ps->ii()) << g.name();
        EXPECT_GT(s.iterationsSimulated, 0);
        // The replayed peak pressure can never exceed the schedule's
        // folded (steady-state) bookkeeping.
        ASSERT_EQ(static_cast<int>(s.maxLive.size()),
                  m.numClusters());
        for (int c = 0; c < m.numClusters(); ++c)
            EXPECT_LE(s.maxLive[c], ps->maxLive(c))
                << g.name() << " cluster " << c;
    }
}

TEST(Sim, ListScheduledLoopCrossCheckedWithoutReplay)
{
    LatencyTable lat;
    Ddg g = chainLoop(3, lat);
    g.setTripCount(25);
    CompiledLoop loop;
    loop.loopName = g.name();
    loop.moduloScheduled = false;
    loop.ii = 0;
    loop.scheduleLength = 7;
    MachineConfig m = twoClusterConfig(32, 1);

    sim::SimResult s = sim::simulate(g, m, loop);
    EXPECT_TRUE(s.simOk);
    EXPECT_FALSE(s.replayed);
    EXPECT_EQ(s.achievedII, 0);
    EXPECT_EQ(s.simCycles, 7 * 25);
    EXPECT_EQ(s.achievedIpc, static_cast<double>(3 * 25) / (7 * 25));
}

TEST(Sim, MissingTransferFaults)
{
    LatencyTable lat;
    Ddg g("cross");
    NodeId a = g.addNode(Opcode::IAlu);
    NodeId b = g.addNode(Opcode::IAlu);
    g.addEdge(a, b, lat.latency(Opcode::IAlu));
    MachineConfig m = twoClusterConfig(32, 1);

    CompiledLoop loop = emptyLoop(g, 1);
    loop.placements[a] = {0, 0};
    loop.placements[b] = {1, 5}; // other cluster, no transfer
    sim::SimResult s = sim::simulate(g, m, loop);
    ASSERT_FALSE(s.simOk);
    ASSERT_TRUE(s.fault.has_value());
    EXPECT_EQ(s.fault->kind, sim::SimFaultKind::MissingTransfer);
    EXPECT_NE(s.fault->toString().find("MissingTransfer"),
              std::string::npos);
    // The static validator agrees.
    EXPECT_FALSE(validateSchedule(g, m, loop).valid);
}

TEST(Sim, DependenceViolationFaults)
{
    LatencyTable lat;
    Ddg g("dep");
    NodeId a = g.addNode(Opcode::IAlu);
    NodeId b = g.addNode(Opcode::IAlu);
    g.addEdge(a, b, lat.latency(Opcode::IAlu));
    MachineConfig m = twoClusterConfig(32, 1);

    CompiledLoop loop = emptyLoop(g, 4);
    loop.placements[a] = {0, 0};
    loop.placements[b] = {0, 0}; // issues with its producer
    sim::SimResult s = sim::simulate(g, m, loop);
    ASSERT_FALSE(s.simOk);
    ASSERT_TRUE(s.fault.has_value());
    EXPECT_TRUE(s.fault->kind ==
                    sim::SimFaultKind::DependenceViolation ||
                s.fault->kind == sim::SimFaultKind::ReadBeforeWrite)
        << s.fault->toString();
    EXPECT_FALSE(validateSchedule(g, m, loop).valid);
}

TEST(Sim, RegisterOverflowFaults)
{
    LatencyTable lat;
    Ddg g("pressure");
    NodeId a = g.addNode(Opcode::IAlu);
    NodeId b = g.addNode(Opcode::IAlu);
    NodeId ua = g.addNode(Opcode::IAlu);
    NodeId ub = g.addNode(Opcode::IAlu);
    g.addEdge(a, ua, lat.latency(Opcode::IAlu));
    g.addEdge(b, ub, lat.latency(Opcode::IAlu));

    // One cluster, one register: two simultaneously-live values
    // cannot fit.
    MachineConfig m("tiny", {{"c0", {2, 1, 1}, 1}}, {});

    CompiledLoop loop = emptyLoop(g, 4);
    loop.placements[a] = {0, 0};
    loop.placements[b] = {0, 1};
    loop.placements[ua] = {0, 5};
    loop.placements[ub] = {0, 6};
    sim::SimResult s = sim::simulate(g, m, loop);
    ASSERT_FALSE(s.simOk);
    ASSERT_TRUE(s.fault.has_value());
    EXPECT_EQ(s.fault->kind, sim::SimFaultKind::RegisterOverflow)
        << s.fault->toString();
    EXPECT_FALSE(validateSchedule(g, m, loop).valid);
}

TEST(Sim, MalformedScheduleFaults)
{
    LatencyTable lat;
    Ddg g = chainLoop(2, lat);
    MachineConfig m = twoClusterConfig(32, 1);

    CompiledLoop truncated = emptyLoop(g, 1);
    truncated.placements.pop_back();
    sim::SimResult s = sim::simulate(g, m, truncated);
    ASSERT_FALSE(s.simOk);
    EXPECT_EQ(s.fault->kind, sim::SimFaultKind::MalformedSchedule);

    CompiledLoop badIi = emptyLoop(g, 0);
    badIi.moduloScheduled = true;
    s = sim::simulate(g, m, badIi);
    ASSERT_FALSE(s.simOk);
    EXPECT_EQ(s.fault->kind, sim::SimFaultKind::MalformedSchedule);
}

namespace
{

/** Appends every replay output of @p s to @p out. */
void
digestResult(const sim::SimResult &s, ByteWriter &out)
{
    out.i32(s.achievedII);
    out.i64(s.simCycles);
    out.f64(s.achievedIpc);
    out.i64(s.iterationsSimulated);
    for (int live : s.maxLive)
        out.i32(live);
}

} // namespace

TEST(Sim, ReplayOutputsArePinned)
{
    // Every specfp record on the 12 perfbench machines (each Figure
    // 2/3 clustered machine under all three schemes, plus URACAM on
    // the unified machine of its register count), then short trips
    // (1-4) with carried distances up to 3: there the last replayed
    // iterations have consumers that never run (j + distance >=
    // trip), which shortens the replayed lifetimes.
    LatencyTable lat;
    ByteWriter bytes;
    int records = 0;
    auto replay = [&](const Ddg &g, const MachineConfig &m,
                      SchedulerKind kind) {
        CompiledLoop loop = LoopCompiler(m, kind).compile(g);
        sim::SimResult s = sim::simulate(g, m, loop);
        ASSERT_TRUE(s.simOk)
            << g.name() << " on " << m.name() << ": "
            << (s.fault ? s.fault->toString() : "");
        digestResult(s, bytes);
        ++records;
    };
    const SchedulerKind schemes[] = {SchedulerKind::Uracam,
                                     SchedulerKind::FixedPartition,
                                     SchedulerKind::Gp};
    const std::vector<MachineConfig> clustered = {
        twoClusterConfig(32, 1),  twoClusterConfig(64, 1),
        fourClusterConfig(32, 1), fourClusterConfig(64, 1),
        fourClusterConfig(32, 2), fourClusterConfig(64, 2)};
    for (const Program &program : specFp95Suite(lat)) {
        for (const Ddg &g : program.loops) {
            for (const MachineConfig &m : clustered) {
                replay(g, unifiedConfig(m.totalRegs()),
                       SchedulerKind::Uracam);
                for (SchedulerKind kind : schemes)
                    replay(g, m, kind);
            }
        }
    }
    EXPECT_EQ(records, 1536);

    Rng master(0x7a11ULL);
    int tailLoops = 0;
    for (int i = 0; i < 24; ++i) {
        Rng rng(master.next());
        RandomLoopParams params;
        params.numOps = 6 + i % 10;
        params.carriedProb = 0.5;
        params.maxDistance = 3;
        params.tripCount = 1 + i % 4;
        Ddg g = randomLoop("tail" + std::to_string(i), lat, rng, params);
        for (EdgeId e = 0; e < g.numEdges(); ++e) {
            if (g.edge(e).isFlow() &&
                g.edge(e).distance >= g.tripCount()) {
                ++tailLoops;
                break;
            }
        }
        for (const MachineConfig &m :
             {twoClusterConfig(32, 1), fourClusterConfig(32, 2)}) {
            for (SchedulerKind kind : schemes)
                replay(g, m, kind);
        }
    }
    EXPECT_GE(tailLoops, 8) << "too few loops reach the tail path";
    EXPECT_EQ(hexDigest(fnv1a64(bytes.buffer())), "4d55476dda193101");
}

namespace
{

/** A clean record of two unconnected IAlu ops issued @p gap cycles
 *  apart in clusters 0 and 1: a long replay timeline at II 1. */
std::pair<Ddg, CompiledLoop>
longTimelineRecord(const MachineConfig &m, int gap)
{
    Ddg g("long" + std::to_string(gap));
    g.addNode(Opcode::IAlu);
    g.addNode(Opcode::IAlu);
    CompiledLoop loop = emptyLoop(g, 1);
    loop.placements[0] = {0, 0};
    loop.placements[1] = {1, gap};
    loop.scheduleLength = gap + 1;
    sim::SimResult s = sim::simulate(g, m, loop);
    loop.cycles = s.simCycles;
    loop.ipc = s.achievedIpc;
    return {std::move(g), std::move(loop)};
}

bool
sameVerdict(const sim::Verdict &a, const sim::Verdict &b)
{
    const sim::SimResult &x = a.sim, &y = b.sim;
    bool sameFault = x.fault.has_value() == y.fault.has_value();
    if (sameFault && x.fault) {
        sameFault = x.fault->kind == y.fault->kind &&
                    x.fault->cycle == y.fault->cycle &&
                    x.fault->node == y.fault->node &&
                    x.fault->detail == y.fault->detail;
    }
    return a.kind == b.kind && a.detail == b.detail &&
           x.simOk == y.simOk && x.replayed == y.replayed &&
           x.achievedII == y.achievedII &&
           x.simCycles == y.simCycles &&
           x.achievedIpc == y.achievedIpc &&
           x.iterationsSimulated == y.iterationsSimulated &&
           x.maxLive == y.maxLive && sameFault;
}

} // namespace

TEST(Sim, ConcurrentVerificationMatchesSingleThread)
{
    // Both oracles keep per-thread scratch that grows with the
    // record and is released above a size cap. Four threads verify
    // interleaved records (short and long timelines, 2 and 4
    // clusters, clean and faulty), so every thread's scratch grows
    // and shrinks; each verdict must equal the single-thread one.
    LatencyTable lat;
    std::vector<MachineConfig> machines = {twoClusterConfig(32, 1),
                                           fourClusterConfig(64, 2)};
    struct Record
    {
        Ddg ddg;
        CompiledLoop loop;
        const MachineConfig *machine;
    };
    std::vector<Record> records;
    for (const MachineConfig &m : machines) {
        int gap = 0;
        for (const Ddg &g : fixtureLoops(lat)) {
            records.push_back(
                {g, LoopCompiler(m, SchedulerKind::Gp).compile(g), &m});
            gap += 10000;
            auto [long_g, long_loop] = longTimelineRecord(m, gap);
            records.push_back({long_g, long_loop, &m});
        }
        // Double-booked: both IAlu ops in cluster 0 at one slot.
        auto [g, loop] = longTimelineRecord(m, 4);
        loop.placements[1] = {0, 4};
        records.push_back({g, loop, &m});
    }

    std::vector<sim::Verdict> expected;
    for (const Record &r : records)
        expected.push_back(
            sim::verifyCompiled(r.ddg, *r.machine, r.loop));
    EXPECT_FALSE(expected.back().ok());

    constexpr int kThreads = 4;
    constexpr int kRounds = 3;
    std::vector<std::vector<sim::Verdict>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const std::size_t n = records.size();
            got[t].resize(n * kRounds);
            for (std::size_t i = 0; i < n * kRounds; ++i) {
                const Record &r = records[(i + t) % n];
                got[t][i] =
                    sim::verifyCompiled(r.ddg, *r.machine, r.loop);
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t) {
        for (std::size_t i = 0; i < got[t].size(); ++i) {
            std::size_t r = (i + t) % records.size();
            EXPECT_TRUE(sameVerdict(got[t][i], expected[r]))
                << "thread " << t << " record " << r << ": "
                << got[t][i].detail << " vs " << expected[r].detail;
        }
    }
}
