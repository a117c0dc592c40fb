/**
 * @file
 * Mutation-kill tests for the oracle pair: systematic corruptions of
 * known-good compiled schedules must be rejected by BOTH the static
 * validator (sched/validate.hh) and the replay simulator
 * (sim/sim.hh). Each oracle recomputes correctness independently —
 * the validator by folding one iteration into II kernel slots, the
 * simulator by unrolling iterations onto an absolute timeline — so a
 * mutant surviving either one would mean that oracle is vacuous for
 * that fault class.
 *
 * Mutations exercised: shift one placement across a dependence, drop
 * a transfer, retime a transfer's arrival, swap a bus transfer onto
 * a different-latency (and an unknown) bus class, break a spill
 * split's store/reload ordering, shrink a register file below the
 * measured peak pressure, double-book a functional unit, a memory
 * port and a bus, move a read into a spill gap, and add a transfer
 * nothing reads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/gp_scheduler.hh"
#include "machine/configs.hh"
#include "machine/registry.hh"
#include "sched/validate.hh"
#include "sim/replay.hh"
#include "support/random.hh"
#include "testing/fixtures.hh"
#include "workload/loop_shapes.hh"

using namespace gpsched;
using namespace gpsched::testing;

namespace
{

/** Compiles @p ddg with GP and asserts the oracles accept it. */
std::optional<CompiledLoop>
goodLoop(const Ddg &ddg, const MachineConfig &machine)
{
    CompiledLoop loop =
        LoopCompiler(machine, SchedulerKind::Gp).compile(ddg);
    if (!loop.moduloScheduled)
        return std::nullopt;
    sim::Verdict verdict = sim::verifyCompiled(ddg, machine, loop);
    EXPECT_TRUE(verdict.ok()) << ddg.name() << " on " << machine.name()
                              << ": " << verdict.detail;
    if (!verdict.ok())
        return std::nullopt;
    return loop;
}

/** Both oracles must reject @p mutant, and the contract must say
 *  so with one verdict. */
void
expectBothReject(const Ddg &ddg, const MachineConfig &machine,
                 const CompiledLoop &mutant, const std::string &what)
{
    ValidationResult v = validateSchedule(ddg, machine, mutant);
    EXPECT_FALSE(v.valid)
        << what << ": the validator accepted the mutant";
    sim::SimResult s = sim::simulate(ddg, machine, mutant);
    EXPECT_FALSE(s.simOk)
        << what << ": the simulator accepted the mutant";
    sim::Verdict verdict = sim::verifyCompiled(ddg, machine, mutant);
    EXPECT_EQ(verdict.kind, sim::VerdictKind::ScheduleRejected)
        << what << ": " << sim::toString(verdict.kind) << ": "
        << verdict.detail;
}

/**
 * Finds a (ddg, compiled loop) pair on @p machine satisfying
 * @p pred, scanning the fixtures and then seeded random loops so the
 * search is deterministic.
 */
template <typename Pred>
std::optional<std::pair<Ddg, CompiledLoop>>
findLoop(const MachineConfig &machine, Pred pred)
{
    LatencyTable lat;
    std::vector<Ddg> candidates;
    candidates.push_back(chainLoop(8, lat));
    candidates.push_back(diamondLoop(lat));
    candidates.push_back(memHeavyLoop(6, lat));
    Rng master(0x5131a7edULL);
    for (int i = 0; i < 40; ++i) {
        Rng rng(master.next());
        RandomLoopParams params;
        params.numOps = 10 + 2 * (i % 12);
        params.memFraction = 0.25;
        params.fpFraction = 0.4;
        params.carriedProb = 0.2;
        params.fanoutProb = 0.3;
        params.maxDistance = 2;
        params.tripCount = 64;
        candidates.push_back(randomLoop("mut" + std::to_string(i),
                                        lat, rng, params));
    }
    for (const Ddg &g : candidates) {
        auto loop = goodLoop(g, machine);
        if (loop.has_value() && pred(g, *loop))
            return std::make_pair(g, std::move(*loop));
    }
    return std::nullopt;
}

MachineConfig
corpusMachine(const std::string &name)
{
    std::vector<MachineConfig> machines =
        MachineRegistry::builtin().resolveDirectory(
            GPSCHED_SOURCE_DIR "/examples/machines");
    for (MachineConfig &m : machines) {
        if (m.name() == name)
            return std::move(m);
    }
    ADD_FAILURE() << "corpus machine " << name << " missing";
    return twoClusterConfig(32, 1);
}

/** Euclidean modulo: the kernel slot of @p cycle. */
int
slotOf(int cycle, int ii)
{
    int r = cycle % ii;
    return r < 0 ? r + ii : r;
}

/**
 * Double-books a unit of class @p cls: moves a sink op of that class
 * (no outgoing edge, so issuing later breaks no dependence) less than
 * one II later, into the kernel slot of another op of its class and
 * cluster. On a machine with one unit per class and cluster the two
 * then need the one unit in the same cycle. False when @p loop has
 * no such pair.
 */
bool
doubleBookUnit(const Ddg &g, CompiledLoop &loop, FuClass cls)
{
    std::vector<OpPlacement> &place = loop.placements;
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        if (fuClassOf(g.node(v).opcode) != cls || !g.outEdges(v).empty())
            continue;
        for (NodeId u = 0; u < g.numNodes(); ++u) {
            if (u == v || fuClassOf(g.node(u).opcode) != cls ||
                place[u].cluster != place[v].cluster)
                continue;
            int shift = slotOf(place[u].cycle - place[v].cycle, loop.ii);
            if (shift != 0) {
                place[v].cycle += shift;
                return true;
            }
        }
    }
    return false;
}

/**
 * Overbooks a one-bus class: moves one bus transfer, read, ride and
 * arrival together, into the kernel slot of another transfer of its
 * class, later if its consumers still find the value in time, else
 * earlier if the producer has written it by then. False when no
 * transfer of @p loop can move so.
 */
bool
overbookBus(const Ddg &g, const MachineConfig &m, CompiledLoop &loop)
{
    const LatencyTable &lat = m.latencies();
    for (Transfer &t : loop.transfers) {
        for (const Transfer &other : loop.transfers) {
            if (&other == &t || !t.viaBus || !other.viaBus ||
                other.busClass != t.busClass)
                continue;
            int later = slotOf(other.busCycle - t.busCycle, loop.ii);
            if (later == 0)
                continue;
            const OpPlacement &home = loop.placements[t.producer];
            int write = home.cycle +
                        lat.latency(g.node(t.producer).opcode);
            int lastArrival = std::numeric_limits<int>::max();
            for (EdgeId e : g.outEdges(t.producer)) {
                const DdgEdge &edge = g.edge(e);
                if (edge.isFlow() &&
                    loop.placements[edge.dst].cluster == t.destCluster)
                    lastArrival = std::min(
                        lastArrival, loop.placements[edge.dst].cycle +
                                         loop.ii * edge.distance);
            }
            for (int shift : {later, later - loop.ii}) {
                if (t.arrivalCycle + shift <= lastArrival &&
                    t.readCycle + shift >= write) {
                    t.busCycle += shift;
                    t.readCycle += shift;
                    t.arrivalCycle += shift;
                    return true;
                }
            }
        }
    }
    return false;
}

/**
 * Moves a read into a spill gap: a consumer of a spilled value in
 * the value's cluster, which reads it once the reload is back,
 * issues earlier so that it reads in the gap's last cycle instead.
 * Only a consumer whose every other operand is still there in time
 * (dependence latency, and a transfer's arrival) may move. False
 * when @p loop has no such consumer.
 */
bool
readInSpillGap(const Ddg &g, const MachineConfig &m, CompiledLoop &loop)
{
    const int reload = m.latencies().latency(Opcode::SpillLd);
    for (const SpillRecord &s : loop.spills) {
        const int back = s.loadCycle + reload;
        const int home = loop.placements[s.node].cluster;
        for (EdgeId e : g.outEdges(s.node)) {
            const DdgEdge &edge = g.edge(e);
            const OpPlacement &at = loop.placements[edge.dst];
            const int use = at.cycle + loop.ii * edge.distance;
            if (!edge.isFlow() || at.cluster != home || use < back ||
                back - 1 <= s.storeCycle)
                continue;
            const int cycle = at.cycle - (use - (back - 1));
            bool ready = true;
            for (EdgeId f : g.inEdges(edge.dst)) {
                const DdgEdge &in = g.edge(f);
                const int read = cycle + loop.ii * in.distance;
                const OpPlacement &src = loop.placements[in.src];
                ready &= read >= src.cycle + in.latency;
                for (const Transfer &t : loop.transfers) {
                    if (in.isFlow() && t.producer == in.src &&
                        t.destCluster == at.cluster)
                        ready &= read >= t.arrivalCycle;
                }
            }
            if (ready) {
                loop.placements[edge.dst].cycle = cycle;
                return true;
            }
        }
    }
    return false;
}

/**
 * Adds a transfer nothing reads: a copy of a bus transfer sent to a
 * cluster where no consumer of its value issues, inserted in record
 * order and counted in the record's stats. The copy rides in its
 * original's kernel slot, so that transfer must be the only one of
 * its bus class there. False when @p loop has no such transfer.
 */
bool
addUnusedTransfer(const Ddg &g, const MachineConfig &m,
                  CompiledLoop &loop)
{
    for (const Transfer &t : loop.transfers) {
        const int slot = slotOf(t.busCycle, loop.ii);
        auto sharesSlot = [&](const Transfer &other) {
            return &other != &t && other.viaBus &&
                   other.busClass == t.busClass &&
                   slotOf(other.busCycle, loop.ii) == slot;
        };
        if (!t.viaBus || std::any_of(loop.transfers.begin(),
                                     loop.transfers.end(), sharesSlot))
            continue;
        for (int c = 0; c < m.numClusters(); ++c) {
            bool reached = c == loop.placements[t.producer].cluster;
            for (EdgeId e : g.outEdges(t.producer)) {
                const DdgEdge &edge = g.edge(e);
                reached |= edge.isFlow() &&
                           loop.placements[edge.dst].cluster == c;
            }
            for (const Transfer &other : loop.transfers)
                reached |= other.producer == t.producer &&
                           other.destCluster == c;
            if (reached)
                continue;
            Transfer extra = t;
            extra.destCluster = c;
            auto later = [&](const Transfer &other) {
                return other.producer > extra.producer ||
                       (other.producer == extra.producer &&
                        other.destCluster > c);
            };
            loop.transfers.insert(
                std::find_if(loop.transfers.begin(),
                             loop.transfers.end(), later),
                extra);
            ++loop.stats.busTransfers;
            return true;
        }
    }
    return false;
}

/** True when the replay of @p loop stops short of its trip count,
 *  where the two oracles see the same steady state. */
bool
deeperThanReplay(const Ddg &g, const MachineConfig &m,
                 const CompiledLoop &loop)
{
    return sim::simulate(g, m, loop).iterationsSimulated <
           g.tripCount();
}

/** Both oracles reject @p mutant: the simulator with @p kind at
 *  @p cycle, the validator with @p message. */
void
expectRejectedAs(const Ddg &g, const MachineConfig &m,
                 const CompiledLoop &mutant, sim::SimFaultKind kind,
                 std::int64_t cycle, const std::string &message)
{
    sim::SimResult s = sim::simulate(g, m, mutant);
    ASSERT_TRUE(s.fault.has_value()) << "the simulator accepted it";
    EXPECT_EQ(s.fault->kind, kind) << s.fault->toString();
    EXPECT_EQ(s.fault->cycle, cycle) << s.fault->toString();
    EXPECT_EQ(validateSchedule(g, m, mutant).message, message);
    expectBothReject(g, m, mutant, sim::toString(kind));
}

} // namespace

TEST(SimMutation, ShiftedPlacementRejected)
{
    LatencyTable lat;
    Ddg g = diamondLoop(lat);
    MachineConfig m = twoClusterConfig(32, 1);
    auto loop = goodLoop(g, m);
    ASSERT_TRUE(loop.has_value());

    // Move an edge's consumer one cycle before the legal window.
    const DdgEdge &e = g.edge(0);
    CompiledLoop mutant = *loop;
    mutant.placements[e.dst].cycle =
        mutant.placements[e.src].cycle + e.latency -
        mutant.ii * e.distance - 1;
    expectBothReject(g, m, mutant, "shifted placement");
}

TEST(SimMutation, DroppedTransferRejected)
{
    MachineConfig m = twoClusterConfig(32, 1);
    auto found = findLoop(m, [](const Ddg &, const CompiledLoop &l) {
        return !l.transfers.empty();
    });
    ASSERT_TRUE(found.has_value())
        << "no compiled loop with a transfer found";
    auto &[g, loop] = *found;

    CompiledLoop mutant = loop;
    mutant.transfers.erase(mutant.transfers.begin());
    expectBothReject(g, m, mutant, "dropped transfer");
}

TEST(SimMutation, RetimedTransferRejected)
{
    MachineConfig m = twoClusterConfig(32, 1);
    auto found = findLoop(m, [](const Ddg &, const CompiledLoop &l) {
        return !l.transfers.empty();
    });
    ASSERT_TRUE(found.has_value())
        << "no compiled loop with a transfer found";
    auto &[g, loop] = *found;

    CompiledLoop mutant = loop;
    mutant.transfers.front().arrivalCycle += 1;
    expectBothReject(g, m, mutant, "retimed transfer");
}

TEST(SimMutation, SwappedBusClassRejected)
{
    MachineConfig m = corpusMachine("threetier-bus-4c");
    ASSERT_GE(m.numBusClasses(), 2);
    auto found = findLoop(m, [](const Ddg &, const CompiledLoop &l) {
        for (const Transfer &t : l.transfers) {
            if (t.viaBus)
                return true;
        }
        return false;
    });
    ASSERT_TRUE(found.has_value())
        << "no compiled loop with a bus transfer found";
    auto &[g, loop] = *found;

    std::size_t idx = 0;
    while (!loop.transfers[idx].viaBus)
        ++idx;
    const int old_class = loop.transfers[idx].busClass;

    // Onto a class with a different latency: the recorded arrival no
    // longer matches the ride time.
    int other = -1;
    for (int bc = 0; bc < m.numBusClasses(); ++bc) {
        if (m.busLatencyOf(bc) != m.busLatencyOf(old_class))
            other = bc;
    }
    ASSERT_GE(other, 0) << "all bus classes share one latency";
    CompiledLoop mutant = loop;
    mutant.transfers[idx].busClass = other;
    expectBothReject(g, m, mutant, "swapped bus class");

    // Off the fabric entirely.
    CompiledLoop unknown = loop;
    unknown.transfers[idx].busClass = m.numBusClasses();
    expectBothReject(g, m, unknown, "unknown bus class");
}

TEST(SimMutation, BrokenSpillSplitRejected)
{
    LatencyTable lat;
    MachineConfig m = corpusMachine("regstarved-4c");
    auto found = findLoop(m, [](const Ddg &, const CompiledLoop &l) {
        return !l.spills.empty();
    });
    ASSERT_TRUE(found.has_value())
        << "no compiled loop with a spill found";
    auto &[g, loop] = *found;

    // Reload before the store completes.
    CompiledLoop mutant = loop;
    SpillRecord &s = mutant.spills.front();
    s.loadCycle = s.storeCycle - lat.latency(Opcode::SpillLd) -
                  lat.latency(Opcode::SpillSt);
    expectBothReject(g, m, mutant, "broken spill split");
}

TEST(SimMutation, ShrunkRegisterFileRejected)
{
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(64, 2);

    // Find a fixture whose replay measures real register pressure
    // (>= 2 somewhere): one register fewer must then overflow.
    std::vector<Ddg> candidates;
    candidates.push_back(memHeavyLoop(6, lat));
    candidates.push_back(recurrenceLoop(lat));
    candidates.push_back(diamondLoop(lat));
    candidates.push_back(chainLoop(8, lat));
    std::optional<Ddg> picked;
    std::optional<CompiledLoop> loop;
    sim::SimResult s;
    for (const Ddg &g : candidates) {
        auto candidate = goodLoop(g, m);
        if (!candidate.has_value())
            continue;
        s = sim::simulate(g, m, *candidate);
        ASSERT_TRUE(s.simOk) << g.name();
        if (*std::max_element(s.maxLive.begin(), s.maxLive.end()) >=
            2) {
            picked = g;
            loop = std::move(*candidate);
            break;
        }
    }
    ASSERT_TRUE(picked.has_value())
        << "no fixture carries register pressure to shrink below";
    const Ddg &g = *picked;
    int cmax = 0;
    for (int c = 1; c < m.numClusters(); ++c) {
        if (s.maxLive[c] > s.maxLive[cmax])
            cmax = c;
    }

    // Same machine, one register fewer than the measured peak on the
    // hottest cluster.
    std::vector<ClusterDesc> clusters;
    for (int c = 0; c < m.numClusters(); ++c)
        clusters.push_back(m.cluster(c));
    clusters[cmax].regs = s.maxLive[cmax] - 1;
    std::vector<BusDesc> buses;
    for (int bc = 0; bc < m.numBusClasses(); ++bc)
        buses.push_back(m.busClass(bc));
    MachineConfig shrunk("shrunk", std::move(clusters),
                         std::move(buses));
    shrunk.latencies() = m.latencies();

    expectBothReject(g, shrunk, *loop, "shrunk register file");
}

TEST(SimMutation, DoubleBookedUnitRejected)
{
    // One unit per class and cluster: any two ops of one class in
    // one cluster and kernel slot overflow it.
    MachineConfig m = fourClusterConfig(32, 1);
    auto found = findLoop(m, [](const Ddg &g, const CompiledLoop &l) {
        CompiledLoop probe = l;
        return l.spills.empty() &&
               doubleBookUnit(g, probe, FuClass::Fp);
    });
    ASSERT_TRUE(found.has_value()) << "no FP pair to double-book";
    auto &[g, mutant] = *found;
    ASSERT_TRUE(doubleBookUnit(g, mutant, FuClass::Fp));
    expectRejectedAs(g, m, mutant, sim::SimFaultKind::FuOverflow, 6,
                     "cluster 3 FP over capacity 2/1 at kernel slot 0");
}

TEST(SimMutation, DoubleBookedMemoryPortRejected)
{
    MachineConfig m = fourClusterConfig(32, 1);
    auto found = findLoop(m, [](const Ddg &g, const CompiledLoop &l) {
        CompiledLoop probe = l;
        return l.spills.empty() &&
               doubleBookUnit(g, probe, FuClass::Mem);
    });
    ASSERT_TRUE(found.has_value()) << "no memory pair to double-book";
    auto &[g, mutant] = *found;
    ASSERT_TRUE(doubleBookUnit(g, mutant, FuClass::Mem));
    expectRejectedAs(g, m, mutant, sim::SimFaultKind::MemPortOverflow,
                     6, "cluster 3 MEM over capacity 2/1 at kernel slot 0");
}

TEST(SimMutation, OverbookedBusRejected)
{
    // One bus of latency 1: two transfers in one kernel slot need
    // two buses.
    MachineConfig m = fourClusterConfig(32, 1);
    auto found = findLoop(m, [&m](const Ddg &g, const CompiledLoop &l) {
        CompiledLoop probe = l;
        return l.spills.empty() && overbookBus(g, m, probe);
    });
    ASSERT_TRUE(found.has_value()) << "no bus transfer to move";
    auto &[g, mutant] = *found;
    ASSERT_TRUE(overbookBus(g, m, mutant));
    expectRejectedAs(g, m, mutant, sim::SimFaultKind::BusOverflow, 7,
                     "bus class 0 over capacity 2/1 at slot 2");
}

TEST(SimMutation, ReadInsideSpillGapRejected)
{
    MachineConfig m = corpusMachine("regstarved-4c");
    auto found = findLoop(m, [&m](const Ddg &g, const CompiledLoop &l) {
        CompiledLoop probe = l;
        return deeperThanReplay(g, m, l) && readInSpillGap(g, m, probe);
    });
    ASSERT_TRUE(found.has_value())
        << "no consumer of a spilled value to move into its gap";
    auto &[g, mutant] = *found;
    ASSERT_TRUE(readInSpillGap(g, m, mutant));
    expectRejectedAs(g, m, mutant, sim::SimFaultKind::SpillGapRead, 36,
                     "edge 14 reads inside the spill gap of 9 at 36");
}

TEST(SimMutation, TransferWithoutConsumerRejected)
{
    // Two buses: the added transfer shares a kernel slot with its
    // original without overbooking the class.
    MachineConfig m = fourClusterConfig(32, 1, 2);
    auto found = findLoop(m, [&m](const Ddg &g, const CompiledLoop &l) {
        CompiledLoop probe = l;
        return deeperThanReplay(g, m, l) &&
               addUnusedTransfer(g, m, probe);
    });
    ASSERT_TRUE(found.has_value()) << "no transfer to copy";
    auto &[g, mutant] = *found;
    ASSERT_TRUE(addUnusedTransfer(g, m, mutant));
    expectRejectedAs(g, m, mutant, sim::SimFaultKind::UnusedTransfer, 6,
                     "transfer of 3 to cluster 0 has no consumer");
}

/**
 * Every shape fault of flattenRecord (sched/schedule_image.hh), each
 * a minimal edit of one pinned record: a transfer from an unknown or
 * a non-defining node, to a bad cluster, or twice; a spill of an
 * unknown or a non-defining node, or twice. Both oracles read the
 * shape check, so the simulator stops before replaying and the
 * validator reports the same message. Only the simulator rejects a
 * non-defining node as a shape fault (rejectNonDefining); the
 * validator's own checks reject those two records later.
 */
TEST(SimMutation, EveryShapeFaultRejected)
{
    MachineConfig m = corpusMachine("regstarved-4c");
    auto found = findLoop(m, [&m](const Ddg &g, const CompiledLoop &l) {
        return deeperThanReplay(g, m, l) && !l.transfers.empty() &&
               !l.spills.empty();
    });
    ASSERT_TRUE(found.has_value()) << "no record with a transfer and "
                                      "a spill";
    auto &[g, loop] = *found;
    NodeId store = 0;
    while (store < g.numNodes() && definesValue(g.node(store).opcode))
        ++store;
    ASSERT_LT(store, g.numNodes()) << "no store in " << g.name();
    const NodeId unknown = g.numNodes();

    struct Row
    {
        const char *what;
        std::function<void(CompiledLoop &)> edit;
        const char *message;          ///< the shape fault
        const char *validatorMessage; ///< null: the shape fault
    };
    const std::vector<Row> rows = {
        {"transfer from an unknown node",
         [&](CompiledLoop &l) { l.transfers.front().producer = unknown; },
         "transfer from unknown node 32", nullptr},
        {"transfer from a non-defining node",
         [&](CompiledLoop &l) { l.transfers.front().producer = store; },
         "transfer from non-defining node 8",
         "edge 13: no transfer of 2 to cluster 0"},
        {"transfer to a bad cluster",
         [&](CompiledLoop &l) {
             l.transfers.front().destCluster = m.numClusters();
         },
         "transfer of 2 to bad cluster 4", nullptr},
        {"duplicate transfer",
         [](CompiledLoop &l) {
             l.transfers.push_back(l.transfers.front());
         },
         "duplicate transfer of 2 to cluster 0", nullptr},
        {"spill of an unknown node",
         [&](CompiledLoop &l) { l.spills.front().node = unknown; },
         "spill of unknown node 32", nullptr},
        {"spill of a non-defining node",
         [&](CompiledLoop &l) { l.spills.front().node = store; },
         "spill of non-defining node 8", "non-defining node 8 spilled"},
        {"duplicate spill",
         [](CompiledLoop &l) { l.spills.push_back(l.spills.front()); },
         "duplicate spill of node 9", nullptr},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.what);
        CompiledLoop mutant = loop;
        row.edit(mutant);
        expectRejectedAs(g, m, mutant, sim::SimFaultKind::MalformedSchedule,
                         -1,
                         row.validatorMessage ? row.validatorMessage
                                              : row.message);
        EXPECT_EQ(sim::simulate(g, m, mutant).fault->detail, row.message);
    }
}
