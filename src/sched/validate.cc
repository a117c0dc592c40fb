#include "sched/validate.hh"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/gp_scheduler.hh"
#include "sched/schedule_image.hh"
#include "support/logging.hh"

namespace gpsched
{

namespace
{

/** Accumulates [from, to] (inclusive) into the @p ii slot counts
 *  at @p slots. */
void
cover(int from, int to, int ii, int *slots)
{
    int len = to - from + 1;
    int full = len / ii;
    int rem = len % ii;
    for (int s = 0; full != 0 && s < ii; ++s)
        slots[s] += full;
    for (int i = 0, s = (from % ii + ii) % ii; i < rem; ++i) {
        slots[s] += 1;
        s = s + 1 == ii ? 0 : s + 1;
    }
}

/** A validation's storage, kept per thread across calls. */
struct Scratch
{
    ScheduleImage img;
    std::vector<int> slots;    ///< per-row kernel-slot counts
    std::vector<int> lastRead; ///< per cluster, for one value
};

thread_local Scratch tlsScratch;

struct Checker
{
    const Ddg &ddg;
    const MachineConfig &machine;
    Scratch &scratch;
    const ScheduleStats &stats;
    const PartialSchedule *book; ///< MaxLive bookkeeping, if any
    const ScheduleImage &img = scratch.img;
    const LatencyTable &lat = machine.latencies();
    const int ii = img.ii;
    ValidationResult result = {};

    template <typename... Args>
    bool
    fail(Args &&...args)
    {
        result = {false, buildMessage(std::forward<Args>(args)...)};
        return false;
    }

    int cycleOf(NodeId v) const { return img.place[v].cycle; }
    int clusterOf(NodeId v) const { return img.place[v].cluster; }

    /** The transfer of @p v to the lowest destination cluster that
     *  @p bad holds for: the first one a walk in destination order
     *  reports. */
    template <typename Pred>
    const Transfer *
    firstByDest(NodeId v, Pred bad) const
    {
        const Transfer *first = nullptr;
        for (const Transfer &t : img.transfersOf(v)) {
            if (bad(t) && (!first || t.destCluster < first->destCluster))
                first = &t;
        }
        return first;
    }

    int
    writeCycle(NodeId v) const
    {
        return cycleOf(v) + lat.latency(ddg.node(v).opcode);
    }

    /** Value-read time of edge e in the producer's iteration frame. */
    int
    useCycle(EdgeId e) const
    {
        const DdgEdge &edge = ddg.edge(e);
        return cycleOf(edge.dst) + ii * edge.distance;
    }

    bool
    checkPlacements()
    {
        for (NodeId v = 0; v < ddg.numNodes(); ++v) {
            if (v == img.unplaced)
                return fail("node ", v, " not scheduled");
            int c = clusterOf(v);
            if (c < 0 || c >= machine.numClusters())
                return fail("node ", v, " in bad cluster ", c);
        }
        return true;
    }

    /** True when a home-cluster read of @p p at @p t is legal under
     *  its spill split. */
    bool
    readOk(NodeId p, int t) const
    {
        const SpillInfo &spill = img.spill[p];
        if (!spill.spilled)
            return true;
        int reload =
            spill.loadCycle + lat.latency(Opcode::SpillLd);
        return t <= spill.storeCycle || t >= reload;
    }

    bool
    checkDependences()
    {
        for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
            const DdgEdge &edge = ddg.edge(e);
            int src_cycle = cycleOf(edge.src);
            int dst_cycle = cycleOf(edge.dst);
            int eff = edge.latency - ii * edge.distance;
            if (dst_cycle < src_cycle + eff) {
                return fail("edge ", e, " (", edge.src, "->",
                            edge.dst, ") violated: ", dst_cycle,
                            " < ", src_cycle, " + ", eff);
            }
            if (!edge.isFlow())
                continue;
            int use = useCycle(e);
            if (clusterOf(edge.src) == clusterOf(edge.dst)) {
                if (use < writeCycle(edge.src)) {
                    return fail("edge ", e, " reads before write: ",
                                use, " < ", writeCycle(edge.src));
                }
                if (!readOk(edge.src, use)) {
                    return fail("edge ", e,
                                " reads inside the spill gap of ",
                                edge.src, " at ", use);
                }
                continue;
            }
            // Cross-cluster value: must travel via a transfer.
            const Transfer *found =
                img.transferTo(edge.src, clusterOf(edge.dst));
            if (!found) {
                return fail("edge ", e, ": no transfer of ",
                            edge.src, " to cluster ",
                            clusterOf(edge.dst));
            }
            const Transfer &t = *found;
            if (t.readCycle < writeCycle(edge.src)) {
                return fail("transfer of ", edge.src,
                            " reads before write: ", t.readCycle,
                            " < ", writeCycle(edge.src));
            }
            if (!readOk(edge.src, t.readCycle)) {
                return fail("transfer of ", edge.src,
                            " reads inside the spill gap at ",
                            t.readCycle);
            }
            if (t.arrivalCycle > use) {
                return fail("transfer of ", edge.src, " to cluster ",
                            t.destCluster, " arrives at ",
                            t.arrivalCycle, " after use ", use);
            }
            if (t.viaBus) {
                if (t.busClass < 0 ||
                    t.busClass >= machine.numBusClasses()) {
                    return fail("transfer of ", edge.src,
                                " rides unknown bus class ",
                                t.busClass);
                }
                if (t.readCycle != t.busCycle ||
                    t.arrivalCycle !=
                        t.busCycle +
                            machine.busLatencyOf(t.busClass)) {
                    return fail("bus transfer of ", edge.src,
                                " has inconsistent timing");
                }
            } else {
                if (t.readCycle != t.stCycle ||
                    t.ldCycle <
                        t.stCycle + lat.latency(Opcode::CommSt) ||
                    t.arrivalCycle !=
                        t.ldCycle + lat.latency(Opcode::CommLd)) {
                    return fail("memory transfer of ", edge.src,
                                " has inconsistent timing");
                }
            }
        }
        return true;
    }

    bool
    checkSpills()
    {
        for (NodeId v = 0; v < ddg.numNodes(); ++v) {
            const SpillInfo &spill = img.spill[v];
            if (!spill.spilled)
                continue;
            if (!definesValue(ddg.node(v).opcode))
                return fail("non-defining node ", v, " spilled");
            if (spill.storeCycle < writeCycle(v)) {
                return fail("spill store of ", v, " at ",
                            spill.storeCycle, " before write ",
                            writeCycle(v));
            }
            int reload =
                spill.loadCycle + lat.latency(Opcode::SpillLd);
            if (reload <= spill.storeCycle +
                              lat.latency(Opcode::SpillSt)) {
                return fail("spill of ", v,
                            " reloads before the store completes");
            }
        }
        return true;
    }

    bool
    checkResources()
    {
        const int clusters = machine.numClusters();
        const int buses = machine.numBusClasses();
        // Row (cluster, class) then row (bus class), ii slots each.
        const int busRow = clusters * numFuClasses;
        std::vector<int> &slots = scratch.slots;
        slots.assign(static_cast<std::size_t>(busRow + buses) * ii, 0);
        auto reserve = [&](int row, int cycle, int len) {
            cover(cycle, cycle + len - 1, ii,
                  &slots[static_cast<std::size_t>(row) * ii]);
        };
        auto fuRow = [](int cluster, FuClass cls) {
            return cluster * numFuClasses + static_cast<int>(cls);
        };
        auto badBus = [buses](const Transfer &t) {
            return t.viaBus && (t.busClass < 0 || t.busClass >= buses);
        };

        int bus_transfers = 0, mem_transfers = 0, spills = 0;
        for (NodeId v = 0; v < ddg.numNodes(); ++v) {
            const Opcode op = ddg.node(v).opcode;
            const int home = clusterOf(v);
            reserve(fuRow(home, fuClassOf(op)), cycleOf(v),
                    lat.occupancy(op));
            if (const Transfer *t = firstByDest(v, badBus)) {
                return fail("transfer of ", v,
                            " rides unknown bus class ", t->busClass);
            }
            for (const Transfer &t : img.transfersOf(v)) {
                if (t.viaBus) {
                    ++bus_transfers;
                    reserve(busRow + t.busClass, t.busCycle,
                            machine.busLatencyOf(t.busClass));
                } else {
                    ++mem_transfers;
                    reserve(fuRow(home, FuClass::Mem), t.stCycle,
                            lat.occupancy(Opcode::CommSt));
                    reserve(fuRow(t.destCluster, FuClass::Mem),
                            t.ldCycle, lat.occupancy(Opcode::CommLd));
                }
            }
            const SpillInfo &spill = img.spill[v];
            if (spill.spilled) {
                ++spills;
                reserve(fuRow(home, FuClass::Mem), spill.storeCycle,
                        lat.occupancy(Opcode::SpillSt));
                reserve(fuRow(home, FuClass::Mem), spill.loadCycle,
                        lat.occupancy(Opcode::SpillLd));
            }
        }

        for (int row = 0; row < busRow + buses; ++row) {
            const int cluster = row / numFuClasses;
            const FuClass cls = static_cast<FuClass>(row % numFuClasses);
            const int cap = row < busRow
                                ? machine.fuInCluster(cluster, cls)
                                : machine.busClass(row - busRow).count;
            for (int s = 0; s < ii; ++s) {
                const int used = slots[static_cast<std::size_t>(row) * ii + s];
                if (used > cap && row < busRow) {
                    return fail("cluster ", cluster, " ", toString(cls),
                                " over capacity ", used, "/", cap,
                                " at kernel slot ", s);
                }
                if (used > cap) {
                    return fail("bus class ", row - busRow,
                                " over capacity ", used, "/", cap,
                                " at slot ", s);
                }
            }
        }

        if (stats.busTransfers != bus_transfers ||
            stats.memTransfers != mem_transfers ||
            stats.spills != spills) {
            return fail("stats mismatch: schedule reports ",
                        stats.busTransfers, "/", stats.memTransfers,
                        "/", stats.spills, " recount ",
                        bus_transfers, "/", mem_transfers, "/",
                        spills);
        }
        return true;
    }

    bool
    checkRegisters()
    {
        const int clusters = machine.numClusters();
        // live[c * ii + s]: values live in cluster c at kernel slot s.
        std::vector<int> &live = scratch.slots;
        live.assign(static_cast<std::size_t>(clusters) * ii, 0);
        auto slotsOf = [&](int c) { return &live[c * ii]; };
        // The current value's latest read per cluster, or kNoRead
        // when the cluster has none; reused across values.
        constexpr int kNoRead = std::numeric_limits<int>::min();
        std::vector<int> &lastRead = scratch.lastRead;
        lastRead.resize(clusters);
        auto unread = [&](const Transfer &t) {
            return lastRead[t.destCluster] == kNoRead;
        };

        for (NodeId v = 0; v < ddg.numNodes(); ++v) {
            if (!definesValue(ddg.node(v).opcode))
                continue;
            const int home = clusterOf(v);
            const int write = writeCycle(v);

            // Read events per cluster from consumers and transfers.
            std::fill(lastRead.begin(), lastRead.end(), kNoRead);
            for (EdgeId e : ddg.outEdges(v)) {
                const DdgEdge &edge = ddg.edge(e);
                if (!edge.isFlow())
                    continue;
                int &last = lastRead[clusterOf(edge.dst)];
                last = std::max(last, useCycle(e));
            }
            for (const Transfer &t : img.transfersOf(v))
                lastRead[home] = std::max(lastRead[home], t.readCycle);

            // Home lifetime (with optional spill split).
            const SpillInfo &spill = img.spill[v];
            const int home_last = std::max(write, lastRead[home]);
            if (!spill.spilled) {
                cover(write, home_last, ii, slotsOf(home));
            } else {
                cover(write, spill.storeCycle, ii, slotsOf(home));
                int reload =
                    spill.loadCycle + lat.latency(Opcode::SpillLd);
                if (home_last >= reload)
                    cover(reload, home_last, ii, slotsOf(home));
            }

            // Destination lifetimes: arrival to last read.
            if (const Transfer *t = firstByDest(v, unread)) {
                return fail("transfer of ", v, " to cluster ",
                            t->destCluster, " has no consumer");
            }
            for (const Transfer &t : img.transfersOf(v)) {
                cover(t.arrivalCycle,
                      std::max(lastRead[t.destCluster], t.arrivalCycle),
                      ii, slotsOf(t.destCluster));
            }
        }

        for (int c = 0; c < clusters; ++c) {
            int max_live = 0;
            for (int s = 0; s < ii; ++s)
                max_live = std::max(max_live, slotsOf(c)[s]);
            if (max_live > machine.regsInCluster(c)) {
                return fail("cluster ", c, " MaxLive ", max_live,
                            " exceeds ", machine.regsInCluster(c),
                            " registers");
            }
            if (book && max_live != book->maxLive(c)) {
                return fail("cluster ", c, " MaxLive recount ",
                            max_live, " != schedule's ",
                            book->maxLive(c));
            }
        }
        return true;
    }
};

/** Runs every semantic check on the image in @p scratch. */
ValidationResult
check(const Ddg &ddg, const MachineConfig &machine, Scratch &scratch,
      const ScheduleStats &stats, const PartialSchedule *book)
{
    Checker checker{ddg, machine, scratch, stats, book};
    checker.checkPlacements() && checker.checkDependences() &&
        checker.checkSpills() && checker.checkResources() &&
        checker.checkRegisters();
    trimScratch(scratch.slots);
    return checker.result;
}

} // namespace

ValidationResult
validateSchedule(const Ddg &ddg, const MachineConfig &machine,
                 const PartialSchedule &schedule)
{
    flattenSchedule(ddg, schedule, tlsScratch.img);
    return check(ddg, machine, tlsScratch, schedule.stats(), &schedule);
}

ValidationResult
validateSchedule(const Ddg &ddg, const MachineConfig &machine,
                 const CompiledLoop &loop)
{
    if (!loop.moduloScheduled) {
        return {false, "loop not modulo scheduled (list-scheduling "
                       "fallback carries no placements)"};
    }
    if (auto f = flattenRecord(ddg, machine, loop, false, tlsScratch.img))
        return {false, std::move(f->message)};
    return check(ddg, machine, tlsScratch, loop.stats, nullptr);
}

} // namespace gpsched
