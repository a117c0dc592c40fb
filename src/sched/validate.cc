#include "sched/validate.hh"

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "core/gp_scheduler.hh"
#include "support/telemetry.hh"

namespace gpsched
{

namespace
{

/** Euclidean modulo. */
int
wrap(int cycle, int m)
{
    int r = cycle % m;
    return r < 0 ? r + m : r;
}

/** Accumulates [from, to] (inclusive) into the @p ii slot counts
 *  at @p slots. */
void
cover(int from, int to, int ii, int *slots)
{
    int len = to - from + 1;
    int full = len / ii;
    int rem = len % ii;
    for (int s = 0; s < ii; ++s)
        slots[s] += full;
    for (int i = 0; i < rem; ++i)
        slots[wrap(from + i, ii)] += 1;
}

/**
 * Uniform read-only image of a schedule, buildable from either a
 * live PartialSchedule or a recorded CompiledLoop. Shape problems
 * found while building (unscheduled nodes aside, which the checker
 * reports with its historical message) are stored in @c error.
 */
struct ScheduleView
{
    int ii = 0;
    std::string error; ///< non-empty: malformed before checking

    struct PlacedAt
    {
        bool scheduled = false;
        int cluster = -1;
        int cycle = 0;
    };
    std::vector<PlacedAt> place;               ///< by NodeId
    std::vector<std::map<int, Transfer>> xfer; ///< by producer
    std::vector<SpillInfo> spill;              ///< by producer
    ScheduleStats stats;
    bool hasMaxLive = false;     ///< bookkeeping recount available
    std::vector<int> bookMaxLive; ///< per cluster when hasMaxLive

    template <typename... Args>
    void
    shapeFail(Args &&...args)
    {
        if (!error.empty())
            return;
        std::ostringstream oss;
        (oss << ... << std::forward<Args>(args));
        error = oss.str();
    }
};

ScheduleView
makeView(const Ddg &ddg, const MachineConfig &machine,
         const PartialSchedule &ps)
{
    ScheduleView view;
    view.ii = ps.ii();
    const int n = ddg.numNodes();
    view.place.resize(n);
    view.xfer.resize(n);
    view.spill.resize(n);
    for (NodeId v = 0; v < n; ++v) {
        if (ps.isScheduled(v)) {
            view.place[v] = {true, ps.clusterOf(v), ps.cycleOf(v)};
        }
        view.xfer[v] = ps.transfersOf(v);
        view.spill[v] = ps.spillOf(v);
    }
    view.stats = ps.stats();
    view.hasMaxLive = true;
    view.bookMaxLive.resize(machine.numClusters());
    for (int c = 0; c < machine.numClusters(); ++c)
        view.bookMaxLive[c] = ps.maxLive(c);
    return view;
}

ScheduleView
makeView(const Ddg &ddg, const MachineConfig &machine,
         const CompiledLoop &loop)
{
    ScheduleView view;
    view.ii = loop.ii;
    const int n = ddg.numNodes();
    view.place.resize(n);
    view.xfer.resize(n);
    view.spill.resize(n);
    if (!loop.moduloScheduled) {
        view.shapeFail("loop not modulo scheduled "
                       "(list-scheduling fallback carries no "
                       "placements)");
        return view;
    }
    if (loop.ii < 1) {
        view.shapeFail("bad II ", loop.ii);
        return view;
    }
    if (static_cast<int>(loop.placements.size()) != n) {
        view.shapeFail("schedule records ", loop.placements.size(),
                       " placements for ", n, " nodes");
        return view;
    }
    for (NodeId v = 0; v < n; ++v)
        view.place[v] = {true, loop.placements[v].cluster,
                         loop.placements[v].cycle};
    for (const Transfer &t : loop.transfers) {
        if (t.producer < 0 || t.producer >= n) {
            view.shapeFail("transfer from unknown node ", t.producer);
            return view;
        }
        if (t.destCluster < 0 ||
            t.destCluster >= machine.numClusters()) {
            view.shapeFail("transfer of ", t.producer,
                           " to bad cluster ", t.destCluster);
            return view;
        }
        if (!view.xfer[t.producer].emplace(t.destCluster, t).second) {
            view.shapeFail("duplicate transfer of ", t.producer,
                           " to cluster ", t.destCluster);
            return view;
        }
    }
    for (const SpillRecord &s : loop.spills) {
        if (s.node < 0 || s.node >= n) {
            view.shapeFail("spill of unknown node ", s.node);
            return view;
        }
        if (view.spill[s.node].spilled) {
            view.shapeFail("duplicate spill of node ", s.node);
            return view;
        }
        view.spill[s.node] = {true, s.storeCycle, s.loadCycle};
    }
    view.stats = loop.stats;
    view.hasMaxLive = false; // CompiledLoop records no MaxLive
    return view;
}

struct Checker
{
    const Ddg &ddg;
    const MachineConfig &machine;
    const ScheduleView &sv;
    const LatencyTable &lat;
    int ii;
    ValidationResult result;

    Checker(const Ddg &d, const MachineConfig &m,
            const ScheduleView &v)
        : ddg(d), machine(m), sv(v), lat(m.latencies()), ii(v.ii)
    {
    }

    template <typename... Args>
    bool
    fail(Args &&...args)
    {
        std::ostringstream oss;
        (oss << ... << std::forward<Args>(args));
        result.valid = false;
        result.message = oss.str();
        return false;
    }

    int cycleOf(NodeId v) const { return sv.place[v].cycle; }
    int clusterOf(NodeId v) const { return sv.place[v].cluster; }

    const std::map<int, Transfer> &
    transfersOf(NodeId v) const
    {
        return sv.xfer[v];
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
            if (!sv.place[v].scheduled)
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
        const SpillInfo &spill = sv.spill[p];
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
            const auto &transfers = transfersOf(edge.src);
            auto it = transfers.find(clusterOf(edge.dst));
            if (it == transfers.end()) {
                return fail("edge ", e, ": no transfer of ",
                            edge.src, " to cluster ",
                            clusterOf(edge.dst));
            }
            const Transfer &t = it->second;
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
            const SpillInfo &spill = sv.spill[v];
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
        // (cluster, class) -> per-slot usage.
        std::vector<std::vector<int>> fu(
            clusters * numFuClasses, std::vector<int>(ii, 0));
        // Per bus class -> per-slot usage.
        std::vector<std::vector<int>> bus(
            machine.numBusClasses(), std::vector<int>(ii, 0));
        auto reserve = [&](int cluster, FuClass cls, int cycle,
                           int occ) {
            auto &slots =
                fu[cluster * numFuClasses + static_cast<int>(cls)];
            for (int i = 0; i < occ; ++i)
                slots[wrap(cycle + i, ii)] += 1;
        };

        int bus_transfers = 0, mem_transfers = 0, spills = 0;
        for (NodeId v = 0; v < ddg.numNodes(); ++v) {
            const Opcode op = ddg.node(v).opcode;
            reserve(clusterOf(v), fuClassOf(op), cycleOf(v),
                    lat.occupancy(op));
            for (const auto &[dest, t] : transfersOf(v)) {
                if (t.viaBus) {
                    ++bus_transfers;
                    if (t.busClass < 0 ||
                        t.busClass >= machine.numBusClasses()) {
                        return fail("transfer of ", v,
                                    " rides unknown bus class ",
                                    t.busClass);
                    }
                    int lat_bus = machine.busLatencyOf(t.busClass);
                    for (int i = 0; i < lat_bus; ++i)
                        bus[t.busClass][wrap(t.busCycle + i, ii)] += 1;
                } else {
                    ++mem_transfers;
                    reserve(clusterOf(v), FuClass::Mem, t.stCycle,
                            lat.occupancy(Opcode::CommSt));
                    reserve(dest, FuClass::Mem, t.ldCycle,
                            lat.occupancy(Opcode::CommLd));
                }
            }
            const SpillInfo &spill = sv.spill[v];
            if (spill.spilled) {
                ++spills;
                reserve(clusterOf(v), FuClass::Mem,
                        spill.storeCycle,
                        lat.occupancy(Opcode::SpillSt));
                reserve(clusterOf(v), FuClass::Mem,
                        spill.loadCycle,
                        lat.occupancy(Opcode::SpillLd));
            }
        }

        for (int c = 0; c < clusters; ++c) {
            for (int k = 0; k < numFuClasses; ++k) {
                FuClass cls = static_cast<FuClass>(k);
                int units = machine.fuInCluster(c, cls);
                const auto &slots =
                    fu[c * numFuClasses + k];
                for (int s = 0; s < ii; ++s) {
                    if (slots[s] > units) {
                        return fail("cluster ", c, " ",
                                    toString(cls), " over capacity ",
                                    slots[s], "/", units,
                                    " at kernel slot ", s);
                    }
                }
            }
        }
        for (int bc = 0; bc < machine.numBusClasses(); ++bc) {
            int count = machine.busClass(bc).count;
            for (int s = 0; s < ii; ++s) {
                if (bus[bc][s] > count) {
                    return fail("bus class ", bc, " over capacity ",
                                bus[bc][s], "/", count, " at slot ",
                                s);
                }
            }
        }

        const ScheduleStats &stats = sv.stats;
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
        std::vector<int> live(static_cast<std::size_t>(clusters) * ii,
                              0);
        auto slotsOf = [&](int c) { return &live[c * ii]; };
        // The current value's latest read per cluster, or kNoRead
        // when the cluster has none; reused across values.
        constexpr int kNoRead = std::numeric_limits<int>::min();
        std::vector<int> lastRead(clusters);

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
            for (const auto &[dest, t] : transfersOf(v))
                lastRead[home] = std::max(lastRead[home], t.readCycle);

            // Home lifetime (with optional spill split).
            const SpillInfo &spill = sv.spill[v];
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
            for (const auto &[dest, t] : transfersOf(v)) {
                if (dest < 0 || dest >= clusters ||
                    lastRead[dest] == kNoRead) {
                    return fail("transfer of ", v, " to cluster ",
                                dest, " has no consumer");
                }
                cover(t.arrivalCycle,
                      std::max(lastRead[dest], t.arrivalCycle), ii,
                      slotsOf(dest));
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
            if (sv.hasMaxLive && max_live != sv.bookMaxLive[c]) {
                return fail("cluster ", c, " MaxLive recount ",
                            max_live, " != schedule's ",
                            sv.bookMaxLive[c]);
            }
        }
        return true;
    }
};

ValidationResult
check(const Ddg &ddg, const MachineConfig &machine,
      const ScheduleView &view)
{
    if (!view.error.empty())
        return {false, view.error};
    Checker checker(ddg, machine, view);
    checker.checkPlacements() && checker.checkDependences() &&
        checker.checkSpills() && checker.checkResources() &&
        checker.checkRegisters();
    return checker.result;
}

} // namespace

ValidationResult
validateSchedule(const Ddg &ddg, const MachineConfig &machine,
                 const PartialSchedule &schedule)
{
    GPSCHED_PHASE_SPAN(Validate);
    return check(ddg, machine, makeView(ddg, machine, schedule));
}

ValidationResult
validateSchedule(const Ddg &ddg, const MachineConfig &machine,
                 const CompiledLoop &loop)
{
    GPSCHED_PHASE_SPAN(Validate);
    return check(ddg, machine, makeView(ddg, machine, loop));
}

} // namespace gpsched
