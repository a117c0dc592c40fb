#include "sim/sim.hh"

#include <algorithm>
#include <climits>
#include <sstream>

#include "core/gp_scheduler.hh"
#include "graph/ddg.hh"
#include "sched/schedule.hh"

namespace gpsched::sim
{

namespace
{

/** Hard cap on the replay timeline length (cycles). */
constexpr std::int64_t kMaxTimeline = std::int64_t{1} << 22;

/** Flat, source-agnostic image of a complete modulo schedule. */
struct Image
{
    int ii = 0;
    std::vector<OpPlacement> place;           ///< by node
    std::vector<std::vector<Transfer>> xfers; ///< by producer
    std::vector<SpillInfo> spill;             ///< by node
};

template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

/** Shape-checks and flattens a CompiledLoop's schedule record. */
std::optional<SimFault>
buildImage(const Ddg &ddg, const MachineConfig &machine,
           const CompiledLoop &loop, Image &out)
{
    const int n = ddg.numNodes();
    auto malformed = [](NodeId node, std::string detail) {
        return SimFault{SimFaultKind::MalformedSchedule, -1, node,
                        std::move(detail)};
    };
    out.ii = loop.ii;
    if (static_cast<int>(loop.placements.size()) != n) {
        return malformed(invalidNode,
                         concat("schedule records ",
                                loop.placements.size(),
                                " placements for ", n, " nodes"));
    }
    out.place = loop.placements;
    out.xfers.assign(n, {});
    out.spill.assign(n, {});
    for (const Transfer &t : loop.transfers) {
        if (t.producer < 0 || t.producer >= n) {
            return malformed(t.producer,
                             concat("transfer from unknown node ",
                                    t.producer));
        }
        if (!definesValue(ddg.node(t.producer).opcode)) {
            return malformed(t.producer,
                             concat("transfer from non-defining "
                                    "node ",
                                    t.producer));
        }
        if (t.destCluster < 0 ||
            t.destCluster >= machine.numClusters()) {
            return malformed(t.producer,
                             concat("transfer of ", t.producer,
                                    " to bad cluster ",
                                    t.destCluster));
        }
        for (const Transfer &prev : out.xfers[t.producer]) {
            if (prev.destCluster == t.destCluster) {
                return malformed(t.producer,
                                 concat("duplicate transfer of ",
                                        t.producer, " to cluster ",
                                        t.destCluster));
            }
        }
        out.xfers[t.producer].push_back(t);
    }
    for (const SpillRecord &s : loop.spills) {
        if (s.node < 0 || s.node >= n)
            return malformed(s.node, concat("spill of unknown node ",
                                            s.node));
        if (!definesValue(ddg.node(s.node).opcode)) {
            return malformed(s.node,
                             concat("spill of non-defining node ",
                                    s.node));
        }
        if (out.spill[s.node].spilled)
            return malformed(s.node, concat("duplicate spill of node ",
                                            s.node));
        out.spill[s.node] = {true, s.storeCycle, s.loadCycle};
    }
    return std::nullopt;
}

/** Flattens a complete PartialSchedule. */
std::optional<SimFault>
buildImage(const Ddg &ddg, const PartialSchedule &ps, Image &out)
{
    const int n = ddg.numNodes();
    out.ii = ps.ii();
    out.place.resize(n);
    out.xfers.assign(n, {});
    out.spill.assign(n, {});
    for (NodeId v = 0; v < n; ++v) {
        if (!ps.isScheduled(v)) {
            return SimFault{SimFaultKind::MalformedSchedule, -1, v,
                            concat("node ", v, " not scheduled")};
        }
        out.place[v] = {ps.clusterOf(v), ps.cycleOf(v)};
        for (const auto &[dest, t] : ps.transfersOf(v))
            out.xfers[v].push_back(t);
        out.spill[v] = ps.spillOf(v);
    }
    return std::nullopt;
}

/** The replay engine proper. */
struct Replayer
{
    const Ddg &ddg;
    const MachineConfig &machine;
    const LatencyTable &lat;
    const Image &img;
    const std::int64_t trip;
    const int n;
    const int ii;

    int lo = 0;         ///< earliest frame event (issue) cycle
    int hiMetric = 0;   ///< latest frame finish (scheduleLength end)
    int hiAlloc = 0;    ///< latest frame cycle any grid is touched
    int maxDist = 0;    ///< max dependence distance
    std::int64_t K = 1; ///< iterations replayed
    std::int64_t timeline = 0;

    std::vector<std::vector<int>> fuGrid;  ///< (cluster, class) major
    std::vector<std::vector<int>> busGrid; ///< per bus class
    std::vector<std::vector<int>> liveGrid; ///< per cluster

    SimResult res;

    Replayer(const Ddg &d, const MachineConfig &m, const Image &i,
             std::int64_t trip_count)
        : ddg(d), machine(m), lat(m.latencies()), img(i),
          trip(trip_count), n(d.numNodes()), ii(i.ii)
    {
    }

    bool
    fault(SimFaultKind kind, std::int64_t cycle, NodeId node,
          std::string detail)
    {
        if (!res.fault)
            res.fault = SimFault{kind, cycle, node, std::move(detail)};
        return false;
    }

    int clusterOf(NodeId v) const { return img.place[v].cluster; }
    int cycleOf(NodeId v) const { return img.place[v].cycle; }

    /** Result-availability cycle of @p v in its iteration frame. */
    int
    writeFrame(NodeId v) const
    {
        return cycleOf(v) + lat.latency(ddg.node(v).opcode);
    }

    /** Absolute replay cycle of frame cycle @p c in iteration @p j. */
    std::int64_t
    abs(std::int64_t j, int c) const
    {
        return j * ii + (c - lo);
    }

    /** True when a home read of @p v at frame cycle @p t is outside
     *  the spill gap. */
    bool
    homeReadOk(NodeId v, int t) const
    {
        const SpillInfo &s = img.spill[v];
        if (!s.spilled)
            return true;
        return t <= s.storeCycle ||
               t >= s.loadCycle + lat.latency(Opcode::SpillLd);
    }

    bool
    checkShape()
    {
        // Recorded cycles beyond maxCycleMagnitude are garbage, not
        // schedules; refusing them bounds the replay timeline.
        if (ii < 1 || ii > maxCycleMagnitude)
            return fault(SimFaultKind::MalformedSchedule, -1,
                         invalidNode, concat("bad II ", ii));
        auto inRange = [](int c) {
            return c >= -maxCycleMagnitude && c <= maxCycleMagnitude;
        };
        for (NodeId v = 0; v < n; ++v) {
            int c = clusterOf(v);
            if (c < 0 || c >= machine.numClusters()) {
                return fault(SimFaultKind::MalformedSchedule, -1, v,
                             concat("node ", v, " in bad cluster ",
                                    c));
            }
            if (!inRange(cycleOf(v))) {
                return fault(SimFaultKind::MalformedSchedule, -1, v,
                             concat("node ", v, " at absurd cycle ",
                                    cycleOf(v)));
            }
            for (const Transfer &t : img.xfers[v]) {
                if (t.viaBus && (t.busClass < 0 ||
                                 t.busClass >= machine.numBusClasses())) {
                    return fault(SimFaultKind::BadBusClass, -1, v,
                                 concat("transfer of ", v,
                                        " rides unknown bus class ",
                                        t.busClass));
                }
                if (!inRange(t.busCycle) || !inRange(t.stCycle) ||
                    !inRange(t.ldCycle) || !inRange(t.readCycle) ||
                    !inRange(t.arrivalCycle)) {
                    return fault(SimFaultKind::MalformedSchedule, -1,
                                 v,
                                 concat("transfer of ", v,
                                        " at absurd cycles"));
                }
            }
            const SpillInfo &s = img.spill[v];
            if (s.spilled &&
                (!inRange(s.storeCycle) || !inRange(s.loadCycle))) {
                return fault(SimFaultKind::MalformedSchedule, -1, v,
                             concat("spill of ", v,
                                    " at absurd cycles"));
            }
        }
        return true;
    }

    /** Frame extents: hiMetric mirrors scheduleLength()'s finish
     *  rule; hiAlloc additionally covers occupancy tails. */
    bool
    computeExtent()
    {
        lo = INT_MAX;
        hiMetric = INT_MIN;
        hiAlloc = INT_MIN;
        auto extend = [&](int issue, int finMetric, int finAlloc) {
            lo = std::min(lo, issue);
            hiMetric = std::max(hiMetric, finMetric);
            hiAlloc = std::max(hiAlloc, std::max(finMetric, finAlloc));
        };
        auto span = [&](Opcode op) {
            return std::max(lat.latency(op), lat.occupancy(op));
        };
        for (NodeId v = 0; v < n; ++v) {
            Opcode op = ddg.node(v).opcode;
            extend(cycleOf(v), cycleOf(v) + lat.latency(op),
                   cycleOf(v) + span(op));
            for (const Transfer &t : img.xfers[v]) {
                if (t.viaBus) {
                    extend(t.busCycle, t.arrivalCycle,
                           t.busCycle +
                               machine.busLatencyOf(t.busClass));
                } else {
                    extend(t.stCycle,
                           t.stCycle + lat.latency(Opcode::CommSt),
                           t.stCycle + span(Opcode::CommSt));
                    extend(t.ldCycle, t.arrivalCycle,
                           t.ldCycle + span(Opcode::CommLd));
                }
            }
            const SpillInfo &s = img.spill[v];
            if (s.spilled) {
                extend(s.storeCycle,
                       s.storeCycle + lat.latency(Opcode::SpillSt),
                       s.storeCycle + span(Opcode::SpillSt));
                extend(s.loadCycle,
                       s.loadCycle + lat.latency(Opcode::SpillLd),
                       s.loadCycle + span(Opcode::SpillLd));
            }
        }
        maxDist = 0;
        for (EdgeId e = 0; e < ddg.numEdges(); ++e)
            maxDist = std::max(maxDist, ddg.edge(e).distance);

        const int sl = hiMetric - lo;
        const std::int64_t depth = sl / ii + 1;
        K = std::min<std::int64_t>(trip, depth + maxDist + 2);
        timeline = (K - 1 + maxDist) * ii + (hiAlloc - lo) + ii + 1;
        if (timeline > kMaxTimeline) {
            return fault(SimFaultKind::MalformedSchedule, -1,
                         invalidNode,
                         concat("replay window of ", timeline,
                                " cycles exceeds the simulator cap"));
        }
        return true;
    }

    void
    occupy(std::vector<int> &grid, std::int64_t start, int len)
    {
        GPSCHED_ASSERT(start >= 0 &&
                           start + len <=
                               static_cast<std::int64_t>(grid.size()),
                       "replay grid out of range");
        for (int i = 0; i < len; ++i)
            grid[start + i] += 1;
    }

    /** Marks [from, to] (inclusive, absolute) live in @p grid. */
    void
    coverLive(std::vector<int> &grid, std::int64_t from,
              std::int64_t to)
    {
        if (to < from)
            return;
        GPSCHED_ASSERT(from >= 0 &&
                           to < static_cast<std::int64_t>(grid.size()),
                       "replay live range out of range");
        for (std::int64_t t = from; t <= to; ++t)
            grid[t] += 1;
    }

    std::vector<int> &
    fu(int cluster, FuClass cls)
    {
        return fuGrid[cluster * numFuClasses +
                      static_cast<int>(cls)];
    }

    /** Issues every op, transfer and spill of the replay window,
     *  checking each realized read against value availability. */
    bool
    replayIssues()
    {
        for (std::int64_t j = 0; j < K; ++j) {
            for (NodeId v = 0; v < n; ++v) {
                Opcode op = ddg.node(v).opcode;
                occupy(fu(clusterOf(v), fuClassOf(op)),
                       abs(j, cycleOf(v)), lat.occupancy(op));
            }
            for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
                const DdgEdge &edge = ddg.edge(e);
                const std::int64_t p = j - edge.distance;
                if (p < 0)
                    continue; // value from before the loop
                const std::int64_t consume = abs(j, cycleOf(edge.dst));
                const std::int64_t produce = abs(p, cycleOf(edge.src));
                if (consume < produce + edge.latency) {
                    return fault(
                        SimFaultKind::DependenceViolation, consume,
                        edge.dst,
                        concat("node ", edge.dst, " issues at ",
                               consume, " but node ", edge.src,
                               " (latency ", edge.latency,
                               ") issued at ", produce));
                }
                if (!edge.isFlow())
                    continue;
                if (clusterOf(edge.src) == clusterOf(edge.dst)) {
                    const std::int64_t write =
                        abs(p, writeFrame(edge.src));
                    if (consume < write) {
                        return fault(
                            SimFaultKind::ReadBeforeWrite, consume,
                            edge.dst,
                            concat("node ", edge.dst, " reads ",
                                   edge.src, " at ", consume,
                                   " before its write at ", write));
                    }
                    // Frame-relative read time under the spill split.
                    int read_frame =
                        cycleOf(edge.dst) + ii * edge.distance;
                    if (!homeReadOk(edge.src, read_frame)) {
                        return fault(
                            SimFaultKind::SpillGapRead, consume,
                            edge.src,
                            concat("node ", edge.dst,
                                   " reads inside the spill gap of ",
                                   edge.src));
                    }
                    continue;
                }
                const Transfer *t = nullptr;
                for (const Transfer &cand : img.xfers[edge.src]) {
                    if (cand.destCluster == clusterOf(edge.dst))
                        t = &cand;
                }
                if (!t) {
                    return fault(
                        SimFaultKind::MissingTransfer, consume,
                        edge.src,
                        concat("no transfer of ", edge.src,
                               " to cluster ",
                               clusterOf(edge.dst)));
                }
                const std::int64_t arrive = abs(p, t->arrivalCycle);
                if (consume < arrive) {
                    return fault(
                        SimFaultKind::ReadBeforeWrite, consume,
                        edge.dst,
                        concat("node ", edge.dst, " reads ",
                               edge.src, " in cluster ",
                               t->destCluster, " at ", consume,
                               " before the transfer arrives at ",
                               arrive));
                }
            }
            for (NodeId v = 0; v < n; ++v) {
                if (!replayTransfers(j, v) || !replaySpill(j, v))
                    return false;
            }
        }
        return true;
    }

    bool
    replayTransfers(std::int64_t j, NodeId v)
    {
        for (const Transfer &t : img.xfers[v]) {
            const std::int64_t read = abs(j, t.readCycle);
            const std::int64_t write = abs(j, writeFrame(v));
            if (read < write) {
                return fault(SimFaultKind::ReadBeforeWrite, read, v,
                             concat("transfer of ", v, " reads at ",
                                    read, " before its write at ",
                                    write));
            }
            if (!homeReadOk(v, t.readCycle)) {
                return fault(SimFaultKind::SpillGapRead, read, v,
                             concat("transfer of ", v,
                                    " reads inside its spill gap"));
            }
            if (t.viaBus) {
                const int bus_lat = machine.busLatencyOf(t.busClass);
                if (t.readCycle != t.busCycle ||
                    t.arrivalCycle != t.busCycle + bus_lat) {
                    return fault(
                        SimFaultKind::InconsistentTransfer, read, v,
                        concat("bus transfer of ", v,
                               " has inconsistent timing"));
                }
                occupy(busGrid[t.busClass], abs(j, t.busCycle),
                       bus_lat);
            } else {
                if (t.readCycle != t.stCycle ||
                    t.ldCycle <
                        t.stCycle + lat.latency(Opcode::CommSt) ||
                    t.arrivalCycle !=
                        t.ldCycle + lat.latency(Opcode::CommLd)) {
                    return fault(
                        SimFaultKind::InconsistentTransfer, read, v,
                        concat("memory transfer of ", v,
                               " has inconsistent timing"));
                }
                occupy(fu(clusterOf(v), FuClass::Mem),
                       abs(j, t.stCycle),
                       lat.occupancy(Opcode::CommSt));
                occupy(fu(t.destCluster, FuClass::Mem),
                       abs(j, t.ldCycle),
                       lat.occupancy(Opcode::CommLd));
            }
            if (j == 0) {
                bool consumed = false;
                for (EdgeId e : ddg.outEdges(v)) {
                    const DdgEdge &edge = ddg.edge(e);
                    if (edge.isFlow() &&
                        clusterOf(edge.dst) == t.destCluster)
                        consumed = true;
                }
                if (!consumed) {
                    return fault(
                        SimFaultKind::UnusedTransfer,
                        abs(j, t.arrivalCycle), v,
                        concat("transfer of ", v, " to cluster ",
                               t.destCluster, " has no consumer"));
                }
            }
        }
        return true;
    }

    bool
    replaySpill(std::int64_t j, NodeId v)
    {
        const SpillInfo &s = img.spill[v];
        if (!s.spilled)
            return true;
        if (s.storeCycle < writeFrame(v)) {
            return fault(SimFaultKind::BrokenSpill,
                         abs(j, s.storeCycle), v,
                         concat("spill store of ", v, " at frame ",
                                s.storeCycle, " before its write at ",
                                writeFrame(v)));
        }
        if (s.loadCycle + lat.latency(Opcode::SpillLd) <=
            s.storeCycle + lat.latency(Opcode::SpillSt)) {
            return fault(SimFaultKind::BrokenSpill,
                         abs(j, s.loadCycle), v,
                         concat("spill of ", v,
                                " reloads before the store "
                                "completes"));
        }
        occupy(fu(clusterOf(v), FuClass::Mem), abs(j, s.storeCycle),
               lat.occupancy(Opcode::SpillSt));
        occupy(fu(clusterOf(v), FuClass::Mem), abs(j, s.loadCycle),
               lat.occupancy(Opcode::SpillLd));
        return true;
    }

    /** Replays every value instance's register lifetime onto the
     *  timeline (home segment, spill split, destination segments). */
    void
    replayLifetimes()
    {
        for (std::int64_t j = 0; j < K; ++j) {
            for (NodeId v = 0; v < n; ++v) {
                if (!definesValue(ddg.node(v).opcode))
                    continue;
                const int home = clusterOf(v);
                const int write = writeFrame(v);

                int home_last = write;
                for (EdgeId e : ddg.outEdges(v)) {
                    const DdgEdge &edge = ddg.edge(e);
                    if (!edge.isFlow() ||
                        clusterOf(edge.dst) != home)
                        continue;
                    if (j + edge.distance >= trip)
                        continue; // consumer iteration never runs
                    home_last = std::max(
                        home_last,
                        cycleOf(edge.dst) + ii * edge.distance);
                }
                for (const Transfer &t : img.xfers[v])
                    home_last = std::max(home_last, t.readCycle);

                const SpillInfo &s = img.spill[v];
                if (!s.spilled) {
                    coverLive(liveGrid[home], abs(j, write),
                              abs(j, home_last));
                } else {
                    coverLive(liveGrid[home], abs(j, write),
                              abs(j, s.storeCycle));
                    int reload = s.loadCycle +
                                 lat.latency(Opcode::SpillLd);
                    if (home_last >= reload) {
                        coverLive(liveGrid[home], abs(j, reload),
                                  abs(j, home_last));
                    }
                }

                for (const Transfer &t : img.xfers[v]) {
                    int last = t.arrivalCycle;
                    for (EdgeId e : ddg.outEdges(v)) {
                        const DdgEdge &edge = ddg.edge(e);
                        if (!edge.isFlow() ||
                            clusterOf(edge.dst) != t.destCluster)
                            continue;
                        if (j + edge.distance >= trip)
                            continue;
                        last = std::max(last,
                                        cycleOf(edge.dst) +
                                            ii * edge.distance);
                    }
                    coverLive(liveGrid[t.destCluster],
                              abs(j, t.arrivalCycle), abs(j, last));
                }
            }
        }
    }

    /** Earliest-cycle scan of every grid against its capacity. */
    bool
    scanCapacities()
    {
        const int clusters = machine.numClusters();
        for (int c = 0; c < clusters; ++c) {
            for (std::int64_t t = 0; t < timeline; ++t) {
                res.maxLive[c] =
                    std::max(res.maxLive[c], liveGrid[c][t]);
            }
        }
        for (std::int64_t t = 0; t < timeline; ++t) {
            for (int c = 0; c < clusters; ++c) {
                for (int k = 0; k < numFuClasses; ++k) {
                    FuClass cls = static_cast<FuClass>(k);
                    int used = fu(c, cls)[t];
                    int units = machine.fuInCluster(c, cls);
                    if (used > units) {
                        return fault(
                            cls == FuClass::Mem
                                ? SimFaultKind::MemPortOverflow
                                : SimFaultKind::FuOverflow,
                            t, invalidNode,
                            concat("cluster ", c, " ",
                                   gpsched::toString(cls),
                                   " over capacity ", used, "/",
                                   units, " at cycle ", t));
                    }
                }
            }
            for (int bc = 0; bc < machine.numBusClasses(); ++bc) {
                int used = busGrid[bc][t];
                int count = machine.busClass(bc).count;
                if (used > count) {
                    return fault(SimFaultKind::BusOverflow, t,
                                 invalidNode,
                                 concat("bus class ", bc,
                                        " over capacity ", used, "/",
                                        count, " at cycle ", t));
                }
            }
            for (int c = 0; c < clusters; ++c) {
                int used = liveGrid[c][t];
                int regs = machine.regsInCluster(c);
                if (used > regs) {
                    return fault(SimFaultKind::RegisterOverflow, t,
                                 invalidNode,
                                 concat("cluster ", c, " holds ",
                                        used, " live values in ",
                                        regs, " registers at cycle ",
                                        t));
                }
            }
        }
        return true;
    }

    SimResult
    run()
    {
        res.maxLive.assign(machine.numClusters(), 0);
        if (!checkShape() || !computeExtent()) {
            return res;
        }
        res.iterationsSimulated = K;
        res.replayed = true;
        fuGrid.assign(machine.numClusters() * numFuClasses,
                      std::vector<int>(timeline, 0));
        busGrid.assign(machine.numBusClasses(),
                       std::vector<int>(timeline, 0));
        liveGrid.assign(machine.numClusters(),
                        std::vector<int>(timeline, 0));
        if (!replayIssues()) {
            res.replayed = true;
            return res;
        }
        replayLifetimes();
        if (!scanCapacities())
            return res;

        // Measured initiation interval: separation of the first
        // issues of consecutive iterations.
        int min_cycle = INT_MAX;
        for (NodeId v = 0; v < n; ++v)
            min_cycle = std::min(min_cycle, cycleOf(v));
        res.achievedII =
            K >= 2 ? static_cast<int>(abs(1, min_cycle) -
                                      abs(0, min_cycle))
                   : ii;

        const int sl = hiMetric - lo;
        res.simCycles = std::max<std::int64_t>(
            (trip - 1) * res.achievedII + sl, 1);
        res.achievedIpc =
            static_cast<double>(static_cast<std::int64_t>(n) * trip) /
            static_cast<double>(res.simCycles);
        res.simOk = true;
        return res;
    }
};

SimResult
faulted(const MachineConfig &machine, SimFault f)
{
    SimResult res;
    res.maxLive.assign(machine.numClusters(), 0);
    res.fault = std::move(f);
    return res;
}

} // namespace

const char *
toString(SimFaultKind kind)
{
    switch (kind) {
      case SimFaultKind::MalformedSchedule: return "MalformedSchedule";
      case SimFaultKind::DependenceViolation:
        return "DependenceViolation";
      case SimFaultKind::ReadBeforeWrite: return "ReadBeforeWrite";
      case SimFaultKind::SpillGapRead: return "SpillGapRead";
      case SimFaultKind::MissingTransfer: return "MissingTransfer";
      case SimFaultKind::UnusedTransfer: return "UnusedTransfer";
      case SimFaultKind::InconsistentTransfer:
        return "InconsistentTransfer";
      case SimFaultKind::BadBusClass: return "BadBusClass";
      case SimFaultKind::BrokenSpill: return "BrokenSpill";
      case SimFaultKind::FuOverflow: return "FuOverflow";
      case SimFaultKind::MemPortOverflow: return "MemPortOverflow";
      case SimFaultKind::BusOverflow: return "BusOverflow";
      case SimFaultKind::RegisterOverflow: return "RegisterOverflow";
    }
    return "UnknownFault";
}

std::string
SimFault::toString() const
{
    std::ostringstream oss;
    oss << sim::toString(kind);
    if (cycle >= 0)
        oss << " @" << cycle;
    if (node != invalidNode)
        oss << " node " << node;
    oss << ": " << detail;
    return oss.str();
}

SimResult
simulate(const Ddg &ddg, const MachineConfig &machine,
         const CompiledLoop &loop)
{
    const std::int64_t trip = ddg.tripCount();
    if (!loop.moduloScheduled) {
        // No kernel to replay: recompute the iterative execution's
        // cycle count from the flat schedule length.
        SimResult res;
        res.maxLive.assign(machine.numClusters(), 0);
        res.simOk = true;
        res.replayed = false;
        res.achievedII = 0;
        res.simCycles = std::max<std::int64_t>(
            static_cast<std::int64_t>(loop.scheduleLength) * trip, 1);
        res.achievedIpc =
            static_cast<double>(static_cast<std::int64_t>(
                ddg.numNodes()) * trip) /
            static_cast<double>(res.simCycles);
        return res;
    }
    if (loop.ii < 1) {
        return faulted(machine,
                       {SimFaultKind::MalformedSchedule, -1,
                        invalidNode, concat("bad II ", loop.ii)});
    }
    Image img;
    if (auto f = buildImage(ddg, machine, loop, img))
        return faulted(machine, std::move(*f));
    return Replayer(ddg, machine, img, trip).run();
}

SimResult
simulate(const Ddg &ddg, const MachineConfig &machine,
         const PartialSchedule &schedule)
{
    Image img;
    if (auto f = buildImage(ddg, schedule, img))
        return faulted(machine, std::move(*f));
    return Replayer(ddg, machine, img, ddg.tripCount()).run();
}

} // namespace gpsched::sim
