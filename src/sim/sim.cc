#include "sim/sim.hh"

#include <algorithm>
#include <climits>
#include <sstream>

#include "core/gp_scheduler.hh"
#include "graph/ddg.hh"
#include "sched/schedule.hh"
#include "sched/schedule_image.hh"
#include "support/logging.hh"

namespace gpsched::sim
{

namespace
{

/** Hard cap on the replay timeline length (cycles). */
constexpr std::int64_t kMaxTimeline = std::int64_t{1} << 22;

/** Cells [start, start + len) of a grid row in iteration 0, start
 *  relative to the window's first cycle; j * II later in iteration j. */
struct Interval
{
    int row, start, len;
};

/** A replay's storage, kept per thread across replays. */
struct Scratch
{
    ScheduleImage img;
    /** Per resource row, timeline + 1 cells: first +1/-1 at interval
     *  ends, then running counts. */
    std::vector<int> grid;
    std::vector<Interval> busy; ///< FU and bus intervals
    std::vector<Interval> live; ///< register lifetimes
};

/** The replay engine proper. */
struct Replayer
{
    const Ddg &ddg;
    const MachineConfig &machine;
    Scratch &scratch;
    const ScheduleImage &img = scratch.img;
    const LatencyTable &lat = machine.latencies();
    const std::int64_t trip = ddg.tripCount();
    const int n = ddg.numNodes();
    const int ii = img.ii;
    const int clusters = machine.numClusters();
    // Grid rows: FU classes per cluster, bus classes, register files.
    const int busRows = clusters * numFuClasses;
    const int liveRows = busRows + machine.numBusClasses();
    const int rows = liveRows + clusters;

    int lo = 0;         ///< earliest frame event (issue) cycle
    int hiMetric = 0;   ///< latest frame finish (scheduleLength end)
    int hiAlloc = 0;    ///< latest frame cycle any grid is touched
    int maxDist = 0;    ///< max dependence distance
    std::int64_t K = 1; ///< iterations replayed
    std::int64_t timeline = 0;

    SimResult res = {};

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
                         invalidNode, buildMessage("bad II ", ii));
        auto inRange = [](int c) {
            return c >= -maxCycleMagnitude && c <= maxCycleMagnitude;
        };
        for (NodeId v = 0; v < n; ++v) {
            int c = clusterOf(v);
            if (c < 0 || c >= clusters) {
                return fault(SimFaultKind::MalformedSchedule, -1, v,
                             buildMessage("node ", v, " in bad cluster ",
                                          c));
            }
            if (!inRange(cycleOf(v))) {
                return fault(SimFaultKind::MalformedSchedule, -1, v,
                             buildMessage("node ", v, " at absurd cycle ",
                                          cycleOf(v)));
            }
            for (const Transfer &t : img.transfersOf(v)) {
                if (t.viaBus && (t.busClass < 0 ||
                                 t.busClass >= machine.numBusClasses())) {
                    return fault(SimFaultKind::BadBusClass, -1, v,
                                 buildMessage("transfer of ", v,
                                              " rides unknown bus class ",
                                              t.busClass));
                }
                if (!inRange(t.busCycle) || !inRange(t.stCycle) ||
                    !inRange(t.ldCycle) || !inRange(t.readCycle) ||
                    !inRange(t.arrivalCycle)) {
                    return fault(SimFaultKind::MalformedSchedule, -1,
                                 v,
                                 buildMessage("transfer of ", v,
                                              " at absurd cycles"));
                }
            }
            const SpillInfo &s = img.spill[v];
            if (s.spilled &&
                (!inRange(s.storeCycle) || !inRange(s.loadCycle))) {
                return fault(SimFaultKind::MalformedSchedule, -1, v,
                             buildMessage("spill of ", v,
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
            for (const Transfer &t : img.transfersOf(v)) {
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
                         buildMessage("replay window of ", timeline,
                                      " cycles exceeds the simulator cap"));
        }
        return true;
    }

    /** Checks every realized read, transfer and spill in replay
     *  order. No check's outcome depends on the iteration j, so j
     *  only runs the edges of distance j (the rest passed earlier),
     *  and only iteration 0 runs the transfers and spills. */
    bool
    checkIssues()
    {
        for (std::int64_t j = 0; j < K && j <= maxDist; ++j) {
            for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
                if (ddg.edge(e).distance == j && !checkEdge(e, j))
                    return false;
            }
            for (NodeId v = 0; j == 0 && v < n; ++v) {
                if (!checkTransfers(v) || !checkSpill(v))
                    return false;
            }
        }
        return true;
    }

    /** Edge @p e read in iteration @p j (its producer's instance is
     *  iteration j - distance >= 0). */
    bool
    checkEdge(EdgeId e, std::int64_t j)
    {
        const DdgEdge &edge = ddg.edge(e);
        const std::int64_t p = j - edge.distance;
        const std::int64_t consume = abs(j, cycleOf(edge.dst));
        const std::int64_t produce = abs(p, cycleOf(edge.src));
        if (consume < produce + edge.latency) {
            return fault(SimFaultKind::DependenceViolation, consume,
                         edge.dst,
                         buildMessage("node ", edge.dst, " issues at ",
                                      consume, " but node ", edge.src,
                                      " (latency ", edge.latency,
                                      ") issued at ", produce));
        }
        if (!edge.isFlow())
            return true;
        if (clusterOf(edge.src) == clusterOf(edge.dst)) {
            const std::int64_t write = abs(p, writeFrame(edge.src));
            if (consume < write) {
                return fault(SimFaultKind::ReadBeforeWrite, consume,
                             edge.dst,
                             buildMessage("node ", edge.dst, " reads ",
                                          edge.src, " at ", consume,
                                          " before its write at ", write));
            }
            // Frame-relative read time under the spill split.
            int read_frame = cycleOf(edge.dst) + ii * edge.distance;
            if (!homeReadOk(edge.src, read_frame)) {
                return fault(SimFaultKind::SpillGapRead, consume,
                             edge.src,
                             buildMessage("node ", edge.dst,
                                          " reads inside the spill gap of ",
                                          edge.src));
            }
            return true;
        }
        const Transfer *t =
            img.transferTo(edge.src, clusterOf(edge.dst));
        if (!t) {
            return fault(SimFaultKind::MissingTransfer, consume,
                         edge.src,
                         buildMessage("no transfer of ", edge.src,
                                      " to cluster ", clusterOf(edge.dst)));
        }
        const std::int64_t arrive = abs(p, t->arrivalCycle);
        if (consume < arrive) {
            return fault(SimFaultKind::ReadBeforeWrite, consume,
                         edge.dst,
                         buildMessage("node ", edge.dst, " reads ", edge.src,
                                      " in cluster ", t->destCluster, " at ",
                                      consume,
                                      " before the transfer arrives at ",
                                      arrive));
        }
        return true;
    }

    /** @p v's transfers, as issued in iteration 0. */
    bool
    checkTransfers(NodeId v)
    {
        for (const Transfer &t : img.transfersOf(v)) {
            const std::int64_t read = abs(0, t.readCycle);
            const std::int64_t write = abs(0, writeFrame(v));
            if (read < write) {
                return fault(SimFaultKind::ReadBeforeWrite, read, v,
                             buildMessage("transfer of ", v, " reads at ",
                                          read, " before its write at ",
                                          write));
            }
            if (!homeReadOk(v, t.readCycle)) {
                return fault(SimFaultKind::SpillGapRead, read, v,
                             buildMessage("transfer of ", v,
                                          " reads inside its spill gap"));
            }
            if (t.viaBus) {
                const int bus_lat = machine.busLatencyOf(t.busClass);
                if (t.readCycle != t.busCycle ||
                    t.arrivalCycle != t.busCycle + bus_lat) {
                    return fault(
                        SimFaultKind::InconsistentTransfer, read, v,
                        buildMessage("bus transfer of ", v,
                                     " has inconsistent timing"));
                }
            } else if (t.readCycle != t.stCycle ||
                       t.ldCycle <
                           t.stCycle + lat.latency(Opcode::CommSt) ||
                       t.arrivalCycle !=
                           t.ldCycle + lat.latency(Opcode::CommLd)) {
                return fault(SimFaultKind::InconsistentTransfer, read,
                             v,
                             buildMessage("memory transfer of ", v,
                                          " has inconsistent timing"));
            }
            auto consumes = [&](EdgeId e) {
                const DdgEdge &edge = ddg.edge(e);
                return edge.isFlow() && clusterOf(edge.dst) == t.destCluster;
            };
            const auto &out = ddg.outEdges(v);
            if (std::none_of(out.begin(), out.end(), consumes)) {
                return fault(SimFaultKind::UnusedTransfer,
                             abs(0, t.arrivalCycle), v,
                             buildMessage("transfer of ", v, " to cluster ",
                                          t.destCluster, " has no consumer"));
            }
        }
        return true;
    }

    bool
    checkSpill(NodeId v)
    {
        const SpillInfo &s = img.spill[v];
        if (!s.spilled)
            return true;
        if (s.storeCycle < writeFrame(v)) {
            return fault(SimFaultKind::BrokenSpill, abs(0, s.storeCycle),
                         v,
                         buildMessage("spill store of ", v, " at frame ",
                                      s.storeCycle, " before its write at ",
                                      writeFrame(v)));
        }
        if (s.loadCycle + lat.latency(Opcode::SpillLd) <=
            s.storeCycle + lat.latency(Opcode::SpillSt)) {
            return fault(SimFaultKind::BrokenSpill, abs(0, s.loadCycle),
                         v,
                         buildMessage("spill of ", v,
                                      " reloads before the store "
                                      "completes"));
        }
        return true;
    }

    /** One iteration's unit and bus occupancy: every op, transfer
     *  half and spill half for its occupancy, every bus ride for
     *  its class latency. */
    void
    collectBusy(std::vector<Interval> &out) const
    {
        out.clear();
        auto add = [&](int row, int cycle, int len) {
            out.push_back({row, cycle - lo, len});
        };
        auto fuRow = [](int cluster, FuClass cls) {
            return cluster * numFuClasses + static_cast<int>(cls);
        };
        for (NodeId v = 0; v < n; ++v) {
            Opcode op = ddg.node(v).opcode;
            add(fuRow(clusterOf(v), fuClassOf(op)), cycleOf(v),
                lat.occupancy(op));
            for (const Transfer &t : img.transfersOf(v)) {
                if (t.viaBus) {
                    add(busRows + t.busClass, t.busCycle,
                        machine.busLatencyOf(t.busClass));
                } else {
                    add(fuRow(clusterOf(v), FuClass::Mem), t.stCycle,
                        lat.occupancy(Opcode::CommSt));
                    add(fuRow(t.destCluster, FuClass::Mem), t.ldCycle,
                        lat.occupancy(Opcode::CommLd));
                }
            }
            const SpillInfo &s = img.spill[v];
            if (s.spilled) {
                add(fuRow(clusterOf(v), FuClass::Mem), s.storeCycle,
                    lat.occupancy(Opcode::SpillSt));
                add(fuRow(clusterOf(v), FuClass::Mem), s.loadCycle,
                    lat.occupancy(Opcode::SpillLd));
            }
        }
    }

    /** Latest frame read of @p v in cluster @p c by a consumer
     *  iteration that runs (j + distance < trip), at least
     *  @p floor. */
    int
    lastRead(NodeId v, int c, std::int64_t j, int floor) const
    {
        for (EdgeId e : ddg.outEdges(v)) {
            const DdgEdge &edge = ddg.edge(e);
            if (edge.isFlow() && clusterOf(edge.dst) == c &&
                j + edge.distance < trip)
                floor = std::max(floor,
                                 cycleOf(edge.dst) + ii * edge.distance);
        }
        return floor;
    }

    /** Iteration @p j's register lifetimes: each value's home
     *  segment (split around a spill) and destination segments. */
    void
    collectLive(std::int64_t j, std::vector<Interval> &out) const
    {
        out.clear();
        auto cover = [&](int cluster, int from, int to) {
            if (to >= from)
                out.push_back({liveRows + cluster, from - lo,
                               to - from + 1});
        };
        for (NodeId v = 0; v < n; ++v) {
            if (!definesValue(ddg.node(v).opcode))
                continue;
            const int home = clusterOf(v);
            const int write = writeFrame(v);
            int home_last = lastRead(v, home, j, write);
            for (const Transfer &t : img.transfersOf(v))
                home_last = std::max(home_last, t.readCycle);

            const SpillInfo &s = img.spill[v];
            if (!s.spilled) {
                cover(home, write, home_last);
            } else {
                cover(home, write, s.storeCycle);
                cover(home, s.loadCycle + lat.latency(Opcode::SpillLd),
                      home_last);
            }
            for (const Transfer &t : img.transfersOf(v)) {
                cover(t.destCluster, t.arrivalCycle,
                      lastRead(v, t.destCluster, j, t.arrivalCycle));
            }
        }
    }

    /** Adds iteration @p j's instances of @p items to the grid. */
    void
    stamp(const std::vector<Interval> &items, std::int64_t j)
    {
        int *grid = scratch.grid.data();
        const std::int64_t stride = timeline + 1;
        for (const Interval &it : items) {
            const std::int64_t at = j * ii + it.start;
            GPSCHED_ASSERT(at >= 0 && at + it.len <= timeline,
                           "replay grid out of range");
            grid[it.row * stride + at] += 1;
            grid[it.row * stride + at + it.len] -= 1;
        }
    }

    /** Replays every iteration's occupancy and lifetimes. A value's
     *  last reads differ from iteration 0's only in the tail, where
     *  some consumer iteration never runs (j + maxDist >= trip). */
    void
    replayGrid()
    {
        scratch.grid.assign(rows * (timeline + 1), 0);
        collectBusy(scratch.busy);
        for (std::int64_t j = 0; j < K; ++j) {
            if (j == 0 || j + maxDist >= trip)
                collectLive(j, scratch.live);
            stamp(scratch.busy, j);
            stamp(scratch.live, j);
        }
    }

    int
    capacity(int row) const
    {
        if (row >= liveRows)
            return machine.regsInCluster(row - liveRows);
        if (row >= busRows)
            return machine.busClass(row - busRows).count;
        auto cls = static_cast<FuClass>(row % numFuClasses);
        return machine.fuInCluster(row / numFuClasses, cls);
    }

    /** Turns each row's interval ends into counts and checks every
     *  row against its capacity; on an overflow, the earliest cycle
     *  wins, and within it FU rows, then buses, then registers. */
    bool
    scanCapacities()
    {
        const std::int64_t stride = timeline + 1;
        bool over = false;
        for (int r = 0; r < rows; ++r) {
            int *cell = scratch.grid.data() + r * stride;
            int count = 0, peak = 0;
            for (std::int64_t t = 0; t < timeline; ++t) {
                count += cell[t];
                cell[t] = count;
                peak = std::max(peak, count);
            }
            if (r >= liveRows)
                res.maxLive[r - liveRows] = peak;
            over = over || peak > capacity(r);
        }
        for (std::int64_t t = 0; over && t < timeline; ++t) {
            for (int r = 0; r < rows; ++r) {
                const int used = scratch.grid[r * stride + t];
                const int cap = capacity(r);
                if (used <= cap)
                    continue;
                if (r >= liveRows) {
                    return fault(SimFaultKind::RegisterOverflow, t,
                                 invalidNode,
                                 buildMessage("cluster ", r - liveRows,
                                              " holds ", used,
                                              " live values in ", cap,
                                              " registers at cycle ", t));
                }
                if (r >= busRows) {
                    return fault(SimFaultKind::BusOverflow, t,
                                 invalidNode,
                                 buildMessage("bus class ", r - busRows,
                                              " over capacity ", used,
                                              "/", cap, " at cycle ", t));
                }
                FuClass cls = static_cast<FuClass>(r % numFuClasses);
                return fault(cls == FuClass::Mem
                                 ? SimFaultKind::MemPortOverflow
                                 : SimFaultKind::FuOverflow,
                             t, invalidNode,
                             buildMessage("cluster ", r / numFuClasses,
                                          " ", gpsched::toString(cls),
                                          " over capacity ", used, "/",
                                          cap, " at cycle ", t));
            }
        }
        return true;
    }

    SimResult
    run()
    {
        res.maxLive.assign(clusters, 0);
        if (!checkShape() || !computeExtent())
            return res;
        res.iterationsSimulated = K;
        res.replayed = true;
        if (!checkIssues())
            return res;
        replayGrid();
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

thread_local Scratch tlsScratch;

/** Replays the image in tlsScratch, unless its shape is broken. */
SimResult
replayImage(const Ddg &ddg, const MachineConfig &machine,
            std::optional<ShapeFault> shape)
{
    SimResult res;
    if (shape) {
        res.maxLive.assign(machine.numClusters(), 0);
        res.fault = SimFault{SimFaultKind::MalformedSchedule, -1,
                             shape->node, std::move(shape->message)};
        return res;
    }
    res = Replayer{ddg, machine, tlsScratch}.run();
    trimScratch(tlsScratch.grid);
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
    return replayImage(
        ddg, machine,
        flattenRecord(ddg, machine, loop, true, tlsScratch.img));
}

SimResult
simulate(const Ddg &ddg, const MachineConfig &machine,
         const PartialSchedule &schedule)
{
    flattenSchedule(ddg, schedule, tlsScratch.img);
    std::optional<ShapeFault> shape;
    if (NodeId v = tlsScratch.img.unplaced; v < ddg.numNodes())
        shape = ShapeFault{v, buildMessage("node ", v, " not scheduled")};
    return replayImage(ddg, machine, std::move(shape));
}

} // namespace gpsched::sim
