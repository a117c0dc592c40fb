#include "sched/schedule.hh"

#include <algorithm>
#include <climits>
#include <map>
#include <utility>

#include "support/logging.hh"
#include "support/telemetry.hh"

namespace gpsched
{

namespace
{

/**
 * Free cycles a transfer's window must retain beyond a slower bus
 * class's latency before the SlackAware policy steers it there.
 * Larger margins keep more traffic on fast buses; 0 steers any
 * transfer that merely fits.
 */
constexpr int kSlackMargin = 2;

/** Clamped percentage of @p free consumed by @p delta. */
double
consumedPct(int delta, int free)
{
    if (delta <= 0)
        return 0.0;
    if (free <= 0)
        return 200.0;
    return 100.0 * delta / free;
}

/** Utilization percentage used/total with a zero-total guard. */
double
usedPct(int used, int total)
{
    if (total <= 0)
        return used > 0 ? 200.0 : 0.0;
    return 100.0 * used / total;
}

} // namespace

PartialSchedule::PartialSchedule(
    const Ddg &ddg, const MachineConfig &machine, int ii,
    const std::vector<int> &planned_mem_per_cluster,
    TransferCostPolicy transfer_cost)
    : ddg_(ddg), machine_(machine), ii_(ii),
      transferCost_(transfer_cost)
{
    const int num_clusters = machine_.numClusters();
    claimedBusScratch_.resize(machine_.numBusClasses());
    busMrts_.reserve(machine_.numBusClasses());
    for (int i = 0; i < machine_.numBusClasses(); ++i)
        busMrts_.emplace_back(machine_.busClass(i).count, 1);
    fuMrt_.reserve(num_clusters * numFuClasses);
    for (int c = 0; c < num_clusters; ++c) {
        for (int cls = 0; cls < numFuClasses; ++cls) {
            fuMrt_.emplace_back(
                machine_.fuInCluster(c, static_cast<FuClass>(cls)), 1);
        }
    }
    regs_.reserve(num_clusters);
    for (int c = 0; c < num_clusters; ++c)
        regs_.emplace_back(machine_.regsInCluster(c), 1);
    origMemOpsTotal_ =
        ddg_.totalOccupancy(FuClass::Mem, machine_.latencies());
    reset(ii, planned_mem_per_cluster);
}

void
PartialSchedule::reset(int ii,
                       const std::vector<int> &planned_mem_per_cluster)
{
    GPSCHED_ASSERT(ii >= 1, "II must be >= 1");
    const int num_clusters = machine_.numClusters();
    GPSCHED_ASSERT(planned_mem_per_cluster.empty() ||
                   static_cast<int>(planned_mem_per_cluster.size()) ==
                       num_clusters,
                   "planned memory vector arity mismatch");
    ii_ = ii;
    plannedMemOps_ = planned_mem_per_cluster;

    placed_.assign(ddg_.numNodes(), PlacedOp{});
    numScheduled_ = 0;
    for (ModuloReservationTable &mrt : busMrts_)
        mrt.reset(ii);
    for (ModuloReservationTable &mrt : fuMrt_)
        mrt.reset(ii);
    for (LifetimeTracker &tracker : regs_)
        tracker.reset(ii);
    values_.assign(ddg_.numNodes(), ValueState{});
    valueInCluster_.assign(
        static_cast<std::size_t>(ddg_.numNodes()) * num_clusters,
        ValueInCluster{});
    overheadMemOps_.assign(num_clusters, 0);
    overheadMemTotal_ = 0;
    numBusTransfers_ = 0;
    numMemTransfers_ = 0;
    numSpills_ = 0;
}

ModuloReservationTable &
PartialSchedule::fu(int cluster, FuClass cls)
{
    return fuMrt_[cluster * numFuClasses + static_cast<int>(cls)];
}

const ModuloReservationTable &
PartialSchedule::fu(int cluster, FuClass cls) const
{
    return fuMrt_[cluster * numFuClasses + static_cast<int>(cls)];
}

bool
PartialSchedule::isScheduled(NodeId v) const
{
    return placed_[v].scheduled;
}

int
PartialSchedule::cycleOf(NodeId v) const
{
    GPSCHED_ASSERT(isScheduled(v), "cycleOf of unscheduled node ", v);
    return placed_[v].cycle;
}

int
PartialSchedule::clusterOf(NodeId v) const
{
    GPSCHED_ASSERT(isScheduled(v), "clusterOf of unscheduled node ", v);
    return placed_[v].cluster;
}

int
PartialSchedule::latencyOf(NodeId v) const
{
    return machine_.latencies().latency(ddg_.node(v).opcode);
}

int
PartialSchedule::occupancyOf(NodeId v) const
{
    return machine_.latencies().occupancy(ddg_.node(v).opcode);
}

int
PartialSchedule::writeCycleOf(NodeId v) const
{
    return cycleOf(v) + latencyOf(v);
}

int
PartialSchedule::effLat(EdgeId e) const
{
    const DdgEdge &edge = ddg_.edge(e);
    return edge.latency - ii_ * edge.distance;
}

int
PartialSchedule::memFreeSlots(int cluster) const
{
    return fu(cluster, FuClass::Mem).freeSlots();
}

int
PartialSchedule::busFreeSlots() const
{
    int free = 0;
    for (const ModuloReservationTable &mrt : busMrts_)
        free += mrt.freeSlots();
    return free;
}

int
PartialSchedule::busUsedSlots() const
{
    int used = 0;
    for (const ModuloReservationTable &mrt : busMrts_)
        used += mrt.usedSlots();
    return used;
}

int
PartialSchedule::busTotalSlots() const
{
    int total = 0;
    for (const ModuloReservationTable &mrt : busMrts_)
        total += mrt.totalSlots();
    return total;
}

bool
PartialSchedule::homeReadTimeValid(const ValueState &vs, int time) const
{
    if (!vs.spilled)
        return true;
    int reload =
        vs.spillLd + machine_.latencies().latency(Opcode::SpillLd);
    return time <= vs.spillSt || time >= reload;
}

PartialSchedule::ReadRanges
PartialSchedule::homeReadRanges(const ValueState &vs, int lo,
                                int hi) const
{
    ReadRanges ranges;
    if (lo > hi)
        return ranges;
    if (!vs.spilled) {
        ranges.r[ranges.n++] = {lo, hi};
        return ranges;
    }
    int reload =
        vs.spillLd + machine_.latencies().latency(Opcode::SpillLd);
    if (lo <= std::min(hi, vs.spillSt))
        ranges.r[ranges.n++] = {lo, std::min(hi, vs.spillSt)};
    if (std::max(lo, reload) <= hi)
        ranges.r[ranges.n++] = {std::max(lo, reload), hi};
    return ranges;
}

SegmentList
PartialSchedule::segmentsFromState(int write_cycle, bool has_events,
                                   int last_event, bool home,
                                   int arrival, bool spilled,
                                   int spill_st, int spill_ld) const
{
    SegmentList segs;
    if (home) {
        if (!spilled) {
            int last = write_cycle;
            if (has_events)
                last = std::max(last, last_event);
            segs.push_back({write_cycle, last});
        } else {
            int reload = spill_ld +
                machine_.latencies().latency(Opcode::SpillLd);
            segs.push_back({write_cycle, spill_st});
            int last = has_events ? last_event : INT_MIN;
            if (last >= reload)
                segs.push_back({reload, last});
        }
    } else {
        if (!has_events)
            return segs;
        int last = std::max(last_event, arrival);
        segs.push_back({arrival, last});
    }
    return segs;
}

SegmentList
PartialSchedule::segmentsFromState(int write_cycle,
                                   const ReadEvents &events, bool home,
                                   int arrival, bool spilled,
                                   int spill_st, int spill_ld) const
{
    return segmentsFromState(write_cycle, !events.empty(),
                             events.empty() ? INT_MIN : events.back(),
                             home, arrival, spilled, spill_st,
                             spill_ld);
}

SegmentList
PartialSchedule::currentSegments(NodeId p, int cluster) const
{
    const ValueState &vs = values_[p];
    bool home = placed_[p].cluster == cluster;
    int arrival = 0;
    if (!home) {
        auto t_it = vs.transfers.find(cluster);
        if (t_it == vs.transfers.end())
            return {};
        arrival = t_it->second.arrivalCycle;
    }
    return segmentsFromState(writeCycleOf(p),
                             inCluster(p, cluster).events, home,
                             arrival, vs.spilled, vs.spillSt,
                             vs.spillLd);
}

void
PartialSchedule::setRegistered(NodeId p, int cluster,
                               const SegmentList &segs)
{
    SegmentList &registered = inCluster(p, cluster).registered;
    for (const LiveSegment &seg : registered)
        regs_[cluster].remove(seg);
    for (const LiveSegment &seg : segs)
        regs_[cluster].add(seg);
    registered = segs;
}

int
PartialSchedule::findSlot(const ModuloReservationTable &mrt, int from,
                          int to, int occupancy,
                          const std::vector<std::pair<int, int>> &claimed,
                          int ignore_cycle, int ignore_occ)
{
    if (claimed.empty() && (ignore_cycle == INT_MIN || ignore_occ <= 0))
        return mrt.firstFit(from, to, occupancy);
    ModuloReservationTable probe = mrt;
    if (ignore_cycle != INT_MIN && ignore_occ > 0)
        probe.release(ignore_cycle, ignore_occ);
    for (const auto &[cycle, occ] : claimed) {
        if (!probe.canReserve(cycle, occ))
            return INT_MIN; // claims already exhaust the pool
        probe.reserve(cycle, occ);
    }
    return probe.firstFit(from, to, occupancy);
}

bool
PartialSchedule::planTransfer(NodeId producer, int dest_cluster,
                              int ready, int use,
                              const PlacementPlan &plan,
                              TransferPlan &out) const
{
    // Totals-only phase (no Chrome event): planTransfer runs nested
    // inside ModuloSchedule thousands of times per compile.
    GPSCHED_PHASE_SPAN(TransferPlanning);
    const ValueState &vs = values_[producer];
    const int home = producer == plan.node ? plan.cluster
                                           : placed_[producer].cluster;
    GPSCHED_ASSERT(home != dest_cluster,
                   "transfer within a single cluster");
    const LatencyTable &lat = machine_.latencies();
    const int num_bus_classes = machine_.numBusClasses();
    const int lat_st = lat.latency(Opcode::CommSt);
    const int occ_st = lat.occupancy(Opcode::CommSt);
    const int lat_ld = lat.latency(Opcode::CommLd);
    const int occ_ld = lat.occupancy(Opcode::CommLd);

    // Collect the slots other parts of this plan already claim, and
    // the slots freed when an existing transfer is being replaced.
    // The collections are persistent scratch: planTransfer runs
    // thousands of times per compile and the steady state must not
    // allocate.
    std::vector<std::vector<std::pair<int, int>>> &claimed_bus =
        claimedBusScratch_;
    for (auto &per_class : claimed_bus)
        per_class.clear();
    std::vector<std::pair<int, int>> &claimed_home_mem =
        claimedHomeMemScratch_;
    std::vector<std::pair<int, int>> &claimed_dest_mem =
        claimedDestMemScratch_;
    claimed_home_mem.clear();
    claimed_dest_mem.clear();
    if (plan.node != invalidNode &&
        fuClassOf(ddg_.node(plan.node).opcode) == FuClass::Mem) {
        int op_occ = lat.occupancy(ddg_.node(plan.node).opcode);
        if (plan.cluster == home)
            claimed_home_mem.push_back({plan.cycle, op_occ});
        if (plan.cluster == dest_cluster)
            claimed_dest_mem.push_back({plan.cycle, op_occ});
    }
    for (const auto &tp : plan.transfers) {
        const Transfer &t = tp.transfer;
        int t_home = t.producer == plan.node
                         ? plan.cluster
                         : placed_[t.producer].cluster;
        if (t.viaBus) {
            claimed_bus[t.busClass].push_back(
                {t.busCycle, machine_.busLatencyOf(t.busClass)});
            continue;
        }
        if (t_home == home)
            claimed_home_mem.push_back({t.stCycle, occ_st});
        if (t_home == dest_cluster)
            claimed_dest_mem.push_back({t.stCycle, occ_st});
        if (t.destCluster == home)
            claimed_home_mem.push_back({t.ldCycle, occ_ld});
        if (t.destCluster == dest_cluster)
            claimed_dest_mem.push_back({t.ldCycle, occ_ld});
    }
    int ign_bus_class = -1, ign_bus_cycle = INT_MIN, ign_bus_occ = 0;
    int ign_home_cycle = INT_MIN, ign_home_occ = 0;
    int ign_dest_cycle = INT_MIN, ign_dest_occ = 0;
    auto old_it = vs.transfers.find(dest_cluster);
    if (old_it != vs.transfers.end()) {
        const Transfer &old = old_it->second;
        if (old.viaBus) {
            ign_bus_class = old.busClass;
            ign_bus_cycle = old.busCycle;
            ign_bus_occ = machine_.busLatencyOf(old.busClass);
        } else {
            ign_home_cycle = old.stCycle;
            ign_home_occ = occ_st;
            ign_dest_cycle = old.ldCycle;
            ign_dest_occ = occ_ld;
        }
    }

    // Bus first, classes probed in cost-model order (within a class
    // the earliest read slot keeps the home lifetime shortest).
    // Under SlackAware, classes the ready->use window absorbs with
    // kSlackMargin cycles to spare are probed first — slowest of them
    // first, parking slack-rich transfers on slow buses so the fast
    // classes stay free for tight (critical-recurrence) windows.
    // The remaining classes — the complete set under FastestFirst,
    // for tight windows, or with a single class — are probed
    // fastest-first (ascending latency), the legacy greedy rule.
    auto probe_class = [&](int bc) {
        const int lat_bus = machine_.busLatencyOf(bc);
        // A spill split restricts home reads to at most two ranges (a
        // producer this plan places is unscheduled, so never spilled).
        const ReadRanges ranges =
            homeReadRanges(vs, ready, use - lat_bus);
        for (int i = 0; i < ranges.n; ++i) {
            const auto [lo, hi] = ranges.r[i];
            int b = findSlot(busMrts_[bc], lo, hi, lat_bus,
                             claimed_bus[bc],
                             bc == ign_bus_class ? ign_bus_cycle
                                                 : INT_MIN,
                             bc == ign_bus_class ? ign_bus_occ : 0);
            if (b == INT_MIN)
                continue;
            out.transfer = Transfer{producer, dest_cluster, true,
                                    bc, b, 0, 0, b, b + lat_bus};
            return true;
        }
        return false;
    };
    auto steered_slow = [&](int bc) {
        return transferCost_ == TransferCostPolicy::SlackAware &&
               num_bus_classes > 1 &&
               machine_.busLatencyOf(bc) + kSlackMargin <=
                   use - ready;
    };
    for (int bc = num_bus_classes - 1; bc >= 0; --bc) {
        if (steered_slow(bc) && probe_class(bc))
            return true;
    }
    for (int bc = 0; bc < num_bus_classes; ++bc) {
        if (!steered_slow(bc) && probe_class(bc))
            return true;
    }

    // Communication through memory: earliest store, latest load.
    // Only the earliest feasible store is worth a load probe. The
    // load window [st + lat_st, use - lat_ld] only shrinks as st
    // grows (the ranges ascend), and the destination's claims do not
    // depend on st, so when no load fits after the earliest store,
    // none fits after a later one.
    const ModuloReservationTable &home_mem = fu(home, FuClass::Mem);
    const ModuloReservationTable &dest_mem =
        fu(dest_cluster, FuClass::Mem);
    const ReadRanges mem_ranges =
        homeReadRanges(vs, ready, use - lat_ld - lat_st);
    for (int i = 0; i < mem_ranges.n; ++i) {
        const auto [lo, hi] = mem_ranges.r[i];
        const int st = findSlot(home_mem, lo, hi, occ_st,
                                claimed_home_mem, ign_home_cycle,
                                ign_home_occ);
        if (st == INT_MIN)
            continue;
        const int ld = findSlot(dest_mem, use - lat_ld, st + lat_st,
                                occ_ld, claimed_dest_mem,
                                ign_dest_cycle, ign_dest_occ);
        if (ld == INT_MIN)
            return false;
        out.transfer = Transfer{producer, dest_cluster, false, 0, 0,
                                st, ld, st, ld + lat_ld};
        return true;
    }
    return false;
}

bool
PartialSchedule::planPlacement(NodeId v, int cluster, int cycle,
                               PlacementPlan &plan) const
{
    GPSCHED_ASSERT(!isScheduled(v), "node ", v, " already scheduled");
    GPSCHED_ASSERT(cluster >= 0 && cluster < machine_.numClusters(),
                   "cluster out of range");
    const int num_clusters = machine_.numClusters();

    plan.feasible = false;
    plan.node = v;
    plan.cluster = cluster;
    plan.cycle = cycle;
    plan.transfers.clear();
    plan.eventAdds.clear();
    plan.eventMoves.clear();
    plan.pairChanges.clear();
    plan.busSlotsDelta = 0;

    const Opcode op = ddg_.node(v).opcode;
    const LatencyTable &lat = machine_.latencies();

    // --- 1. necessary precedence bounds ------------------------------
    for (EdgeId eid : ddg_.inEdges(v)) {
        const DdgEdge &e = ddg_.edge(eid);
        if (e.src == v) {
            // Self edge: start(v) >= start(v) + lat - II*dist.
            if (effLat(eid) > 0)
                return false;
            continue;
        }
        if (!isScheduled(e.src))
            continue;
        if (cycle < placed_[e.src].cycle + effLat(eid))
            return false;
    }
    for (EdgeId eid : ddg_.outEdges(v)) {
        const DdgEdge &e = ddg_.edge(eid);
        if (e.dst == v || !isScheduled(e.dst))
            continue;
        if (cycle > placed_[e.dst].cycle - effLat(eid))
            return false;
    }

    // --- 2. functional unit ------------------------------------------
    const FuClass cls = fuClassOf(op);
    const int occ = lat.occupancy(op);
    if (!fu(cluster, cls).canReserve(cycle, occ))
        return false;

    plan.memSlotsDelta.assign(num_clusters, 0);
    plan.overheadMemDelta.assign(num_clusters, 0);
    plan.regCyclesDelta.assign(num_clusters, 0);

    // Every plan vector is bounded by the node degree; once the plan
    // is warm these reservations are no-ops.
    const std::size_t n_in = ddg_.inEdges(v).size();
    const std::size_t n_out = ddg_.outEdges(v).size();
    plan.eventAdds.reserve(n_in + n_out + 1);
    plan.eventMoves.reserve(n_in);
    plan.transfers.reserve(n_in + n_out);

    if (cls == FuClass::Mem)
        plan.memSlotsDelta[cluster] += occ;

    const int occ_st = lat.occupancy(Opcode::CommSt);
    const int occ_ld = lat.occupancy(Opcode::CommLd);
    auto add_transfer_deltas = [&](const TransferPlan &tp, int home) {
        if (tp.transfer.viaBus) {
            plan.busSlotsDelta +=
                machine_.busLatencyOf(tp.transfer.busClass);
        } else {
            plan.memSlotsDelta[home] += occ_st;
            plan.memSlotsDelta[tp.transfer.destCluster] += occ_ld;
            plan.overheadMemDelta[home] += occ_st;
            plan.overheadMemDelta[tp.transfer.destCluster] += occ_ld;
        }
        if (!tp.replaces)
            return;
        const Transfer &old =
            values_[tp.transfer.producer].transfers.at(
                tp.transfer.destCluster);
        if (old.viaBus) {
            plan.busSlotsDelta -= machine_.busLatencyOf(old.busClass);
        } else {
            plan.memSlotsDelta[home] -= occ_st;
            plan.memSlotsDelta[tp.transfer.destCluster] -= occ_ld;
            plan.overheadMemDelta[home] -= occ_st;
            plan.overheadMemDelta[tp.transfer.destCluster] -= occ_ld;
        }
    };

    // --- 3. incoming values -------------------------------------------
    // Cross-cluster edges keyed by producer, grouped in
    // ascending node order. inEdges lists ascending edge ids, so
    // sorting the pairs keeps the edge order within a producer.
    std::vector<KeyedEdge> &cross_in = crossInScratch_;
    std::vector<int> &own_events = ownEventsScratch_; // reads of v
    cross_in.clear();
    own_events.clear();
    for (EdgeId eid : ddg_.inEdges(v)) {
        const DdgEdge &e = ddg_.edge(eid);
        if (!e.isFlow())
            continue;
        if (e.src == v) {
            // Loop-carried self dependence: v reads its own value.
            own_events.push_back(cycle + ii_ * e.distance);
            continue;
        }
        if (!isScheduled(e.src))
            continue;
        int use = cycle + ii_ * e.distance;
        if (placed_[e.src].cluster == cluster) {
            if (!homeReadTimeValid(values_[e.src], use))
                return false;
            plan.eventAdds.push_back({e.src, cluster, use});
        } else {
            cross_in.push_back({e.src, eid});
        }
    }
    std::sort(cross_in.begin(), cross_in.end());
    for (std::size_t gi = 0; gi < cross_in.size();) {
        const NodeId p = cross_in[gi].key;
        std::size_t ge = gi;
        while (ge < cross_in.size() && cross_in[ge].key == p)
            ++ge;
        int use_min = INT_MAX;
        for (std::size_t k = gi; k < ge; ++k)
            use_min = std::min(
                use_min,
                cycle + ii_ * ddg_.edge(cross_in[k].edge).distance);
        const ValueState &vs = values_[p];
        auto t_it = vs.transfers.find(cluster);
        bool reuse = t_it != vs.transfers.end() &&
                     t_it->second.arrivalCycle <= use_min;
        if (!reuse) {
            TransferPlan tp;
            if (!planTransfer(p, cluster, writeCycleOf(p), use_min,
                              plan, tp)) {
                return false;
            }
            tp.replaces = t_it != vs.transfers.end();
            int home = placed_[p].cluster;
            if (tp.replaces) {
                plan.eventMoves.push_back({p, home,
                                           t_it->second.readCycle,
                                           tp.transfer.readCycle});
            } else {
                plan.eventAdds.push_back(
                    {p, home, tp.transfer.readCycle});
            }
            add_transfer_deltas(tp, home);
            plan.transfers.push_back(tp);
        }
        for (std::size_t k = gi; k < ge; ++k) {
            plan.eventAdds.push_back(
                {p, cluster,
                 cycle + ii_ * ddg_.edge(cross_in[k].edge).distance});
        }
        gi = ge;
    }

    // --- 4. outgoing values to already-scheduled consumers -------------
    // Edges keyed by destination cluster, grouped like cross_in above.
    std::vector<KeyedEdge> &cross_out = crossOutScratch_;
    cross_out.clear();
    auto use_of = [&](EdgeId eid) {
        const DdgEdge &e = ddg_.edge(eid);
        return placed_[e.dst].cycle + ii_ * e.distance;
    };
    for (EdgeId eid : ddg_.outEdges(v)) {
        const DdgEdge &e = ddg_.edge(eid);
        if (!e.isFlow() || e.dst == v || !isScheduled(e.dst))
            continue;
        if (placed_[e.dst].cluster == cluster)
            own_events.push_back(use_of(eid));
        else
            cross_out.push_back({placed_[e.dst].cluster, eid});
    }
    std::sort(cross_out.begin(), cross_out.end());
    for (std::size_t gi = 0; gi < cross_out.size();) {
        const int dest = cross_out[gi].key;
        std::size_t ge = gi;
        int use_min = INT_MAX;
        while (ge < cross_out.size() && cross_out[ge].key == dest) {
            use_min = std::min(use_min, use_of(cross_out[ge].edge));
            ++ge;
        }
        TransferPlan tp;
        if (!planTransfer(v, dest, cycle + latencyOf(v), use_min, plan,
                          tp)) {
            return false;
        }
        add_transfer_deltas(tp, cluster);
        plan.transfers.push_back(tp);
        own_events.push_back(tp.transfer.readCycle);
        for (std::size_t k = gi; k < ge; ++k)
            plan.eventAdds.push_back(
                {v, dest, use_of(cross_out[k].edge)});
        gi = ge;
    }
    if (definesValue(op)) {
        for (int t : own_events)
            plan.eventAdds.push_back({v, cluster, t});
    } else {
        GPSCHED_ASSERT(own_events.empty() && cross_out.empty(),
                       "flow edge out of a non-defining op");
    }

    // --- 5. lifetime changes -------------------------------------------
    // Flat (value, cluster) -> delta table: the handful of touched
    // pairs per plan makes a linear probe plus one final sort cheaper
    // than a std::map, with the same sorted-key iteration.
    std::vector<PairDelta> &touched = touchedScratch_;
    touched.clear();
    auto touch = [&](NodeId val, int cl) -> PairDelta & {
        for (PairDelta &delta : touched) {
            if (delta.value == val && delta.cluster == cl)
                return delta;
        }
        PairDelta delta;
        delta.value = val;
        delta.cluster = cl;
        touched.push_back(delta);
        return touched.back();
    };
    for (const auto &ea : plan.eventAdds) {
        PairDelta &delta = touch(ea.value, ea.cluster);
        delta.lastAdd =
            delta.hasAdds ? std::max(delta.lastAdd, ea.time) : ea.time;
        delta.hasAdds = true;
    }
    // A producer's group in step 3 moves its one home read at most
    // once, so a pair carries at most one move.
    for (const auto &em : plan.eventMoves) {
        PairDelta &delta = touch(em.value, em.cluster);
        GPSCHED_ASSERT(!delta.hasMove, "two moves of one pair");
        delta.hasMove = true;
        delta.moveFrom = em.oldTime;
        delta.moveTo = em.newTime;
    }
    for (std::size_t i = 0; i < plan.transfers.size(); ++i) {
        const Transfer &t = plan.transfers[i].transfer;
        touch(t.producer, t.destCluster).newTransfer =
            static_cast<int>(i);
    }
    if (definesValue(op))
        touch(v, cluster); // the definition itself occupies a reg
    std::sort(touched.begin(), touched.end(),
              [](const PairDelta &a, const PairDelta &b) {
                  return std::make_pair(a.value, a.cluster) <
                         std::make_pair(b.value, b.cluster);
              });

    plan.pairChanges.reserve(touched.size());
    for (const PairDelta &delta : touched) {
        const NodeId val = delta.value;
        const int cl = delta.cluster;
        PairChange pc;
        pc.value = val;
        pc.cluster = cl;
        const ValueState &vs = values_[val];
        const ValueInCluster &state = inCluster(val, cl);
        pc.before = state.registered;

        // segmentsFromState only needs the presence and maximum of
        // the read events.
        bool has_events = !state.events.empty();
        int last_event = has_events ? state.events.back() : INT_MIN;
        if (delta.hasMove) {
            has_events = true;
            last_event =
                state.events.lastAfterMove(delta.moveFrom, delta.moveTo);
        }
        if (delta.hasAdds) {
            has_events = true;
            last_event = std::max(last_event, delta.lastAdd);
        }

        bool home = val == v ? cl == cluster
                             : placed_[val].cluster == cl;
        int write = val == v ? cycle + latencyOf(v) : writeCycleOf(val);
        int arrival = 0;
        if (!home) {
            if (delta.newTransfer >= 0)
                arrival = plan.transfers[delta.newTransfer]
                              .transfer.arrivalCycle;
            else
                arrival = vs.transfers.at(cl).arrivalCycle;
        }
        bool spilled = val != v && vs.spilled;
        pc.after = segmentsFromState(write, has_events, last_event,
                                     home, arrival, spilled,
                                     vs.spillSt, vs.spillLd);
        plan.regCyclesDelta[cl] +=
            pc.after.totalLength() - pc.before.totalLength();
        plan.pairChanges.push_back(pc);
    }

    // --- 6. register feasibility per cluster ---------------------------
    std::vector<LiveSegment> &removed = removedScratch_;
    std::vector<LiveSegment> &added = addedScratch_;
    for (int c = 0; c < num_clusters; ++c) {
        removed.clear();
        added.clear();
        for (const auto &pc : plan.pairChanges) {
            if (pc.cluster != c)
                continue;
            for (const LiveSegment &seg : pc.before)
                removed.push_back(seg);
            for (const LiveSegment &seg : pc.after)
                added.push_back(seg);
        }
        if (removed.empty() && added.empty())
            continue;
        if (!regs_[c].fitsWithDiff(removed, added))
            return false;
    }

    plan.feasible = true;
    return true;
}

bool
PartialSchedule::planInWindow(NodeId v, int cluster, int from, int to,
                              PlacementPlan &plan) const
{
    const ModuloReservationTable &unit =
        fu(cluster, fuClassOf(ddg_.node(v).opcode));
    const int occ = occupancyOf(v);
    const int step = from <= to ? 1 : -1;
    for (int cycle = from;;) {
        // A cycle whose FU pool cannot host v is infeasible no
        // matter what, so jump straight to the next free slot
        // (word-accelerated) instead of probing every cycle.
        cycle = unit.firstFit(cycle, to, occ);
        if (cycle == INT_MIN)
            break;
        if (planPlacement(v, cluster, cycle, plan))
            return true;
        if (cycle == to)
            break;
        cycle += step;
    }
    plan.feasible = false;
    plan.node = v;
    plan.cluster = cluster;
    plan.cycle = 0;
    return false;
}

void
PartialSchedule::reserveTransfer(const Transfer &transfer)
{
    const LatencyTable &lat = machine_.latencies();
    if (transfer.viaBus) {
        busMrts_[transfer.busClass].reserve(
            transfer.busCycle,
            machine_.busLatencyOf(transfer.busClass));
        ++numBusTransfers_;
        return;
    }
    int home = placed_[transfer.producer].cluster;
    int occ_st = lat.occupancy(Opcode::CommSt);
    int occ_ld = lat.occupancy(Opcode::CommLd);
    fu(home, FuClass::Mem).reserve(transfer.stCycle, occ_st);
    fu(transfer.destCluster, FuClass::Mem)
        .reserve(transfer.ldCycle, occ_ld);
    overheadMemOps_[home] += occ_st;
    overheadMemOps_[transfer.destCluster] += occ_ld;
    overheadMemTotal_ += occ_st + occ_ld;
    ++numMemTransfers_;
}

void
PartialSchedule::releaseTransfer(const Transfer &transfer)
{
    const LatencyTable &lat = machine_.latencies();
    if (transfer.viaBus) {
        busMrts_[transfer.busClass].release(
            transfer.busCycle,
            machine_.busLatencyOf(transfer.busClass));
        --numBusTransfers_;
        return;
    }
    int home = placed_[transfer.producer].cluster;
    int occ_st = lat.occupancy(Opcode::CommSt);
    int occ_ld = lat.occupancy(Opcode::CommLd);
    fu(home, FuClass::Mem).release(transfer.stCycle, occ_st);
    fu(transfer.destCluster, FuClass::Mem)
        .release(transfer.ldCycle, occ_ld);
    overheadMemOps_[home] -= occ_st;
    overheadMemOps_[transfer.destCluster] -= occ_ld;
    overheadMemTotal_ -= occ_st + occ_ld;
    --numMemTransfers_;
}

void
PartialSchedule::apply(const PlacementPlan &plan)
{
    GPSCHED_ASSERT(plan.feasible, "apply of infeasible plan");
    GPSCHED_ASSERT(!isScheduled(plan.node), "double apply");

    const Opcode op = ddg_.node(plan.node).opcode;
    fu(plan.cluster, fuClassOf(op))
        .reserve(plan.cycle, occupancyOf(plan.node));
    placed_[plan.node] = {true, plan.cluster, plan.cycle};
    ++numScheduled_;

    for (const auto &em : plan.eventMoves) {
        ReadEvents &events = inCluster(em.value, em.cluster).events;
        events.erase(em.oldTime);
        events.insert(em.newTime);
    }
    for (const auto &ea : plan.eventAdds)
        inCluster(ea.value, ea.cluster).events.insert(ea.time);

    for (const auto &tp : plan.transfers) {
        ValueState &vs = values_[tp.transfer.producer];
        if (tp.replaces) {
            releaseTransfer(vs.transfers.at(tp.transfer.destCluster));
        }
        vs.transfers[tp.transfer.destCluster] = tp.transfer;
        reserveTransfer(tp.transfer);
    }

    for (const auto &pc : plan.pairChanges)
        setRegistered(pc.value, pc.cluster, pc.after);
}

FigureOfMerit
PartialSchedule::insertionFom(const PlacementPlan &plan) const
{
    const int num_clusters = machine_.numClusters();
    FigureOfMerit fom;
    fom.addComponent(
        consumedPct(plan.busSlotsDelta, busFreeSlots()));
    for (int c = 0; c < num_clusters; ++c)
        fom.addComponent(
            consumedPct(plan.memSlotsDelta[c], memFreeSlots(c)));
    for (int c = 0; c < num_clusters; ++c) {
        int free = regs_[c].capacity() - regs_[c].usedRegCycles();
        fom.addComponent(consumedPct(plan.regCyclesDelta[c], free));
    }
    if (plannedMemOps_.empty()) {
        int budget = 0;
        for (int c = 0; c < num_clusters; ++c)
            budget += fu(c, FuClass::Mem).totalSlots();
        budget -= origMemOpsTotal_;
        int delta = 0;
        for (int c = 0; c < num_clusters; ++c)
            delta += plan.overheadMemDelta[c];
        fom.addComponent(
            consumedPct(delta, budget - overheadMemTotal_));
    } else {
        for (int c = 0; c < num_clusters; ++c) {
            int budget = fu(c, FuClass::Mem).totalSlots() -
                         plannedMemOps_[c];
            fom.addComponent(consumedPct(plan.overheadMemDelta[c],
                                         budget - overheadMemOps_[c]));
        }
    }
    return fom;
}

FigureOfMerit
PartialSchedule::globalFom() const
{
    const int num_clusters = machine_.numClusters();
    FigureOfMerit fom;
    fom.addComponent(usedPct(busUsedSlots(), busTotalSlots()));
    for (int c = 0; c < num_clusters; ++c) {
        const auto &mem = fu(c, FuClass::Mem);
        fom.addComponent(usedPct(mem.usedSlots(), mem.totalSlots()));
    }
    for (int c = 0; c < num_clusters; ++c)
        fom.addComponent(
            usedPct(regs_[c].maxLive(), regs_[c].numRegs()));
    if (plannedMemOps_.empty()) {
        int budget = 0;
        for (int c = 0; c < num_clusters; ++c)
            budget += fu(c, FuClass::Mem).totalSlots();
        budget -= origMemOpsTotal_;
        fom.addComponent(usedPct(overheadMemTotal_, budget));
    } else {
        for (int c = 0; c < num_clusters; ++c) {
            int budget = fu(c, FuClass::Mem).totalSlots() -
                         plannedMemOps_[c];
            fom.addComponent(usedPct(overheadMemOps_[c], budget));
        }
    }
    return fom;
}

void
PartialSchedule::accumulateExtent(int issue, int finish, int &lo,
                                  int &hi) const
{
    lo = std::min(lo, issue);
    hi = std::max(hi, finish);
}

int
PartialSchedule::scheduleLength() const
{
    const LatencyTable &lat = machine_.latencies();
    int lo = INT_MAX, hi = INT_MIN;
    for (NodeId v = 0; v < ddg_.numNodes(); ++v) {
        if (!placed_[v].scheduled)
            continue;
        accumulateExtent(placed_[v].cycle,
                         placed_[v].cycle + latencyOf(v), lo, hi);
        const ValueState &vs = values_[v];
        for (const auto &[dest, t] : vs.transfers) {
            if (t.viaBus) {
                accumulateExtent(t.busCycle, t.arrivalCycle, lo, hi);
            } else {
                accumulateExtent(t.stCycle,
                                 t.stCycle +
                                     lat.latency(Opcode::CommSt),
                                 lo, hi);
                accumulateExtent(t.ldCycle, t.arrivalCycle, lo, hi);
            }
        }
        if (vs.spilled) {
            accumulateExtent(vs.spillSt,
                             vs.spillSt + lat.latency(Opcode::SpillSt),
                             lo, hi);
            accumulateExtent(vs.spillLd,
                             vs.spillLd + lat.latency(Opcode::SpillLd),
                             lo, hi);
        }
    }
    return hi == INT_MIN ? 0 : hi - lo;
}

const std::map<int, Transfer> &
PartialSchedule::transfersOf(NodeId producer) const
{
    return values_[producer].transfers;
}

SpillInfo
PartialSchedule::spillOf(NodeId producer) const
{
    const ValueState &vs = values_[producer];
    return {vs.spilled, vs.spillSt, vs.spillLd};
}

int
PartialSchedule::maxLive(int cluster) const
{
    return regs_[cluster].maxLive();
}

ScheduleStats
PartialSchedule::stats() const
{
    ScheduleStats stats;
    stats.busTransfers = numBusTransfers_;
    stats.memTransfers = numMemTransfers_;
    stats.spills = numSpills_;
    stats.overheadMemOps = 2 * numMemTransfers_ + 2 * numSpills_;
    return stats;
}

} // namespace gpsched
