#include "sched/transforms.hh"

#include <algorithm>
#include <climits>

#include "support/logging.hh"

namespace gpsched
{

bool
TransformEngine::trySpill(PartialSchedule &ps, int cluster)
{
    const LatencyTable &lat = ps.machine_.latencies();
    const int lat_st = lat.latency(Opcode::SpillSt);
    const int occ_st = lat.occupancy(Opcode::SpillSt);
    const int lat_ld = lat.latency(Opcode::SpillLd);
    const int occ_ld = lat.occupancy(Opcode::SpillLd);
    ModuloReservationTable &mem = ps.fu(cluster, FuClass::Mem);

    struct Candidate
    {
        NodeId p = invalidNode;
        int st = 0;
        int ld = 0;
        int saving = 0;
    };
    Candidate best;
    for (NodeId p = 0; p < ps.ddg_.numNodes(); ++p) {
        const auto &pl = ps.placed_[p];
        if (!pl.scheduled || pl.cluster != cluster)
            continue;
        if (!definesValue(ps.ddg_.node(p).opcode))
            continue;
        const auto &vs = ps.values_[p];
        if (vs.spilled)
            continue;
        const ReadEvents &events = ps.inCluster(p, cluster).events;
        if (events.empty())
            continue;
        // Gaps between consecutive points: the write, then the reads.
        int g0 = ps.writeCycleOf(p);
        for (int g1 : events) {
            const int gap_start = g0;
            g0 = g1;
            if (g1 - gap_start <= lat_st + lat_ld)
                continue;
            int st = mem.firstFit(gap_start, g1 - lat_ld - lat_st,
                                  occ_st);
            if (st == INT_MIN)
                continue;
            // The load is placed with the store's slot claimed.
            mem.reserve(st, occ_st);
            int ld = mem.firstFit(g1 - lat_ld, st + lat_st, occ_ld);
            mem.release(st, occ_st);
            if (ld == INT_MIN)
                continue;
            int saving = ld + lat_ld - st - 1;
            if (saving > best.saving)
                best = {p, st, ld, saving};
        }
    }
    if (best.p == invalidNode)
        return false;

    FigureOfMerit before = ps.globalFom();
    auto &vs = ps.values_[best.p];
    const SegmentList old_segs =
        ps.inCluster(best.p, cluster).registered;
    const int old_st = vs.spillSt, old_ld = vs.spillLd;

    vs.spilled = true;
    vs.spillSt = best.st;
    vs.spillLd = best.ld;
    mem.reserve(best.st, occ_st);
    mem.reserve(best.ld, occ_ld);
    ps.overheadMemOps_[cluster] += occ_st + occ_ld;
    ps.overheadMemTotal_ += occ_st + occ_ld;
    ++ps.numSpills_;
    ps.setRegistered(best.p, cluster,
                     ps.currentSegments(best.p, cluster));

    if (FigureOfMerit::better(ps.globalFom(), before, 0.0))
        return true;

    ps.setRegistered(best.p, cluster, old_segs);
    mem.release(best.st, occ_st);
    mem.release(best.ld, occ_ld);
    ps.overheadMemOps_[cluster] -= occ_st + occ_ld;
    ps.overheadMemTotal_ -= occ_st + occ_ld;
    --ps.numSpills_;
    vs.spilled = false;
    vs.spillSt = old_st;
    vs.spillLd = old_ld;
    return false;
}

bool
TransformEngine::tryUnspill(PartialSchedule &ps, int cluster)
{
    const LatencyTable &lat = ps.machine_.latencies();
    const int occ_st = lat.occupancy(Opcode::SpillSt);
    const int occ_ld = lat.occupancy(Opcode::SpillLd);
    ModuloReservationTable &mem = ps.fu(cluster, FuClass::Mem);

    for (NodeId p = 0; p < ps.ddg_.numNodes(); ++p) {
        const auto &pl = ps.placed_[p];
        if (!pl.scheduled || pl.cluster != cluster)
            continue;
        auto &vs = ps.values_[p];
        if (!vs.spilled)
            continue;
        const PartialSchedule::ValueInCluster &state =
            ps.inCluster(p, cluster);
        const SegmentList merged = ps.segmentsFromState(
            ps.writeCycleOf(p), state.events, true, 0, false, 0, 0);
        const SegmentList old_segs = state.registered;
        if (!ps.regs_[cluster].fitsWithDiff(old_segs, merged))
            continue;

        FigureOfMerit before = ps.globalFom();
        int st = vs.spillSt, ld = vs.spillLd;
        mem.release(st, occ_st);
        mem.release(ld, occ_ld);
        ps.overheadMemOps_[cluster] -= occ_st + occ_ld;
        ps.overheadMemTotal_ -= occ_st + occ_ld;
        --ps.numSpills_;
        vs.spilled = false;
        ps.setRegistered(p, cluster, merged);

        if (FigureOfMerit::better(ps.globalFom(), before, 0.0))
            return true;

        ps.setRegistered(p, cluster, old_segs);
        vs.spilled = true;
        vs.spillSt = st;
        vs.spillLd = ld;
        mem.reserve(st, occ_st);
        mem.reserve(ld, occ_ld);
        ps.overheadMemOps_[cluster] += occ_st + occ_ld;
        ps.overheadMemTotal_ += occ_st + occ_ld;
        ++ps.numSpills_;
    }
    return false;
}

bool
TransformEngine::replaceTransfer(PartialSchedule &ps, NodeId p,
                                 Transfer &t, const Transfer &repl)
{
    const auto &vs = ps.values_[p];
    const int home = ps.placed_[p].cluster;
    const int dest = t.destCluster;
    GPSCHED_ASSERT(home != dest, "transfer with home == dest");
    ReadEvents &home_events = ps.inCluster(p, home).events;
    const int write = ps.writeCycleOf(p);

    // Register feasibility with the moved read and arrival.
    const SegmentList home_after = ps.segmentsFromState(
        write, true, home_events.lastAfterMove(t.readCycle, repl.readCycle),
        true, 0, vs.spilled, vs.spillSt, vs.spillLd);
    const SegmentList dest_after =
        ps.segmentsFromState(write, ps.inCluster(p, dest).events, false,
                             repl.arrivalCycle, false, 0, 0);
    const SegmentList home_before = ps.inCluster(p, home).registered;
    const SegmentList dest_before = ps.inCluster(p, dest).registered;
    if (!ps.regs_[home].fitsWithDiff(home_before, home_after))
        return false;
    if (!ps.regs_[dest].fitsWithDiff(dest_before, dest_after))
        return false;

    FigureOfMerit before = ps.globalFom();
    const Transfer old = t;
    ps.releaseTransfer(old);
    t = repl;
    ps.reserveTransfer(repl);
    home_events.erase(old.readCycle);
    home_events.insert(repl.readCycle);
    ps.setRegistered(p, home, home_after);
    ps.setRegistered(p, dest, dest_after);

    if (FigureOfMerit::better(ps.globalFom(), before, 0.0))
        return true;

    ps.setRegistered(p, home, home_before);
    ps.setRegistered(p, dest, dest_before);
    home_events.erase(repl.readCycle);
    home_events.insert(old.readCycle);
    ps.releaseTransfer(repl);
    t = old;
    ps.reserveTransfer(old);
    return false;
}

bool
TransformEngine::tryBusToMem(PartialSchedule &ps)
{
    const LatencyTable &lat = ps.machine_.latencies();
    const int lat_st = lat.latency(Opcode::CommSt);
    const int occ_st = lat.occupancy(Opcode::CommSt);
    const int lat_ld = lat.latency(Opcode::CommLd);
    const int occ_ld = lat.occupancy(Opcode::CommLd);

    for (NodeId p = 0; p < ps.ddg_.numNodes(); ++p) {
        if (!ps.placed_[p].scheduled)
            continue;
        const auto &vs = ps.values_[p];
        const int home = ps.placed_[p].cluster;
        for (auto &[dest, t] : ps.values_[p].transfers) {
            if (!t.viaBus)
                continue;
            const ReadEvents &dest_events = ps.inCluster(p, dest).events;
            if (dest_events.empty())
                continue;
            const int min_use = dest_events.front();

            // Earliest store, then the latest load before the use.
            const ModuloReservationTable &home_mem =
                ps.fu(home, FuClass::Mem);
            const ModuloReservationTable &dest_mem =
                ps.fu(dest, FuClass::Mem);
            const PartialSchedule::ReadRanges ranges =
                ps.homeReadRanges(vs, ps.writeCycleOf(p),
                                  min_use - lat_ld - lat_st);
            int st = INT_MIN, ld = INT_MIN;
            for (int i = 0; i < ranges.n && st == INT_MIN; ++i) {
                const auto [lo, hi] = ranges.r[i];
                int cand_st = lo;
                while (cand_st <= hi) {
                    cand_st = home_mem.firstFit(cand_st, hi, occ_st);
                    if (cand_st == INT_MIN)
                        break;
                    int cand_ld = dest_mem.firstFit(
                        min_use - lat_ld, cand_st + lat_st, occ_ld);
                    if (cand_ld != INT_MIN) {
                        st = cand_st;
                        ld = cand_ld;
                        break;
                    }
                    ++cand_st;
                }
            }
            if (st == INT_MIN)
                continue;
            if (replaceTransfer(ps, p, t,
                                Transfer{p, dest, false, 0, 0, st, ld,
                                         st, ld + lat_ld}))
                return true;
        }
    }
    return false;
}

bool
TransformEngine::tryMemToBus(PartialSchedule &ps)
{
    if (ps.machine_.numBuses() == 0)
        return false;

    for (NodeId p = 0; p < ps.ddg_.numNodes(); ++p) {
        if (!ps.placed_[p].scheduled)
            continue;
        const auto &vs = ps.values_[p];
        for (auto &[dest, t] : ps.values_[p].transfers) {
            if (t.viaBus)
                continue;
            const ReadEvents &dest_events = ps.inCluster(p, dest).events;
            if (dest_events.empty())
                continue;
            const int min_use = dest_events.front();

            // Fastest class first (classes sort by ascending latency).
            int bus_class = -1;
            int bus_cycle = INT_MIN;
            for (int bc = 0; bc < ps.machine_.numBusClasses() &&
                             bus_cycle == INT_MIN;
                 ++bc) {
                const int cls_lat = ps.machine_.busLatencyOf(bc);
                const PartialSchedule::ReadRanges ranges =
                    ps.homeReadRanges(vs, ps.writeCycleOf(p),
                                      min_use - cls_lat);
                for (int i = 0; i < ranges.n; ++i) {
                    const auto [lo, hi] = ranges.r[i];
                    bus_cycle = ps.busMrts_[bc].firstFit(lo, hi, cls_lat);
                    if (bus_cycle != INT_MIN) {
                        bus_class = bc;
                        break;
                    }
                }
            }
            if (bus_cycle == INT_MIN)
                continue;
            const int lat_bus = ps.machine_.busLatencyOf(bus_class);
            if (replaceTransfer(ps, p, t,
                                Transfer{p, dest, true, bus_class,
                                         bus_cycle, 0, 0, bus_cycle,
                                         bus_cycle + lat_bus}))
                return true;
        }
    }
    return false;
}

int
TransformEngine::run(PartialSchedule &ps)
{
    using Action = PartialSchedule::TransformAction;
    const int num_clusters = ps.machine_.numClusters();
    std::vector<Action> &actions = ps.actionScratch_;
    int applied = 0;
    for (int round = 0; round < 32; ++round) {
        // Rank candidate transformations by the utilization of the
        // resource they relieve, most saturated first.
        actions.clear();
        auto add = [&](double saturation, int kind, int cluster) {
            actions.push_back({saturation, kind, cluster});
        };
        for (int c = 0; c < num_clusters; ++c) {
            double reg_sat = ps.regs_[c].numRegs() > 0
                                 ? 100.0 * ps.regs_[c].maxLive() /
                                       ps.regs_[c].numRegs()
                                 : 0.0;
            add(reg_sat, 0, c);
        }
        if (ps.busTotalSlots() > 0) {
            double bus_sat = 100.0 * ps.busUsedSlots() /
                             ps.busTotalSlots();
            add(bus_sat, 1, 0);
        }
        for (int c = 0; c < num_clusters; ++c) {
            const auto &mem = ps.fu(c, FuClass::Mem);
            double mem_sat =
                100.0 * mem.usedSlots() / mem.totalSlots();
            add(mem_sat, 2, c);
            add(mem_sat, 3, c);
        }
        // A cluster without memory units ranks its memory actions by
        // a NaN saturation, which compares false both ways, so where
        // they land is the library stable_sort's doing: any other sort
        // could reorder the tries. Its temporary buffer is the one
        // allocation a round makes.
        std::stable_sort(actions.begin(), actions.end(),
                         [](const Action &a, const Action &b) {
                             return a.saturation > b.saturation;
                         });

        // tryMemToBus ignores its cluster and a failed try leaves the
        // schedule exactly as it was, so its later ranks in a round
        // would repeat the same failing scan: it is tried once, at
        // its first rank.
        bool mem_to_bus_tried = false;
        bool any = false;
        for (const Action &a : actions) {
            bool ok = false;
            switch (a.kind) {
              case 0:
                ok = trySpill(ps, a.cluster);
                break;
              case 1:
                ok = tryBusToMem(ps);
                break;
              case 2:
                if (mem_to_bus_tried)
                    continue;
                mem_to_bus_tried = true;
                ok = tryMemToBus(ps);
                break;
              case 3:
                ok = tryUnspill(ps, a.cluster);
                break;
            }
            if (ok) {
                ++applied;
                any = true;
                break;
            }
        }
        if (!any)
            break;
    }
    return applied;
}

} // namespace gpsched
