#include "sched/schedule_image.hh"

#include <utility>

#include "support/logging.hh"

namespace gpsched
{

std::optional<ShapeFault>
flattenRecord(const Ddg &ddg, const MachineConfig &machine,
              const CompiledLoop &loop, bool rejectNonDefining,
              ScheduleImage &out)
{
    const int n = ddg.numNodes();
    auto fault = [](NodeId node, auto &&...args) {
        return ShapeFault{node, buildMessage(args...)};
    };
    if (loop.ii < 1)
        return fault(invalidNode, "bad II ", loop.ii);
    if (static_cast<int>(loop.placements.size()) != n) {
        return fault(invalidNode, "schedule records ",
                     loop.placements.size(), " placements for ", n,
                     " nodes");
    }
    out.ii = loop.ii;
    out.unplaced = n;
    out.place.assign(loop.placements.begin(), loop.placements.end());
    out.spill.assign(n, {});

    // Slice the transfers by producer (a counting sort that keeps
    // record order), checking each in record order as it lands.
    out.xferBegin.assign(n, 0);
    for (const Transfer &t : loop.transfers) {
        if (t.producer >= 0 && t.producer < n)
            ++out.xferBegin[t.producer];
    }
    int start = 0;
    for (NodeId v = 0; v < n; ++v)
        start += std::exchange(out.xferBegin[v], start);
    out.xferEnd = out.xferBegin;
    out.xfers.resize(start);
    for (const Transfer &t : loop.transfers) {
        const NodeId p = t.producer;
        if (p < 0 || p >= n)
            return fault(p, "transfer from unknown node ", p);
        if (rejectNonDefining && !definesValue(ddg.node(p).opcode))
            return fault(p, "transfer from non-defining node ", p);
        if (t.destCluster < 0 || t.destCluster >= machine.numClusters()) {
            return fault(p, "transfer of ", p, " to bad cluster ",
                         t.destCluster);
        }
        if (out.transferTo(p, t.destCluster)) {
            return fault(p, "duplicate transfer of ", p, " to cluster ",
                         t.destCluster);
        }
        out.xfers[out.xferEnd[p]++] = t;
    }

    for (const SpillRecord &s : loop.spills) {
        if (s.node < 0 || s.node >= n)
            return fault(s.node, "spill of unknown node ", s.node);
        if (rejectNonDefining && !definesValue(ddg.node(s.node).opcode))
            return fault(s.node, "spill of non-defining node ", s.node);
        if (out.spill[s.node].spilled)
            return fault(s.node, "duplicate spill of node ", s.node);
        out.spill[s.node] = {true, s.storeCycle, s.loadCycle};
    }
    return std::nullopt;
}

void
flattenSchedule(const Ddg &ddg, const PartialSchedule &ps,
                ScheduleImage &out)
{
    const int n = ddg.numNodes();
    out.ii = ps.ii();
    out.unplaced = n;
    out.place.assign(n, {});
    out.spill.resize(n);
    out.xfers.clear();
    out.xferBegin.resize(n);
    out.xferEnd.resize(n);
    for (NodeId v = 0; v < n; ++v) {
        if (ps.isScheduled(v))
            out.place[v] = {ps.clusterOf(v), ps.cycleOf(v)};
        else if (out.unplaced == n)
            out.unplaced = v;
        out.spill[v] = ps.spillOf(v);
        out.xferBegin[v] = static_cast<int>(out.xfers.size());
        for (const auto &entry : ps.transfersOf(v))
            out.xfers.push_back(entry.second);
        out.xferEnd[v] = static_cast<int>(out.xfers.size());
    }
}

} // namespace gpsched
