#include "sched/list_sched.hh"

#include <algorithm>
#include <climits>
#include <map>

#include "support/logging.hh"

namespace gpsched
{

namespace
{

/** Growable per-cycle usage table for one resource pool. */
class CycleTable
{
  public:
    explicit CycleTable(int units) : units_(units) {}

    bool
    canUse(int cycle, int occupancy) const
    {
        for (int i = 0; i < occupancy; ++i) {
            int c = cycle + i;
            int used = c < static_cast<int>(busy_.size()) ? busy_[c]
                                                          : 0;
            if (used + 1 > units_)
                return false;
        }
        return true;
    }

    void
    use(int cycle, int occupancy)
    {
        int need = cycle + occupancy;
        if (static_cast<int>(busy_.size()) < need)
            busy_.resize(need, 0);
        for (int i = 0; i < occupancy; ++i)
            ++busy_[cycle + i];
    }

  private:
    int units_;
    std::vector<int> busy_;
};

/** Height (critical path to any sink) over distance-0 edges. */
std::vector<int>
acyclicHeights(const Ddg &ddg, const LatencyTable &lat)
{
    const int n = ddg.numNodes();
    std::vector<int> indeg_rev(n, 0);
    for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
        const DdgEdge &edge = ddg.edge(e);
        if (edge.distance == 0)
            ++indeg_rev[edge.src];
    }
    std::vector<int> height(n, 0);
    for (NodeId v = 0; v < n; ++v)
        height[v] = lat.latency(ddg.node(v).opcode);
    std::vector<NodeId> ready;
    for (NodeId v = 0; v < n; ++v) {
        if (indeg_rev[v] == 0)
            ready.push_back(v);
    }
    std::size_t head = 0;
    while (head < ready.size()) {
        NodeId v = ready[head++];
        for (EdgeId e : ddg.inEdges(v)) {
            const DdgEdge &edge = ddg.edge(e);
            if (edge.distance != 0 || edge.src == v)
                continue;
            NodeId u = edge.src;
            height[u] =
                std::max(height[u], lat.latency(ddg.node(u).opcode) +
                                        height[v]);
            if (--indeg_rev[u] == 0)
                ready.push_back(u);
        }
    }
    return height;
}

} // namespace

ListScheduleResult
listSchedule(const Ddg &ddg, const MachineConfig &machine)
{
    const LatencyTable &lat = machine.latencies();
    const int n = ddg.numNodes();
    const int num_clusters = machine.numClusters();
    const int num_bus_classes = machine.numBusClasses();

    ListScheduleResult result;
    result.cycle.assign(n, 0);
    result.cluster.assign(n, 0);
    if (n == 0)
        return result;

    std::vector<int> height = acyclicHeights(ddg, lat);

    // Ready list over the distance-0 dependence DAG.
    std::vector<int> indeg(n, 0);
    for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
        const DdgEdge &edge = ddg.edge(e);
        if (edge.distance == 0 && edge.src != edge.dst)
            ++indeg[edge.dst];
    }

    std::vector<CycleTable> fus;
    fus.reserve(num_clusters * numFuClasses);
    for (int c = 0; c < num_clusters; ++c) {
        for (int cls = 0; cls < numFuClasses; ++cls) {
            fus.emplace_back(
                machine.fuInCluster(c, static_cast<FuClass>(cls)));
        }
    }
    std::vector<CycleTable> buses;
    buses.reserve(num_bus_classes);
    for (int bc = 0; bc < num_bus_classes; ++bc)
        buses.emplace_back(machine.busClass(bc).count);
    // Earliest arrival over every bus class for a value ready at
    // @p read; fills @p best_bc / @p best_cycle for the commit path.
    auto earliestArrival = [&](int read, int &best_bc,
                               int &best_cycle) {
        int best = INT_MAX;
        best_bc = -1;
        best_cycle = 0;
        for (int bc = 0; bc < num_bus_classes; ++bc) {
            const int cls_lat = machine.busLatencyOf(bc);
            int b = read;
            while (!buses[bc].canUse(b, cls_lat))
                ++b;
            if (b + cls_lat < best) {
                best = b + cls_lat;
                best_bc = bc;
                best_cycle = b;
            }
        }
        return best;
    };
    std::vector<int> ops_in_cluster(num_clusters, 0);
    // Per (producer, cluster): arrival cycle of a value already
    // transferred there, so one transfer serves several consumers.
    std::map<std::pair<NodeId, int>, int> arrivals;
    std::vector<bool> placed(n, false);

    std::vector<NodeId> ready;
    for (NodeId v = 0; v < n; ++v) {
        if (indeg[v] == 0)
            ready.push_back(v);
    }

    int placed_count = 0;
    while (placed_count < n) {
        GPSCHED_ASSERT(!ready.empty(),
                       "distance-0 dependence cycle in DDG");
        // Pick the ready node with the greatest height.
        std::size_t best = 0;
        for (std::size_t i = 1; i < ready.size(); ++i) {
            NodeId a = ready[i], b = ready[best];
            if (height[a] > height[b] ||
                (height[a] == height[b] && a < b)) {
                best = i;
            }
        }
        NodeId v = ready[best];
        ready.erase(ready.begin() + static_cast<long>(best));

        const Opcode op = ddg.node(v).opcode;
        const FuClass cls = fuClassOf(op);
        const int occ = lat.occupancy(op);

        // Greedy cluster choice: earliest issue, then least loaded.
        // Clusters lacking the op's FU class entirely can never issue
        // it (and probing them would scan cycles forever); the
        // machine invariant of >= 1 unit per class machine-wide
        // guarantees some cluster remains.
        int best_cluster = -1, best_cycle = INT_MAX;
        for (int c = 0; c < num_clusters; ++c) {
            if (machine.fuInCluster(c, cls) == 0)
                continue;
            int earliest = 0;
            bool infeasible = false;
            for (EdgeId e : ddg.inEdges(v)) {
                const DdgEdge &edge = ddg.edge(e);
                if (edge.distance != 0 || edge.src == v)
                    continue;
                NodeId p = edge.src;
                int ready_at = result.cycle[p] + edge.latency;
                if (edge.isFlow() && result.cluster[p] != c) {
                    auto it = arrivals.find({p, c});
                    if (it != arrivals.end()) {
                        ready_at = std::max(ready_at, it->second);
                    } else if (num_bus_classes == 0) {
                        infeasible = true;
                        break;
                    } else {
                        // Transfer as soon as the value is ready.
                        int read = result.cycle[p] + edge.latency;
                        int bc, b;
                        ready_at = earliestArrival(read, bc, b);
                    }
                }
                earliest = std::max(earliest, ready_at);
            }
            if (infeasible)
                continue;
            int cycle = earliest;
            while (!fus[c * numFuClasses + static_cast<int>(cls)]
                        .canUse(cycle, occ)) {
                ++cycle;
            }
            if (best_cluster == -1 || cycle < best_cycle ||
                (cycle == best_cycle &&
                 ops_in_cluster[c] < ops_in_cluster[best_cluster])) {
                best_cycle = cycle;
                best_cluster = c;
            }
        }
        GPSCHED_ASSERT(best_cluster != -1,
                       "list scheduler found no feasible cluster");

        // Commit: allocate the transfers this placement relies on,
        // then recompute the exact earliest issue from the actual
        // arrival cycles (the probe above was only an estimate).
        int earliest = 0;
        for (EdgeId e : ddg.inEdges(v)) {
            const DdgEdge &edge = ddg.edge(e);
            if (edge.distance != 0 || edge.src == v)
                continue;
            NodeId p = edge.src;
            int ready_at = result.cycle[p] + edge.latency;
            if (edge.isFlow() && result.cluster[p] != best_cluster) {
                auto key = std::make_pair(p, best_cluster);
                auto it = arrivals.find(key);
                if (it == arrivals.end()) {
                    int read = result.cycle[p] + edge.latency;
                    int bc, b;
                    int arrival = earliestArrival(read, bc, b);
                    buses[bc].use(b, machine.busLatencyOf(bc));
                    it = arrivals.emplace(key, arrival).first;
                    ++result.busTransfers;
                }
                // A reused transfer may have arrived before this
                // edge's own latency elapsed.
                ready_at = std::max(ready_at, it->second);
            }
            earliest = std::max(earliest, ready_at);
        }
        best_cycle = std::max(best_cycle, earliest);
        while (!fus[best_cluster * numFuClasses +
                    static_cast<int>(cls)]
                    .canUse(best_cycle, occ)) {
            ++best_cycle;
        }
        fus[best_cluster * numFuClasses + static_cast<int>(cls)]
            .use(best_cycle, occ);
        result.cycle[v] = best_cycle;
        result.cluster[v] = best_cluster;
        ops_in_cluster[best_cluster] += 1;
        placed[v] = true;
        ++placed_count;

        for (EdgeId e : ddg.outEdges(v)) {
            const DdgEdge &edge = ddg.edge(e);
            if (edge.distance != 0 || edge.dst == v)
                continue;
            if (--indeg[edge.dst] == 0)
                ready.push_back(edge.dst);
        }
    }

    int makespan = 0;
    for (NodeId v = 0; v < n; ++v) {
        makespan = std::max(makespan,
                            result.cycle[v] +
                                lat.latency(ddg.node(v).opcode));
    }
    result.scheduleLength = makespan;
    return result;
}

} // namespace gpsched
