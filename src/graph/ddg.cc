#include "graph/ddg.hh"

#include <memory>

#include "graph/scc.hh"
#include "support/logging.hh"

namespace gpsched
{

Ddg::Ddg(std::string name) : name_(std::move(name))
{
}

NodeId
Ddg::addNode(Opcode opcode, std::string label)
{
    NodeId id = static_cast<NodeId>(nodes_.size());
    if (label.empty())
        label = toString(opcode) + std::to_string(id);
    sccs_.reset();
    nodes_.push_back(DdgNode{opcode, std::move(label)});
    outEdges_.emplace_back();
    inEdges_.emplace_back();
    return id;
}

EdgeId
Ddg::addEdge(NodeId src, NodeId dst, int latency, int distance,
             DepKind kind)
{
    GPSCHED_ASSERT(src >= 0 && src < numNodes(), "bad src node ", src);
    GPSCHED_ASSERT(dst >= 0 && dst < numNodes(), "bad dst node ", dst);
    GPSCHED_ASSERT(latency >= 0, "negative edge latency");
    GPSCHED_ASSERT(distance >= 0, "negative edge distance");
    GPSCHED_ASSERT(src != dst || distance >= 1,
                   "self edge must be loop-carried");
    GPSCHED_ASSERT(kind == DepKind::Order ||
                       definesValue(nodes_[src].opcode),
                   "flow edge from non-defining op ",
                   toString(nodes_[src].opcode));

    sccs_.reset();
    EdgeId id = static_cast<EdgeId>(edges_.size());
    edges_.push_back(DdgEdge{src, dst, latency, distance, kind});
    outEdges_[src].push_back(id);
    inEdges_[dst].push_back(id);
    return id;
}

void
Ddg::setTripCount(std::int64_t niter)
{
    GPSCHED_ASSERT(niter >= 1, "trip count must be >= 1");
    tripCount_ = niter;
}

int
Ddg::totalOccupancy(FuClass cls, const LatencyTable &latencies) const
{
    int total = 0;
    for (const auto &n : nodes_) {
        if (fuClassOf(n.opcode) == cls)
            total += latencies.occupancy(n.opcode);
    }
    return total;
}

const SccDecomposition &
Ddg::sccs() const
{
    auto cached = sccs_.installed.load();
    if (cached != nullptr)
        return *cached;
    auto fresh = std::make_unique<const SccDecomposition>(
        computeSccs(*this));
    if (sccs_.installed.compare_exchange_strong(cached, fresh.get()))
        return *fresh.release();
    return *cached; // another thread installed its copy first
}

void
Ddg::SccCache::reset() noexcept
{
    // Only a decomposition already installed needs the store: a
    // builder calls this once per node and edge.
    if (auto old = installed.load()) {
        installed.store(nullptr);
        delete old;
    }
}

} // namespace gpsched
