#include "graph/ddg.hh"

#include <memory>

#include "graph/ddg_analysis.hh"
#include "graph/scc.hh"
#include "sched/sms_order.hh"
#include "support/logging.hh"

namespace gpsched
{

/**
 * The slot's contents. The SCCs are computed at installation; every
 * other analysis is filled in on its first request, each published
 * by one atomic store or compare-exchange so racing first uses are
 * safe. Per-II entries form a list that only ever grows at its head.
 */
struct Ddg::Analyses
{
    /** One per-II entry and the entry installed before it. */
    struct IiEntry
    {
        IiAnalysis analysis;
        const IiEntry *next = nullptr;
    };

    explicit Analyses(const Ddg &ddg) : sccs(computeSccs(ddg)) {}
    ~Analyses();

    const SccDecomposition sccs;

    /** The graph-only RecMII; 0 until computed. */
    std::atomic<int> recMii{0};

    std::atomic<const SmsNodeSets *> smsSets{nullptr};

    /** The node-latency table the per-II entries were built for:
     *  a copy of the first table requested. */
    std::atomic<const LatencyTable *> latencies{nullptr};

    /** The per-II entries, newest first. */
    std::atomic<const IiEntry *> entries{nullptr};
};

Ddg::Analyses::~Analyses()
{
    delete smsSets.load();
    delete latencies.load();
    for (const IiEntry *e = entries.load(); e != nullptr;) {
        const IiEntry *next = e->next;
        delete e;
        e = next;
    }
}

Ddg::Ddg(std::string name) : name_(std::move(name))
{
}

NodeId
Ddg::addNode(Opcode opcode, std::string label)
{
    NodeId id = static_cast<NodeId>(nodes_.size());
    if (label.empty())
        label = toString(opcode) + std::to_string(id);
    analyses_.reset();
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

    analyses_.reset();
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

namespace
{

/**
 * Installs @p fresh in @p slot unless another thread installed one
 * first; returns whichever is installed.
 */
template <typename T>
const T &
install(std::atomic<const T *> &slot, std::unique_ptr<const T> fresh)
{
    const T *cached = nullptr;
    if (slot.compare_exchange_strong(cached, fresh.get()))
        return *fresh.release();
    return *cached; // another thread installed its copy first
}

} // namespace

Ddg::Analyses &
Ddg::analyses() const
{
    Analyses *cached = analyses_.installed.load();
    if (cached != nullptr)
        return *cached;
    auto fresh = std::make_unique<Analyses>(*this);
    if (analyses_.installed.compare_exchange_strong(cached, fresh.get()))
        return *fresh.release();
    return *cached; // another thread installed its copy first
}

const SccDecomposition &
Ddg::sccs() const
{
    return analyses().sccs;
}

int
Ddg::recMii() const
{
    Analyses &a = analyses();
    int cached = a.recMii.load();
    if (cached == 0) {
        // Racing first uses compute the same value; a throw installs
        // nothing, so every call reports the error.
        cached = gpsched::recMii(*this);
        a.recMii.store(cached);
    }
    return cached;
}

const SmsNodeSets &
Ddg::smsNodeSets() const
{
    Analyses &a = analyses();
    if (const SmsNodeSets *cached = a.smsSets.load())
        return *cached;
    return install(a.smsSets, std::make_unique<const SmsNodeSets>(
                                  computeSmsNodeSets(*this)));
}

const IiAnalysis *
Ddg::iiAnalysis(int ii, const LatencyTable &latencies) const
{
    using IiEntry = Analyses::IiEntry;
    Analyses &a = analyses();
    const LatencyTable *table = a.latencies.load();
    if (table == nullptr)
        table = &install(a.latencies,
                         std::make_unique<const LatencyTable>(latencies));
    if (*table != latencies)
        return nullptr;
    auto find = [ii](const IiEntry *e) -> const IiAnalysis * {
        for (; e != nullptr; e = e->next) {
            if (e->analysis.ii == ii)
                return &e->analysis;
        }
        return nullptr;
    };
    const IiEntry *head = a.entries.load();
    if (const IiAnalysis *cached = find(head))
        return cached;
    auto fresh = std::make_unique<IiEntry>(
        IiEntry{analyzeIi(*this, latencies, ii), nullptr});
    // Push at the head, unless a racing request installed this II
    // first: one entry per II, so every reader sees the same one.
    do {
        if (const IiAnalysis *raced = find(head))
            return raced;
        fresh->next = head;
    } while (!a.entries.compare_exchange_weak(head, fresh.get()));
    return &fresh.release()->analysis;
}

void
Ddg::AnalysisSlot::reset() noexcept
{
    // Only an installed slot needs the store: a builder calls this
    // once per node and edge.
    if (auto old = installed.load()) {
        installed.store(nullptr);
        delete old;
    }
}

} // namespace gpsched
