/**
 * @file
 * Data dependence graph (DDG) of one innermost loop.
 *
 * Nodes are operations; edges are data dependences annotated with a
 * latency (cycles the consumer must wait after the producer issues)
 * and a distance (iteration difference: 0 for intra-iteration
 * dependences, >= 1 for loop-carried ones). A modulo schedule must
 * satisfy  start(dst) >= start(src) + latency - II * distance  for
 * every edge.
 */

#ifndef GPSCHED_GRAPH_DDG_HH
#define GPSCHED_GRAPH_DDG_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "machine/op.hh"
#include "support/logging.hh"

namespace gpsched
{

/** Index of a node within its Ddg. */
using NodeId = std::int32_t;

/** Index of an edge within its Ddg. */
using EdgeId = std::int32_t;

/** Sentinel for "no node". */
constexpr NodeId invalidNode = -1;

struct SccDecomposition;
struct SmsNodeSets;
struct IiAnalysis;

/**
 * Bounds on loops read from outside the program, shared by the text
 * reader (graph/textio.hh) and the JSON importer (workload/import.hh):
 * trip counts lie in [1, maxTripCount], latencies and distances in
 * [0, maxEdgeLatency] and [0, maxEdgeDistance].
 */
constexpr std::int64_t maxTripCount = std::int64_t{1} << 40;
constexpr int maxEdgeLatency = 1 << 20;
constexpr int maxEdgeDistance = 1 << 20;

/**
 * Bound on the cycles a compiled schedule records: flat issue, bus,
 * store, load, read and arrival cycles lie in [-maxCycleMagnitude,
 * maxCycleMagnitude]. The compiler rejects a loop whose schedule
 * goes beyond it (a chain of long-latency edges can), and the
 * simulator refuses such a record as garbage.
 */
constexpr int maxCycleMagnitude = 1 << 20;

/** One operation of the loop body. */
struct DdgNode
{
    Opcode opcode = Opcode::IAlu;
    std::string label;
};

/**
 * Dependence kind. Flow edges carry a register value from producer
 * to consumer: when the two end up in different clusters the value
 * must cross the inter-cluster interconnect (bus copy or
 * communication through memory) and it occupies a register while
 * live. Order edges (memory ordering, anti/output dependences) only
 * constrain issue times.
 */
enum class DepKind : std::uint8_t
{
    Flow,
    Order,
};

/** One data dependence. */
struct DdgEdge
{
    NodeId src = invalidNode;
    NodeId dst = invalidNode;
    int latency = 1;
    int distance = 0;
    DepKind kind = DepKind::Flow;

    /** True for loop-carried dependences. */
    bool loopCarried() const { return distance > 0; }

    /** True for value-carrying dependences. */
    bool isFlow() const { return kind == DepKind::Flow; }
};

/**
 * Immutable-after-construction dependence graph of one loop,
 * together with its profiled trip count and, once asked for, the
 * analyses that depend on the graph alone.
 */
class Ddg
{
  public:
    /** Creates an empty graph named @p name. */
    explicit Ddg(std::string name = "loop");

    /** Adds a node; returns its id. */
    NodeId addNode(Opcode opcode, std::string label = "");

    /**
     * Adds a dependence edge. @p latency must be >= 0 and
     * @p distance >= 0; self-edges require distance >= 1. Flow edges
     * must leave a value-defining opcode.
     */
    EdgeId addEdge(NodeId src, NodeId dst, int latency,
                   int distance = 0, DepKind kind = DepKind::Flow);

    /** Loop name (for reports). */
    const std::string &name() const { return name_; }

    /** Profiled iteration count (>= 1). */
    std::int64_t tripCount() const { return tripCount_; }

    /** Sets the profiled iteration count. */
    void setTripCount(std::int64_t niter);

    /** Number of nodes. */
    int numNodes() const { return static_cast<int>(nodes_.size()); }

    /** Number of edges. */
    int numEdges() const { return static_cast<int>(edges_.size()); }

    // The four per-node/per-edge accessors below are the innermost
    // reads of every analysis and refinement loop (tens of millions
    // of calls per compile); they are defined inline so those loops
    // see plain indexed loads instead of opaque calls. The bounds
    // asserts stay — they fold into the surrounding loop bounds.

    /** Node accessor. */
    const DdgNode &
    node(NodeId id) const
    {
        GPSCHED_ASSERT(id >= 0 && id < numNodes(), "bad node id ", id);
        return nodes_[id];
    }

    /** Edge accessor. */
    const DdgEdge &
    edge(EdgeId id) const
    {
        GPSCHED_ASSERT(id >= 0 && id < numEdges(), "bad edge id ", id);
        return edges_[id];
    }

    /** Ids of edges leaving @p id. */
    const std::vector<EdgeId> &
    outEdges(NodeId id) const
    {
        GPSCHED_ASSERT(id >= 0 && id < numNodes(), "bad node id ", id);
        return outEdges_[id];
    }

    /** Ids of edges entering @p id. */
    const std::vector<EdgeId> &
    inEdges(NodeId id) const
    {
        GPSCHED_ASSERT(id >= 0 && id < numNodes(), "bad node id ", id);
        return inEdges_[id];
    }

    /** Sum of FU occupancy of ops of @p cls under @p latencies. */
    int totalOccupancy(FuClass cls, const LatencyTable &latencies) const;

    // The graph owns its machine-independent analyses: one slot,
    // installed on the first call of any accessor below and kept
    // until addNode() or addEdge() changes the topology (a new trip
    // count keeps it). Every accessor is safe to call from several
    // threads on one shared const graph: racing first uses each
    // compute, the first to install wins, and the returned
    // references stay valid until the topology changes. A copy
    // starts without the slot; a move takes it along and leaves the
    // source without one. The slot is never part of a graph's
    // fingerprint (engine/loop_key.hh) and never persisted.

    /**
     * The graph's SCC decomposition (graph/scc.hh), which RecMII,
     * every longest-path analysis, SMS ordering, the edge weights
     * and the partition estimator read.
     */
    const SccDecomposition &sccs() const;

    /**
     * The graph-only RecMII, recMii(*this) (graph/ddg_analysis.hh),
     * computed on first use. Throws its CompileError on every call
     * for a loop no II can satisfy.
     */
    int recMii() const;

    /** The SMS node sets, computeSmsNodeSets(*this)
     *  (sched/sms_order.hh), computed on first use. */
    const SmsNodeSets &smsNodeSets() const;

    /**
     * The analysis a modulo-scheduling attempt at @p ii reads
     * (sched/sms_order.hh: feasibility, ASAP, flat length and SMS
     * order), computed on the first request for @p ii. Entries are
     * kept for the node-latency table of the slot's first request
     * only: for a table that differs from it this returns nullptr
     * and the caller runs analyzeIi() itself. A lookup of an
     * installed entry allocates nothing.
     */
    const IiAnalysis *iiAnalysis(int ii,
                                 const LatencyTable &latencies) const;

  private:
    /** The slot's contents (ddg.cc). */
    struct Analyses;

    /** Owner of the lazily installed analyses. */
    class AnalysisSlot
    {
      public:
        AnalysisSlot() = default;
        AnalysisSlot(const AnalysisSlot &) noexcept {}
        AnalysisSlot(AnalysisSlot &&other) noexcept
            : installed(other.installed.exchange(nullptr))
        {
        }
        AnalysisSlot &
        operator=(const AnalysisSlot &) noexcept
        {
            reset();
            return *this;
        }
        AnalysisSlot &
        operator=(AnalysisSlot &&other) noexcept
        {
            if (this != &other) {
                reset();
                installed = other.installed.exchange(nullptr);
            }
            return *this;
        }
        ~AnalysisSlot() { reset(); }

        /** Drops the analyses (not thread-safe). */
        void reset() noexcept;

        std::atomic<Analyses *> installed{nullptr};
    };

    /** The slot's contents, installed on first use. */
    Analyses &analyses() const;

    std::string name_;
    std::int64_t tripCount_ = 100;
    std::vector<DdgNode> nodes_;
    std::vector<DdgEdge> edges_;
    std::vector<std::vector<EdgeId>> outEdges_;
    std::vector<std::vector<EdgeId>> inEdges_;
    mutable AnalysisSlot analyses_;
};

} // namespace gpsched

#endif // GPSCHED_GRAPH_DDG_HH
