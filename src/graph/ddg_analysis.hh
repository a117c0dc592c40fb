/**
 * @file
 * Modulo-scheduling analyses over a DDG at a candidate initiation
 * interval II.
 *
 * Every dependence edge imposes
 *     start(dst) >= start(src) + latency(e) - II * distance(e),
 * so analyses use the *effective* latency  lat - II*dist.  A value of
 * II is feasible iff no cycle has positive total effective latency
 * (equivalently II >= RecMII). ASAP/ALAP longest-path fixpoints are
 * computed per strongly-connected component in topological order,
 * which keeps full recomputation cheap enough that the partitioner
 * can afford one analysis per candidate edge delay.
 *
 * An optional per-edge extra-latency vector models the bus delay a
 * partition adds to cut edges without mutating the graph.
 */

#ifndef GPSCHED_GRAPH_DDG_ANALYSIS_HH
#define GPSCHED_GRAPH_DDG_ANALYSIS_HH

#include <vector>

#include "graph/ddg.hh"
#include "machine/op.hh"
#include "support/logging.hh"

namespace gpsched
{

/** Longest-path analysis of one DDG at a fixed II. */
class DdgAnalysis
{
  public:
    /**
     * Runs the analysis.
     *
     * @param ddg graph to analyze
     * @param latencies node latency table (for finish times)
     * @param ii candidate initiation interval (>= 1)
     * @param extra_edge_latency optional per-edge additive latency
     *        (size must equal ddg.numEdges() when provided)
     *
     * The component sweep reads ddg.sccs(), so every analysis of one
     * graph shares one decomposition.
     */
    DdgAnalysis(const Ddg &ddg, const LatencyTable &latencies, int ii,
                const std::vector<int> *extra_edge_latency = nullptr);

    /**
     * Reruns the analysis at @p ii, reusing its arrays. The extra
     * latency vector, when given, is read again, so a caller may
     * change its contents between runs.
     */
    void recompute(int ii);

    /** False when a positive-latency cycle exists at this II. */
    bool feasible() const { return feasible_; }

    /** Analyzed initiation interval. */
    int ii() const { return ii_; }

    // The per-node/per-edge queries below are defined inline: the
    // analysis itself and every consumer (estimator slack sums,
    // scheduler priority functions) read them in tight loops.

    /**
     * Length of the flat (one-iteration) schedule: the largest
     * finish time over all nodes when every node starts at ASAP.
     * This is the paper's max_path. Only valid when feasible().
     */
    int
    scheduleLength() const
    {
        GPSCHED_ASSERT(feasible_, "infeasible analysis queried");
        return scheduleLength_;
    }

    /** Earliest start of @p v. Only valid when feasible(). */
    int
    asap(NodeId v) const
    {
        GPSCHED_ASSERT(feasible_, "infeasible analysis queried");
        GPSCHED_ASSERT(v >= 0 && v < ddg_.numNodes(), "bad node ", v);
        return asap_[v];
    }

    /** Latest start of @p v preserving scheduleLength(). */
    int
    alap(NodeId v) const
    {
        GPSCHED_ASSERT(feasible_, "infeasible analysis queried");
        GPSCHED_ASSERT(v >= 0 && v < ddg_.numNodes(), "bad node ", v);
        return alap_[v];
    }

    /** Scheduling freedom alap(v) - asap(v). */
    int mobility(NodeId v) const { return alap(v) - asap(v); }

    /** Longest path from any source to the start of @p v (= asap). */
    int depth(NodeId v) const { return asap(v); }

    /** Longest path from the start of @p v to the schedule end. */
    int height(NodeId v) const { return scheduleLength() - alap(v); }

    /** Effective latency of @p e at this II (incl. extra latency). */
    int
    effectiveLatency(EdgeId e) const
    {
        const auto &edge = ddg_.edge(e);
        int lat = edge.latency + (extra_ ? (*extra_)[e] : 0);
        return lat - ii_ * edge.distance;
    }

    /**
     * Delay cycles that could be added to @p e without growing the
     * schedule length: alap(dst) - asap(src) - efflat(e).
     */
    int
    slack(EdgeId e) const
    {
        GPSCHED_ASSERT(feasible_, "infeasible analysis queried");
        const auto &edge = ddg_.edge(e);
        return alap_[edge.dst] - asap_[edge.src] - effectiveLatency(e);
    }

    /** Maximum slack over all edges (paper's maxsl); 0 if no edges. */
    int maxSlack() const;

  private:
    const Ddg &ddg_;
    const LatencyTable &latencies_;
    int ii_;
    const std::vector<int> *extra_;
    bool feasible_ = true;
    int scheduleLength_ = 0;
    std::vector<int> asap_;
    std::vector<int> alap_;
};

/**
 * Minimum II such that no cycle has positive effective latency
 * (RecMII). Returns 1 for acyclic graphs. @p extra_edge_latency as
 * in DdgAnalysis.
 */
int recMii(const Ddg &ddg,
           const std::vector<int> *extra_edge_latency = nullptr);

} // namespace gpsched

#endif // GPSCHED_GRAPH_DDG_ANALYSIS_HH
