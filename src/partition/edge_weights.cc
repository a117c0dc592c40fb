#include "partition/edge_weights.hh"

#include <algorithm>
#include <limits>
#include <optional>

#include "graph/ddg_analysis.hh"
#include "graph/scc.hh"
#include "support/logging.hh"

namespace gpsched
{

namespace
{

/**
 * delay(e) given a precomputed base analysis; @p extra is an
 * all-zero scratch vector restored before returning, and @p probe
 * the analysis over @p extra, built on first use and recomputed in
 * place by later calls.
 */
std::int64_t
edgeDelayWithBase(const Ddg &ddg, const LatencyTable &latencies,
                  EdgeId e, int ii, int bus_latency,
                  const DdgAnalysis &base, std::vector<int> &extra,
                  std::optional<DdgAnalysis> &probe)
{
    const auto &edge = ddg.edge(e);
    const SccDecomposition &sccs = ddg.sccs();
    const bool same_scc = sccs.componentOf[edge.src] ==
                          sccs.componentOf[edge.dst];

    int new_ii = ii;
    std::int64_t path_growth = 0;
    if (!same_scc) {
        // The delayed edge lies on no cycle: the II is unaffected and
        // only paths through e can grow. The longest one is
        // asap(src) + efflat(e) + delay + height-from-dst, all known
        // from the base analysis — O(1) instead of a fresh sweep.
        int through = base.asap(edge.src) + base.effectiveLatency(e) +
                      bus_latency + base.scheduleLength() -
                      base.alap(edge.dst);
        path_growth =
            std::max(0, through - base.scheduleLength());
    } else {
        // Inside a recurrence the delay can also force the II up (by
        // at most bus_latency, since every cycle's distance sum is
        // >= 1); probe upward from the input II.
        extra[e] = bus_latency;
        for (;; ++new_ii) {
            GPSCHED_ASSERT(new_ii <= ii + bus_latency,
                           "augmented RecMII above bound");
            if (probe)
                probe->recompute(new_ii);
            else
                probe.emplace(ddg, latencies, new_ii, &extra);
            if (probe->feasible()) {
                path_growth =
                    probe->scheduleLength() - base.scheduleLength();
                break;
            }
        }
        extra[e] = 0;
    }

    std::int64_t iters = ddg.tripCount();
    std::int64_t ii_growth =
        static_cast<std::int64_t>(new_ii - ii) * (iters - 1);
    // Raising II can shorten the flat schedule (loop-carried edges
    // relax); the total is still a delay, never a speedup.
    return std::max<std::int64_t>(0, ii_growth + path_growth);
}

} // namespace

std::vector<std::int64_t>
computeEdgeWeights(const Ddg &ddg, const LatencyTable &latencies,
                   int ii, int bus_latency,
                   const EdgeWeightOptions &options)
{
    DdgAnalysis base(ddg, latencies, ii);
    GPSCHED_ASSERT(base.feasible(),
                   "edge weights requested at infeasible II ", ii);

    // Coarsening, matching and refinement add up the weights of many
    // edges (a swap gain adds two such sums), so each weight is held
    // to a quarter of the int64 range shared among the edges. Only a
    // delay that grows with an extreme trip count comes near it.
    const std::int64_t cap = std::numeric_limits<std::int64_t>::max() /
                             4 / std::max(ddg.numEdges(), 1);
    const std::int64_t maxsl = base.maxSlack();
    std::vector<std::int64_t> weights(ddg.numEdges(), 1);
    std::vector<int> extra(ddg.numEdges(), 0);
    std::optional<DdgAnalysis> probe;
    for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
        std::int64_t weight = 1;
        if (options.useDelayTerm) {
            std::int64_t delay =
                edgeDelayWithBase(ddg, latencies, e, ii, bus_latency,
                                  base, extra, probe);
            weight += delay > cap / (maxsl + 1) ? cap
                                                : delay * (maxsl + 1);
        }
        if (options.useSlackTerm)
            weight += maxsl - base.slack(e);
        weights[e] = std::clamp<std::int64_t>(weight, 1, cap);
    }
    return weights;
}

} // namespace gpsched
