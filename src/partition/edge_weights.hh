/**
 * @file
 * Edge weights for coarsening (paper Section 3.2.1).
 *
 * The weight of an edge reflects the penalty of placing its
 * endpoints in different clusters:
 *
 *   weight(e) = delay(e) * (maxsl + 1) + maxsl - slack(e) + 1
 *
 * where delay(e) is the execution-time growth caused by adding the
 * bus latency to e,
 *
 *   delay(e) = (niter - 1) * (II' - II) + new_max_path - max_path,
 *
 * II' being the smallest feasible initiation interval after the
 * extra latency (recurrences through e may force II' > II), and
 * slack(e) the scheduling freedom of the edge. The lexicographic
 * scaling by (maxsl + 1) makes any difference in delay dominate any
 * difference in slack, and the trailing +1 keeps every weight
 * nonzero so zero-impact edges can still enter the matching. Each
 * weight is capped at a quarter of the int64 range divided by the
 * edge count, so no sum of weights overflows.
 */

#ifndef GPSCHED_PARTITION_EDGE_WEIGHTS_HH
#define GPSCHED_PARTITION_EDGE_WEIGHTS_HH

#include <cstdint>
#include <vector>

#include "graph/ddg.hh"
#include "machine/op.hh"

namespace gpsched
{

/** Term toggles for the edge-weight ablation bench. */
struct EdgeWeightOptions
{
    bool useDelayTerm = true; ///< include delay(e)*(maxsl+1)
    bool useSlackTerm = true; ///< include maxsl - slack(e)

    bool operator==(const EdgeWeightOptions &other) const
    {
        return useDelayTerm == other.useDelayTerm &&
               useSlackTerm == other.useSlackTerm;
    }
};

/**
 * Computes the per-edge coarsening weights of @p ddg at initiation
 * interval @p ii with a bus of @p bus_latency cycles. On machines
 * with several bus classes the partitioner passes
 * MachineConfig::expectedBusLatency() — the capacity-weighted mean
 * over the classes — which reduces to the single class's latency on
 * homogeneous fabrics.
 */
std::vector<std::int64_t>
computeEdgeWeights(const Ddg &ddg, const LatencyTable &latencies,
                   int ii, int bus_latency,
                   const EdgeWeightOptions &options = {});

} // namespace gpsched

#endif // GPSCHED_PARTITION_EDGE_WEIGHTS_HH
