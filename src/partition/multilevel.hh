/**
 * @file
 * The GP scheme's cluster-assignment phase (paper Section 3.2):
 * multilevel graph partitioning of a loop DDG.
 *
 *   1. compute edge weights at the input II (Section 3.2.1), using
 *      the machine's expected bus latency — the capacity-weighted
 *      mean over its bus classes — as the cut penalty,
 *   2. coarsen by maximum-weight matching until as many macro-nodes
 *      remain as the machine has clusters,
 *   3. assign each coarsest macro-node to a cluster: round-robin
 *      over the widest clusters on homogeneous machines, by
 *      per-FU-class capacity shares on every other machine,
 *   4. refine every level from coarsest to finest with the balance
 *      and edge-impact passes (Section 3.2.2); on heterogeneous
 *      machines the refiner additionally tie-breaks on per-cluster
 *      FU-class pressure (PartitionEstimate::peakUtilPermille).
 *
 * The result carries the cluster assignment, the bus-imposed bound
 * IIbus that the driver of Section 3.1 compares against the current
 * II, and the final execution-time estimate.
 */

#ifndef GPSCHED_PARTITION_MULTILEVEL_HH
#define GPSCHED_PARTITION_MULTILEVEL_HH

#include "graph/ddg.hh"
#include "machine/machine.hh"
#include "partition/coarsen.hh"
#include "partition/edge_weights.hh"
#include "partition/estimator.hh"
#include "partition/partition.hh"

namespace gpsched
{

/** Partitioner configuration (defaults reproduce the paper on
 *  homogeneous machines and add heterogeneity awareness beyond it). */
struct GpPartitionerOptions
{
    MatchingPolicy matching = MatchingPolicy::GreedyHeavy;
    EdgeWeightOptions edgeWeights;

    /** Steer refinement away from register-overflowing partitions
     *  (the paper's Section-4.2 future-work heuristic). */
    bool registerAware = false;

    bool operator==(const GpPartitionerOptions &other) const
    {
        return matching == other.matching &&
               edgeWeights == other.edgeWeights &&
               registerAware == other.registerAware;
    }
};

/** Result of one partitioning run. */
struct GpPartitionResult
{
    Partition partition;
    int iiBus = 0;
    PartitionEstimate estimate;
};

/** Multilevel cluster assignment for modulo scheduling. */
class GpPartitioner
{
  public:
    /** @p machine must outlive the partitioner. */
    explicit GpPartitioner(const MachineConfig &machine,
                           GpPartitionerOptions options = {});

    /** Partitions @p ddg for initiation interval @p ii. */
    GpPartitionResult run(const Ddg &ddg, int ii) const;

  private:
    const MachineConfig &machine_;
    GpPartitionerOptions options_;

    /**
     * Capacity-balanced seeding of heterogeneous machines: places
     * the coarsest macro-nodes (visited in @p order, heaviest first)
     * one by one on the cluster whose peak per-FU-class pressure
     * after the placement is smallest — the cluster's occupancy of
     * each class divided by its capacity of that class. A cluster
     * with 0 units of a class the placement would load is infinitely
     * pressured and never seeded with it (the 0-FU guards of the
     * estimator are thereby preserved at seeding time). Ties prefer
     * the wider cluster, then the lower index, keeping the rule
     * deterministic.
     */
    void assignCapacityBalanced(const Ddg &ddg,
                                const CoarseLevel &coarsest,
                                const std::vector<int> &order,
                                Partition &partition) const;
};

} // namespace gpsched

#endif // GPSCHED_PARTITION_MULTILEVEL_HH
