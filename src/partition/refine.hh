/**
 * @file
 * Partition refinement (paper Section 3.2.2).
 *
 * At each level of the multilevel hierarchy, from coarsest to
 * finest, two heuristics improve the induced partition:
 *
 *  1. *Balance pass* — while some (cluster, FU class) is utilized
 *     above 100%, move a macro-node that uses the overloaded
 *     resource out of the overloaded cluster, provided the
 *     destination does not overload this resource or resources fixed
 *     earlier in the pass. If no movement helps, the pass defers to
 *     a finer level.
 *
 *  2. *Edge-impact pass* — consider moving each boundary macro-node
 *     to a neighbouring cluster (and, when capacity blocks the move,
 *     pairwise interchanges that free the capacity), apply the
 *     single change with the largest estimated execution-time
 *     benefit; ties prefer larger total slack of cut edges, then
 *     fewer cut edges, then — on heterogeneous machines only — lower
 *     peak per-cluster FU-class pressure
 *     (PartitionEstimate::peakUtilPermille); repeat until no
 *     positive-benefit change remains.
 *
 * Exact execution-time estimates are relatively expensive, so
 * candidates are pre-ranked with a static gain proxy (sum of
 * Section-3.2.1 edge weights that enter/leave the cut) and only the
 * top candidates are evaluated exactly. This keeps the GP scheme
 * faster than URACAM, as in the paper's Table 2.
 */

#ifndef GPSCHED_PARTITION_REFINE_HH
#define GPSCHED_PARTITION_REFINE_HH

#include <cstdint>
#include <vector>

#include "graph/ddg.hh"
#include "machine/machine.hh"
#include "partition/coarsen.hh"
#include "partition/estimator.hh"
#include "partition/partition.hh"

namespace gpsched
{

/** Refines partitions at macro-node granularity. */
class PartitionRefiner
{
  public:
    /**
     * @param static_weights per-original-edge Section-3.2.1 weights
     *        (the cheap gain proxy); references must outlive the
     *        refiner.
     * @param register_aware enables the register-pressure term of
     *        the estimator (paper Section 4.2 future work; off
     *        reproduces the paper).
     */
    PartitionRefiner(const Ddg &ddg, const MachineConfig &machine,
                     int ii,
                     const std::vector<std::int64_t> &static_weights,
                     bool register_aware = false);

    /**
     * Runs both passes on @p partition, moving whole macro-nodes of
     * @p level. @p partition maps original nodes.
     */
    void refineLevel(const CoarseLevel &level,
                     Partition &partition) const;

  private:
    const Ddg &ddg_;
    const MachineConfig &machine_;
    int ii_;
    const std::vector<std::int64_t> &staticWeights_;
    PartitionEstimator estimator_;

    /**
     * Per-level scratch: occupancy of each (macro-node, FU class),
     * computed once per refineLevel (macro membership never changes
     * within a level) so the passes' inner loops read a table
     * instead of re-walking member lists.
     */
    mutable std::vector<int> macroOcc_;

    /**
     * Pass-local (cluster, FU class) occupancy table, flattened
     * cluster-major; reused across passes and levels so the steady
     * state allocates nothing.
     */
    mutable std::vector<int> clusterOcc_;

    /** Fills clusterOcc_ from @p partition. */
    void computeClusterOccupancy(const Partition &partition) const;

    /** Fills macroOcc_ for @p level. */
    void computeMacroOccupancy(const CoarseLevel &level) const;

    /** Occupancy of ops of @p cls inside macro-node @p macro. */
    int
    macroOccupancy(int macro, FuClass cls) const
    {
        return macroOcc_[static_cast<std::size_t>(macro) *
                             numFuClasses +
                         static_cast<int>(cls)];
    }

    /** Cluster of a macro-node (all members agree). */
    int macroCluster(const CoarseLevel &level, int macro,
                     const Partition &partition) const;

    /** Moves all members of @p macro to @p cluster. */
    void moveMacro(const CoarseLevel &level, int macro, int cluster,
                   Partition &partition) const;

    /**
     * Static gain of moving @p macro to @p dest: cut weight removed
     * minus cut weight created.
     */
    std::int64_t staticGain(const CoarseLevel &level, int macro,
                            int dest, const Partition &partition) const;

    bool runBalancePass(const CoarseLevel &level, Partition &partition,
                        int &budget) const;

    bool runEdgeImpactPass(const CoarseLevel &level,
                           Partition &partition, int &budget) const;
};

} // namespace gpsched

#endif // GPSCHED_PARTITION_REFINE_HH
