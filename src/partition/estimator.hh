/**
 * @file
 * Execution-time estimation of a partition (paper Section 3.2.2).
 *
 * The estimate models "a hypothetical machine with the actual
 * resources except for registers, which are assumed unlimited, ...
 * assuming an ideal memory", while "the interconnection network as
 * well as the memory ports are taken into account in a realistic
 * way":
 *
 *   T(P) = (niter - 1) * IIeff + pathLength(P)
 *
 * where IIeff = max(II, IIbus(P), per-cluster ResMII(P), RecMII with
 * the machine's *expected* bus latency — the capacity-weighted mean
 * over its bus classes — added to every cut flow edge), and
 * pathLength is the flat-schedule length under those same
 * communication delays. Estimates also carry the tie-break metrics
 * refinement uses: total slack of cut edges (maximize), cut-edge
 * count (minimize) and, on heterogeneous machines, the peak
 * per-cluster FU-class pressure (minimize).
 */

#ifndef GPSCHED_PARTITION_ESTIMATOR_HH
#define GPSCHED_PARTITION_ESTIMATOR_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/ddg.hh"
#include "graph/ddg_analysis.hh"
#include "machine/machine.hh"
#include "partition/partition.hh"

namespace gpsched
{

/** Estimator verdict for one partition. */
struct PartitionEstimate
{
    /** False when some (cluster, FU class) exceeds 100% utilization. */
    bool resourcesOk = true;

    /**
     * Estimated per-cluster MaxLive at the ASAP schedule (filled
     * only by register-aware estimators; the paper's future-work
     * extension).
     */
    std::vector<int> regPressure;

    /** Bus-imposed II bound (Section 3.1). */
    int iiBus = 0;

    /** II used for the execution-time estimate. */
    int iiEff = 1;

    /** Flat schedule length including communication delays. */
    int pathLength = 0;

    /** Estimated execution time (cycles); lower is better. */
    std::int64_t execTime = 0;

    /** Total slack of cut flow edges (first tie-break, maximize). */
    std::int64_t cutSlackTotal = 0;

    /** Number of cut edges (second tie-break, minimize). */
    int cutEdges = 0;

    /**
     * Peak per-cluster FU-class pressure in permille: the maximum
     * over every (cluster, class) of occupancy * 1000 / (FUs * II),
     * with ops assigned to a class a cluster lacks scoring a huge
     * sentinel. The heterogeneity-aware refinement tie-break
     * (minimize; only consulted on heterogeneous machines so
     * homogeneous Table-1 results stay bit-identical).
     */
    int peakUtilPermille = 0;
};

/** Evaluates partitions of one DDG at a fixed input II. */
class PartitionEstimator
{
  public:
    /**
     * References must outlive the estimator.
     *
     * @param register_aware when true, the estimate also projects
     *        per-cluster register pressure (MaxLive of the ASAP
     *        schedule's value lifetimes) and penalizes partitions
     *        whose pressure overflows a cluster's file. The paper
     *        evaluates the partitioner *without* this heuristic and
     *        names it as future work (Section 4.2); it is off by
     *        default.
     */
    PartitionEstimator(const Ddg &ddg, const MachineConfig &machine,
                       int ii, bool register_aware = false);

    // The cached analysis points into the estimator's scratch.
    PartitionEstimator(const PartitionEstimator &) = delete;
    PartitionEstimator &operator=(const PartitionEstimator &) = delete;

    /** Full estimate of @p partition. */
    PartitionEstimate evaluate(const Partition &partition) const;

    /** Input II the estimator was built for. */
    int ii() const { return ii_; }

  private:
    const Ddg &ddg_;
    const MachineConfig &machine_;
    int ii_;
    bool registerAware_;

    /** Scratch per-edge communication delays, reused per evaluate. */
    mutable std::vector<int> extraScratch_;

    /** Analysis over extraScratch_, recomputed in place per probe. */
    mutable std::optional<DdgAnalysis> analysis_;

    /** Scratch (cluster, FU class) occupancy, reused per evaluate. */
    mutable std::vector<int> occScratch_;
};

} // namespace gpsched

#endif // GPSCHED_PARTITION_ESTIMATOR_HH
