#include "partition/estimator.hh"

#include <algorithm>
#include <limits>
#include <optional>

#include "graph/ddg_analysis.hh"
#include "sched/lifetime.hh"
#include "support/logging.hh"

namespace gpsched
{

namespace
{

/**
 * @p a * @p b + @p c for non-negative operands, clamped to the int64
 * maximum: an estimate past 64 bits ranks last instead of wrapping
 * (signed overflow is undefined behaviour). The compile driver
 * rejects loops whose actual counts do not fit.
 */
std::int64_t
saturatingMulAdd(std::int64_t a, std::int64_t b, std::int64_t c)
{
    std::int64_t product = 0;
    std::int64_t sum = 0;
    if (__builtin_mul_overflow(a, b, &product) ||
        __builtin_add_overflow(product, c, &sum))
        return std::numeric_limits<std::int64_t>::max();
    return sum;
}

} // namespace

PartitionEstimator::PartitionEstimator(const Ddg &ddg,
                                       const MachineConfig &machine,
                                       int ii, bool register_aware)
    : ddg_(ddg), machine_(machine), ii_(ii),
      registerAware_(register_aware),
      extraScratch_(ddg.numEdges(), 0)
{
    GPSCHED_ASSERT(ii >= 1, "estimator needs II >= 1");
}

PartitionEstimate
PartitionEstimator::evaluate(const Partition &partition) const
{
    PartitionEstimate est;

    // One pass over the nodes yields every (cluster, class) occupancy
    // needed for both the overload test and the per-cluster ResMII.
    const int clusters = machine_.numClusters();
    const LatencyTable &lat = machine_.latencies();
    occScratch_.assign(clusters * numFuClasses, 0);
    std::vector<int> &occ = occScratch_;
    for (NodeId v = 0; v < ddg_.numNodes(); ++v) {
        Opcode op = ddg_.node(v).opcode;
        occ[partition.clusterOf(v) * numFuClasses +
            static_cast<int>(fuClassOf(op))] += lat.occupancy(op);
    }
    est.resourcesOk = true;
    int res_mii = 1;
    for (int c = 0; c < clusters; ++c) {
        for (int k = 0; k < numFuClasses; ++k) {
            int fus = machine_.fuInCluster(c, static_cast<FuClass>(k));
            int o = occ[c * numFuClasses + k];
            if (o > fus * ii_)
                est.resourcesOk = false;
            if (fus > 0) {
                res_mii = std::max(res_mii, (o + fus - 1) / fus);
                est.peakUtilPermille = std::max(
                    est.peakUtilPermille,
                    static_cast<int>(static_cast<std::int64_t>(o) *
                                     1000 / (fus * ii_)));
            } else if (o > 0) {
                // fus == 0 with assigned ops: no II helps; the
                // overload penalty below ranks the partition last and
                // the pressure sentinel dominates every finite peak
                // (max-ed so an even larger finite overload recorded
                // earlier is never lowered).
                est.peakUtilPermille =
                    std::max(est.peakUtilPermille, 1000000);
            }
        }
    }

    est.iiBus = iiBusBound(ddg_, partition, machine_);

    // Communication delays on cut flow edges: the bus-class cost
    // model charges a cut value the capacity-weighted expected
    // latency of the fabric (exactly the class latency on
    // single-class machines). Hoisted: evaluate() is the refinement
    // hot path and the machine never changes. The cut-edge count
    // rides the same pass (it was a separate identical scan).
    const int comm_latency = machine_.expectedBusLatency();
    std::vector<int> &extra = extraScratch_;
    std::fill(extra.begin(), extra.end(), 0);
    for (EdgeId e = 0; e < ddg_.numEdges(); ++e) {
        const auto &edge = ddg_.edge(e);
        if (partition.clusterOf(edge.src) ==
            partition.clusterOf(edge.dst))
            continue;
        ++est.cutEdges;
        if (edge.isFlow())
            extra[e] = comm_latency;
    }

    int start = std::max({ii_, est.iiBus, res_mii});
    // Cut edges inside recurrences can force the II above the input;
    // scan a few steps before falling back to a full RecMII search.
    // The successful probe *is* the final analysis — rebuilding it at
    // iiFeas would redo identical work (this path is the refinement
    // hot loop's unit cost).
    auto analyze = [&](int ii) {
        if (analysis_)
            analysis_->recompute(ii);
        else
            analysis_.emplace(ddg_, lat, ii, &extra);
    };
    int iiFeas = -1;
    for (int ii = start; ii <= start + 4; ++ii) {
        analyze(ii);
        if (analysis_->feasible()) {
            iiFeas = ii;
            break;
        }
    }
    if (iiFeas == -1) {
        iiFeas = std::max(start, recMii(ddg_, &extra));
        analyze(iiFeas);
    }
    const DdgAnalysis &analysis = *analysis_;
    GPSCHED_ASSERT(analysis.feasible(), "estimator analysis infeasible");

    est.iiEff = iiFeas;
    est.pathLength = analysis.scheduleLength();
    est.execTime = saturatingMulAdd(ddg_.tripCount() - 1, est.iiEff,
                                    est.pathLength);
    if (!est.resourcesOk) {
        // Overloaded partitions are never acceptable; rank them last
        // but keep relative order so the balance pass can compare.
        est.execTime =
            saturatingMulAdd(1, est.execTime, 1000000000000LL);
    }

    for (EdgeId e = 0; e < ddg_.numEdges(); ++e) {
        const auto &edge = ddg_.edge(e);
        if (partition.clusterOf(edge.src) !=
            partition.clusterOf(edge.dst)) {
            if (edge.isFlow())
                est.cutSlackTotal += analysis.slack(e);
        }
    }

    // Register-aware extension (paper Section 4.2, future work):
    // project each value's home-cluster lifetime at the ASAP
    // schedule ([write, last same-cluster use]) and penalize
    // partitions whose per-cluster MaxLive overflows the file —
    // overflowing values will spill, costing roughly an II bump per
    // pair of them.
    if (registerAware_) {
        std::vector<LifetimeTracker> live;
        live.reserve(clusters);
        for (int c = 0; c < clusters; ++c)
            live.emplace_back(machine_.regsInCluster(c), iiFeas);
        for (NodeId v = 0; v < ddg_.numNodes(); ++v) {
            if (!definesValue(ddg_.node(v).opcode))
                continue;
            int home = partition.clusterOf(v);
            int write = analysis.asap(v) +
                        lat.latency(ddg_.node(v).opcode);
            int last = write;
            for (EdgeId e : ddg_.outEdges(v)) {
                const auto &edge = ddg_.edge(e);
                if (!edge.isFlow() ||
                    partition.clusterOf(edge.dst) != home) {
                    continue;
                }
                last = std::max(last, analysis.asap(edge.dst) +
                                          iiFeas * edge.distance);
            }
            live[home].add({write, last});
        }
        est.regPressure.resize(clusters);
        std::int64_t overflow = 0;
        for (int c = 0; c < clusters; ++c) {
            est.regPressure[c] = live[c].maxLive();
            overflow += std::max(0, est.regPressure[c] -
                                        machine_.regsInCluster(c));
        }
        est.execTime = saturatingMulAdd(
            overflow,
            std::max<std::int64_t>(1, (ddg_.tripCount() - 1) / 2),
            est.execTime);
    }
    return est;
}

} // namespace gpsched
