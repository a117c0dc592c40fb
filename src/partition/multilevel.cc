#include "partition/multilevel.hh"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>

#include "partition/refine.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/telemetry.hh"

namespace gpsched
{

namespace
{

/** Seed of the coarsening matcher's random stream (only
 *  MatchingPolicy::RandomMaximal draws from it). */
constexpr std::uint64_t kCoarsenSeed = 0xc0ffee;

} // namespace

GpPartitioner::GpPartitioner(const MachineConfig &machine,
                             GpPartitionerOptions options)
    : machine_(machine), options_(options)
{
}

void
GpPartitioner::assignCapacityBalanced(const Ddg &ddg,
                                      const CoarseLevel &coarsest,
                                      const std::vector<int> &order,
                                      Partition &partition) const
{
    const int clusters = machine_.numClusters();
    const LatencyTable &lat = machine_.latencies();

    // Per-macro occupancy of each FU class.
    std::vector<int> mocc(
        static_cast<std::size_t>(coarsest.numNodes()) * numFuClasses,
        0);
    for (int m = 0; m < coarsest.numNodes(); ++m) {
        for (NodeId v : coarsest.members[m]) {
            Opcode op = ddg.node(v).opcode;
            mocc[static_cast<std::size_t>(m) * numFuClasses +
                 static_cast<int>(fuClassOf(op))] += lat.occupancy(op);
        }
    }

    // Greedy heaviest-first placement, minimizing the peak
    // post-placement class pressure load[c][k] / fu[c][k]. A cluster
    // lacking a class the placement would load (fu == 0, load > 0)
    // scores infinite and is only ever chosen when every cluster
    // does — the estimator's overload penalty then sorts it out.
    std::vector<int> load(
        static_cast<std::size_t>(clusters) * numFuClasses, 0);
    for (int m : order) {
        const int *macro =
            &mocc[static_cast<std::size_t>(m) * numFuClasses];
        int best = -1;
        double best_score = 0.0;
        for (int c = 0; c < clusters; ++c) {
            double score = 0.0;
            for (int k = 0; k < numFuClasses; ++k) {
                int fus = machine_.fuInCluster(
                    c, static_cast<FuClass>(k));
                int after =
                    load[static_cast<std::size_t>(c) * numFuClasses +
                         k] +
                    macro[k];
                if (after == 0)
                    continue;
                double pressure =
                    fus == 0 ? std::numeric_limits<double>::infinity()
                             : static_cast<double>(after) / fus;
                score = std::max(score, pressure);
            }
            bool better;
            if (best == -1) {
                better = true;
            } else if (score != best_score) {
                better = score < best_score;
            } else if (machine_.issueWidthOfCluster(c) !=
                       machine_.issueWidthOfCluster(best)) {
                better = machine_.issueWidthOfCluster(c) >
                         machine_.issueWidthOfCluster(best);
            } else {
                better = false; // keep the lower index
            }
            if (better) {
                best = c;
                best_score = score;
            }
        }
        for (int k = 0; k < numFuClasses; ++k) {
            load[static_cast<std::size_t>(best) * numFuClasses + k] +=
                macro[k];
        }
        for (NodeId v : coarsest.members[m])
            partition.assign(v, best);
    }
}

GpPartitionResult
GpPartitioner::run(const Ddg &ddg, int ii) const
{
    GPSCHED_ASSERT(ii >= 1, "partitioner needs II >= 1");
    const int clusters = machine_.numClusters();

    if (clusters == 1 || ddg.numNodes() == 0) {
        GpPartitionResult result{
            Partition(ddg.numNodes(), std::max(clusters, 1)), 0, {}};
        PartitionEstimator estimator(ddg, machine_, ii,
                                     options_.registerAware);
        result.estimate = estimator.evaluate(result.partition);
        result.iiBus = result.estimate.iiBus;
        return result;
    }

    // --- 1. edge weights at the input II -----------------------------
    // Heterogeneous bus fabrics weight cut edges by the expected
    // (capacity-weighted mean) bus latency, matching the estimator's
    // communication model; a single-class fabric reduces to exactly
    // that class's latency.
    std::vector<std::int64_t> weights =
        computeEdgeWeights(ddg, machine_.latencies(), ii,
                           machine_.expectedBusLatency(),
                           options_.edgeWeights);

    // --- 2. coarsen ---------------------------------------------------
    Rng rng(kCoarsenSeed);
    std::optional<CoarseningHierarchy> hierarchyStorage;
    {
        GPSCHED_PHASE_SPAN(Coarsen);
        hierarchyStorage.emplace(ddg, weights, clusters,
                                 options_.matching, rng);
    }
    const CoarseningHierarchy &hierarchy = *hierarchyStorage;

    // --- 3. initial assignment ----------------------------------------
    const CoarseLevel &coarsest = hierarchy.coarsest();
    Partition partition(ddg.numNodes(), clusters);
    {
        GPSCHED_PHASE_SPAN(InitialPartition);
        std::vector<int> order(coarsest.numNodes());
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(), [&](int x, int y) {
            auto sx = coarsest.members[x].size();
            auto sy = coarsest.members[y].size();
            if (sx != sy)
                return sx > sy;
            return x < y;
        });
        // Homogeneous machines take the legacy round-robin path
        // (heaviest macro-nodes first, clusters in descending
        // issue-width order): capacity balancing has nothing to
        // balance when every cluster is identical, and forcing the
        // branch — rather than trusting the greedy rule to tie-break
        // the same way — is what *enforces* the bit-identical
        // Table-1 parity guarantee. Do not remove this short-circuit
        // as "redundant": the greedy rule can legitimately stack
        // disjoint-class macro-nodes where round-robin would
        // separate them.
        if (machine_.homogeneous()) {
            std::vector<int> cluster_order(clusters);
            std::iota(cluster_order.begin(), cluster_order.end(), 0);
            std::stable_sort(
                cluster_order.begin(), cluster_order.end(),
                [&](int a, int b) {
                    return machine_.issueWidthOfCluster(a) >
                           machine_.issueWidthOfCluster(b);
                });
            for (std::size_t i = 0; i < order.size(); ++i) {
                int cluster = cluster_order[i % clusters];
                for (NodeId v : coarsest.members[order[i]])
                    partition.assign(v, cluster);
            }
        } else {
            assignCapacityBalanced(ddg, coarsest, order, partition);
        }
    }

    // --- 4. refine coarsest -> finest ---------------------------------
    {
        GPSCHED_PHASE_SPAN(Refine);
        PartitionRefiner refiner(ddg, machine_, ii, weights,
                                 options_.registerAware);
        const auto &levels = hierarchy.levels();
        for (auto it = levels.rbegin(); it != levels.rend(); ++it)
            refiner.refineLevel(*it, partition);
    }

    GpPartitionResult result{partition, 0, {}};
    PartitionEstimator estimator(ddg, machine_, ii,
                                 options_.registerAware);
    result.estimate = estimator.evaluate(partition);
    result.iiBus = result.estimate.iiBus;
    return result;
}

} // namespace gpsched
