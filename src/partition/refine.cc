#include "partition/refine.hh"

#include <algorithm>

#include "support/logging.hh"

namespace gpsched
{

namespace
{

/** Exact estimator evaluations per edge-impact round: the static
 *  gain proxy pre-ranks candidates, and only this many are costed. */
constexpr int kPrescanTopK = 3;

/** A candidate refinement change: a single move or a pair swap. */
struct Change
{
    int macroA = -1;
    int destA = -1;   ///< cluster macroA moves to
    int macroB = -1;  ///< -1 for single moves
    int destB = -1;   ///< cluster macroB moves to (swaps only)
    std::int64_t staticGain = 0;
};

} // namespace

PartitionRefiner::PartitionRefiner(
    const Ddg &ddg, const MachineConfig &machine, int ii,
    const std::vector<std::int64_t> &static_weights,
    bool register_aware)
    : ddg_(ddg), machine_(machine), ii_(ii),
      staticWeights_(static_weights),
      estimator_(ddg, machine, ii, register_aware)
{
    GPSCHED_ASSERT(static_cast<int>(static_weights.size()) ==
                       ddg.numEdges(),
                   "static weight vector size mismatch");
}

void
PartitionRefiner::computeMacroOccupancy(const CoarseLevel &level) const
{
    const LatencyTable &lat = machine_.latencies();
    macroOcc_.assign(
        static_cast<std::size_t>(level.numNodes()) * numFuClasses, 0);
    for (int m = 0; m < level.numNodes(); ++m) {
        for (NodeId v : level.members[m]) {
            Opcode op = ddg_.node(v).opcode;
            macroOcc_[static_cast<std::size_t>(m) * numFuClasses +
                      static_cast<int>(fuClassOf(op))] +=
                lat.occupancy(op);
        }
    }
}

void
PartitionRefiner::computeClusterOccupancy(
    const Partition &partition) const
{
    const LatencyTable &lat = machine_.latencies();
    clusterOcc_.assign(static_cast<std::size_t>(
                           machine_.numClusters()) *
                           numFuClasses,
                       0);
    for (NodeId v = 0; v < ddg_.numNodes(); ++v) {
        Opcode op = ddg_.node(v).opcode;
        clusterOcc_[static_cast<std::size_t>(
                        partition.clusterOf(v)) *
                        numFuClasses +
                    static_cast<int>(fuClassOf(op))] +=
            lat.occupancy(op);
    }
}

int
PartitionRefiner::macroCluster(const CoarseLevel &level, int macro,
                               const Partition &partition) const
{
    // O(1) by invariant: every member of a macro-node shares one
    // cluster (moveMacro moves them together). The full straddle
    // check runs once per level in refineLevel — this accessor is
    // called per candidate inside the refinement loops, where the
    // old every-member verification walk dominated the profile.
    GPSCHED_ASSERT(!level.members[macro].empty(), "empty macro-node");
    return partition.clusterOf(level.members[macro][0]);
}

void
PartitionRefiner::moveMacro(const CoarseLevel &level, int macro,
                            int cluster, Partition &partition) const
{
    for (NodeId v : level.members[macro])
        partition.assign(v, cluster);
}

std::int64_t
PartitionRefiner::staticGain(const CoarseLevel &level, int macro,
                             int dest,
                             const Partition &partition) const
{
    // Gain = cut weight that becomes internal (edges to dest) minus
    // internal weight that becomes cut (edges within the source
    // cluster but outside the macro-node).
    int src = macroCluster(level, macro, partition);
    std::int64_t gain = 0;
    for (NodeId v : level.members[macro]) {
        auto scanEdge = [&](EdgeId e, NodeId other) {
            if (level.coarseOf[other] == macro)
                return; // internal to the macro-node
            int otherCluster = partition.clusterOf(other);
            if (otherCluster == dest)
                gain += staticWeights_[e];
            else if (otherCluster == src)
                gain -= staticWeights_[e];
        };
        for (EdgeId e : ddg_.outEdges(v))
            scanEdge(e, ddg_.edge(e).dst);
        for (EdgeId e : ddg_.inEdges(v))
            scanEdge(e, ddg_.edge(e).src);
    }
    return gain;
}

bool
PartitionRefiner::runBalancePass(const CoarseLevel &level,
                                 Partition &partition,
                                 int &budget) const
{
    const int clusters = machine_.numClusters();

    // (cluster, class) occupancy bookkeeping.
    computeClusterOccupancy(partition);
    int *const occ = clusterOcc_.data();
    auto slots = [&](int c, int k) {
        return machine_.fuInCluster(c, static_cast<FuClass>(k)) * ii_;
    };

    bool changedAny = false;
    std::vector<bool> considered(numFuClasses, false);
    int guard = 4 * level.numNodes() + 16;

    while (budget > 0 && guard-- > 0) {
        // Most saturated overloaded (cluster, class).
        int bestC = -1, bestK = -1;
        double bestRatio = 1.0;
        for (int c = 0; c < clusters; ++c) {
            for (int k = 0; k < numFuClasses; ++k) {
                int s = slots(c, k);
                // A class the cluster lacks entirely is infinitely
                // saturated the moment anything is assigned to it.
                int o = occ[c * numFuClasses + k];
                double ratio =
                    s == 0 ? (o > 0 ? 1e9 : 0.0)
                           : static_cast<double>(o) /
                                 static_cast<double>(s);
                if (ratio > bestRatio) {
                    bestRatio = ratio;
                    bestC = c;
                    bestK = k;
                }
            }
        }
        if (bestC == -1)
            break; // nothing overloaded

        considered[bestK] = true;
        FuClass cls = static_cast<FuClass>(bestK);

        // Best feasible movement of a macro-node using this resource
        // out of the overloaded cluster.
        int moveMacroIdx = -1, moveDest = -1;
        std::int64_t moveGain = 0;
        bool haveMove = false;
        for (int m = 0; m < level.numNodes(); ++m) {
            if (level.members[m].empty())
                continue;
            if (macroCluster(level, m, partition) != bestC)
                continue;
            int mocc = macroOccupancy(m, cls);
            if (mocc == 0)
                continue;
            for (int c2 = 0; c2 < clusters; ++c2) {
                if (c2 == bestC)
                    continue;
                // Must not overload this resource in c2, nor any
                // resource already considered (more critical).
                bool ok = occ[c2 * numFuClasses + bestK] + mocc <=
                          slots(c2, bestK);
                for (int k = 0; ok && k < numFuClasses; ++k) {
                    if (!considered[k] || k == bestK)
                        continue;
                    int mk = macroOccupancy(
                        m, static_cast<FuClass>(k));
                    ok = occ[c2 * numFuClasses + k] + mk <=
                         slots(c2, k);
                }
                if (!ok)
                    continue;
                std::int64_t gain =
                    staticGain(level, m, c2, partition);
                if (!haveMove || gain > moveGain) {
                    haveMove = true;
                    moveGain = gain;
                    moveMacroIdx = m;
                    moveDest = c2;
                }
            }
        }
        if (!haveMove)
            break; // wait for a finer level (paper Section 3.2.2)

        // Apply and update bookkeeping.
        for (int k = 0; k < numFuClasses; ++k) {
            int mk =
                macroOccupancy(moveMacroIdx, static_cast<FuClass>(k));
            occ[bestC * numFuClasses + k] -= mk;
            occ[moveDest * numFuClasses + k] += mk;
        }
        moveMacro(level, moveMacroIdx, moveDest, partition);
        changedAny = true;
        --budget;
    }
    return changedAny;
}

bool
PartitionRefiner::runEdgeImpactPass(const CoarseLevel &level,
                                    Partition &partition,
                                    int &budget) const
{
    const int clusters = machine_.numClusters();
    bool changedAny = false;

    PartitionEstimate current = estimator_.evaluate(partition);

    auto slotOf = [&](int c, int k) {
        return machine_.fuInCluster(c, static_cast<FuClass>(k)) * ii_;
    };

    // Occupancy table for feasibility tests: built once, then kept
    // in sync incrementally as changes are applied (rebuilding it —
    // and reallocating its rows — every round dominated this pass's
    // profile on large loops).
    computeClusterOccupancy(partition);
    int *const occ = clusterOcc_.data();
    auto applyToOcc = [&](int macro, int from, int to) {
        for (int k = 0; k < numFuClasses; ++k) {
            int mk = macroOccupancy(macro, static_cast<FuClass>(k));
            occ[from * numFuClasses + k] -= mk;
            occ[to * numFuClasses + k] += mk;
        }
    };

    std::vector<Change> candidates;
    std::vector<bool> isNeighbour(
        static_cast<std::size_t>(clusters), false);
    // Reused across rounds and candidates so each exact evaluation
    // assigns into existing capacity instead of allocating a copy.
    Partition trial(partition.numNodes(), partition.numClusters());

    while (budget > 0) {
        auto moveFits = [&](int macro, int from, int to) {
            for (int k = 0; k < numFuClasses; ++k) {
                int mk =
                    macroOccupancy(macro, static_cast<FuClass>(k));
                if (occ[to * numFuClasses + k] + mk > slotOf(to, k))
                    return false;
                (void)from;
            }
            return true;
        };
        auto swapFits = [&](int ma, int ca, int mb, int cb) {
            // ma: ca -> cb, mb: cb -> ca.
            for (int k = 0; k < numFuClasses; ++k) {
                FuClass cls = static_cast<FuClass>(k);
                int ak = macroOccupancy(ma, cls);
                int bk = macroOccupancy(mb, cls);
                if (occ[cb * numFuClasses + k] - bk + ak >
                    slotOf(cb, k))
                    return false;
                if (occ[ca * numFuClasses + k] - ak + bk >
                    slotOf(ca, k))
                    return false;
            }
            return true;
        };

        // Mutual edge weight between two macro-nodes (for swap gain).
        auto mutualWeight = [&](int ma, int mb) {
            std::int64_t w = 0;
            for (NodeId v : level.members[ma]) {
                for (EdgeId e : ddg_.outEdges(v)) {
                    if (level.coarseOf[ddg_.edge(e).dst] == mb)
                        w += staticWeights_[e];
                }
                for (EdgeId e : ddg_.inEdges(v)) {
                    if (level.coarseOf[ddg_.edge(e).src] == mb)
                        w += staticWeights_[e];
                }
            }
            return w;
        };

        candidates.clear();
        for (int m = 0; m < level.numNodes(); ++m) {
            if (level.members[m].empty())
                continue;
            int c1 = macroCluster(level, m, partition);

            // Neighbouring clusters of this macro-node (flag array
            // instead of a std::set: clusters are few and this runs
            // per macro per round).
            std::fill(isNeighbour.begin(), isNeighbour.end(), false);
            for (NodeId v : level.members[m]) {
                for (EdgeId e : ddg_.outEdges(v)) {
                    int c = partition.clusterOf(ddg_.edge(e).dst);
                    if (c != c1)
                        isNeighbour[c] = true;
                }
                for (EdgeId e : ddg_.inEdges(v)) {
                    int c = partition.clusterOf(ddg_.edge(e).src);
                    if (c != c1)
                        isNeighbour[c] = true;
                }
            }

            for (int c2 = 0; c2 < clusters; ++c2) {
                if (!isNeighbour[c2])
                    continue;
                if (moveFits(m, c1, c2)) {
                    std::int64_t gain =
                        staticGain(level, m, c2, partition);
                    if (gain > 0)
                        candidates.push_back(
                            Change{m, c2, -1, -1, gain});
                } else {
                    // Pairwise interchanges that free the capacity.
                    int considered = 0;
                    for (int u = 0;
                         u < level.numNodes() && considered < 8;
                         ++u) {
                        if (u == m || level.members[u].empty())
                            continue;
                        if (macroCluster(level, u, partition) != c2)
                            continue;
                        if (!swapFits(m, c1, u, c2))
                            continue;
                        ++considered;
                        std::int64_t gain =
                            staticGain(level, m, c2, partition) +
                            staticGain(level, u, c1, partition) -
                            2 * mutualWeight(m, u);
                        if (gain > 0)
                            candidates.push_back(
                                Change{m, c2, u, c1, gain});
                    }
                }
            }
        }
        if (candidates.empty())
            break;

        // Pre-rank by the static proxy; evaluate only the top K
        // exactly.
        std::sort(candidates.begin(), candidates.end(),
                  [](const Change &x, const Change &y) {
                      if (x.staticGain != y.staticGain)
                          return x.staticGain > y.staticGain;
                      if (x.macroA != y.macroA)
                          return x.macroA < y.macroA;
                      return x.macroB < y.macroB;
                  });
        if (static_cast<int>(candidates.size()) > kPrescanTopK)
            candidates.resize(kPrescanTopK);

        bool haveBest = false;
        Change bestChange;
        PartitionEstimate bestEst;
        for (const Change &cand : candidates) {
            trial = partition;
            moveMacro(level, cand.macroA, cand.destA, trial);
            if (cand.macroB != -1)
                moveMacro(level, cand.macroB, cand.destB, trial);
            PartitionEstimate est = estimator_.evaluate(trial);
            // Largest execution-time benefit; tie-breaks: larger cut
            // slack, then fewer cut edges (paper Section 3.2.2).
            bool better = false;
            if (!haveBest) {
                better = true;
            } else if (est.execTime != bestEst.execTime) {
                better = est.execTime < bestEst.execTime;
            } else if (est.cutSlackTotal != bestEst.cutSlackTotal) {
                better = est.cutSlackTotal > bestEst.cutSlackTotal;
            } else if (est.cutEdges != bestEst.cutEdges) {
                better = est.cutEdges < bestEst.cutEdges;
            } else if (!machine_.homogeneous()) {
                // Heterogeneity-aware final tie-break: prefer the
                // change that leaves the most pressured (cluster, FU
                // class) least loaded. Never consulted on homogeneous
                // machines, keeping Table-1 output bit-identical.
                better = est.peakUtilPermille <
                         bestEst.peakUtilPermille;
            }
            if (better) {
                haveBest = true;
                bestChange = cand;
                bestEst = est;
            }
        }

        if (!haveBest || bestEst.execTime >= current.execTime)
            break; // no positive benefit remains

        applyToOcc(bestChange.macroA,
                   macroCluster(level, bestChange.macroA, partition),
                   bestChange.destA);
        moveMacro(level, bestChange.macroA, bestChange.destA,
                  partition);
        if (bestChange.macroB != -1) {
            applyToOcc(bestChange.macroB,
                       macroCluster(level, bestChange.macroB,
                                    partition),
                       bestChange.destB);
            moveMacro(level, bestChange.macroB, bestChange.destB,
                      partition);
        }
        current = bestEst;
        changedAny = true;
        --budget;
    }
    return changedAny;
}

void
PartitionRefiner::refineLevel(const CoarseLevel &level,
                              Partition &partition) const
{
    // Per-level straddle verification (once; macroCluster relies on
    // it holding throughout the level).
    for (int m = 0; m < level.numNodes(); ++m) {
        if (level.members[m].empty())
            continue;
        int cluster = partition.clusterOf(level.members[m][0]);
        for (NodeId v : level.members[m]) {
            GPSCHED_ASSERT(partition.clusterOf(v) == cluster,
                           "macro-node straddles clusters");
        }
    }
    computeMacroOccupancy(level);
    // Cap on applied changes per level, shared by both passes.
    int budget = 2 * level.numNodes() + 8;
    runBalancePass(level, partition, budget);
    runEdgeImpactPass(level, partition, budget);
}

} // namespace gpsched
