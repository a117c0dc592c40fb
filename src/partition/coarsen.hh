/**
 * @file
 * Multilevel coarsening (paper Section 3.2.1 / background 2.1.2).
 *
 * The DDG is viewed as an undirected weighted graph; parallel and
 * opposite edges between the same node pair combine by summing
 * weights. Each coarsening step computes a (maximum-weight) matching
 * and fuses matched pairs into macro-nodes until as many nodes
 * remain as the architecture has clusters. Every level remembers
 * which original nodes each macro-node contains, so refinement can
 * move macro-nodes by reassigning their members in a Partition over
 * the original graph.
 */

#ifndef GPSCHED_PARTITION_COARSEN_HH
#define GPSCHED_PARTITION_COARSEN_HH

#include <cstdint>
#include <vector>

#include "graph/ddg.hh"
#include "partition/matching.hh"
#include "support/random.hh"

namespace gpsched
{

/** One level of the coarsening hierarchy. */
struct CoarseLevel
{
    /** Original node ids contained in each macro-node. */
    std::vector<std::vector<NodeId>> members;

    /** Macro-node of each original node at this level. */
    std::vector<int> coarseOf;

    /** Combined undirected edges between macro-nodes. */
    std::vector<MatchEdge> edges;

    /** Number of macro-nodes. */
    int numNodes() const
    {
        return static_cast<int>(members.size());
    }
};

/** Finest-to-coarsest hierarchy of macro-node graphs. */
class CoarseningHierarchy
{
  public:
    /**
     * Coarsens @p ddg until at most @p target_nodes macro-nodes
     * remain (or no further reduction is possible, which cannot
     * happen because unconnected nodes are force-merged).
     *
     * @param edge_weights per-original-edge weight (Section 3.2.1)
     * @param policy matching policy for each step
     * @param rng randomness source (RandomMaximal policy only)
     */
    CoarseningHierarchy(const Ddg &ddg,
                        const std::vector<std::int64_t> &edge_weights,
                        int target_nodes, MatchingPolicy policy,
                        Rng &rng);

    /** levels()[0] is the original graph; back() is the coarsest. */
    const std::vector<CoarseLevel> &levels() const { return levels_; }

    /** Coarsest level (used for the initial partition). */
    const CoarseLevel &coarsest() const { return levels_.back(); }

  private:
    std::vector<CoarseLevel> levels_;

    static CoarseLevel buildFinestLevel(
        const Ddg &ddg, const std::vector<std::int64_t> &edge_weights);
    static CoarseLevel contract(const CoarseLevel &level,
                                const std::vector<int> &pair_of);
};

} // namespace gpsched

#endif // GPSCHED_PARTITION_COARSEN_HH
