/**
 * @file
 * Maximum-weight matching used by the coarsening phase.
 *
 * The paper computes maximum-weight matchings with LEDA, which is
 * closed source. Coarsening only needs *heavy* matchings (METIS uses
 * plain greedy heavy-edge matching), so the default policy here is
 * greedy-by-weight followed by a 2-augmentation local-search pass
 * that fixes the classic greedy mistakes (an edge blocking two
 * heavier neighbors). A random maximal policy exists for the
 * matching ablation bench.
 */

#ifndef GPSCHED_PARTITION_MATCHING_HH
#define GPSCHED_PARTITION_MATCHING_HH

#include <cstdint>
#include <vector>

#include "support/random.hh"

namespace gpsched
{

/** Undirected weighted edge between coarse-graph vertices. */
struct MatchEdge
{
    int a = 0;
    int b = 0;
    std::int64_t weight = 0;
};

/** Matching policies. */
enum class MatchingPolicy
{
    GreedyHeavy,   ///< greedy by weight + 2-augmentation (default)
    RandomMaximal, ///< random maximal matching (ablation baseline)
};

/**
 * Computes a matching over vertices [0, num_vertices). Returns the
 * indices into @p edges of the selected edges. Self loops are
 * ignored. Deterministic: ties break on (weight desc, index asc);
 * the RandomMaximal policy draws from @p rng.
 */
std::vector<int> computeMatching(int num_vertices,
                                 const std::vector<MatchEdge> &edges,
                                 MatchingPolicy policy, Rng &rng);

} // namespace gpsched

#endif // GPSCHED_PARTITION_MATCHING_HH
