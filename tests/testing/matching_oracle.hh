/**
 * @file
 * Reference matching for the coarsening tests: an exact maximum-weight
 * matching that bounds the greedy heuristic's gap.
 */

#ifndef GPSCHED_TESTS_TESTING_MATCHING_ORACLE_HH
#define GPSCHED_TESTS_TESTING_MATCHING_ORACLE_HH

#include <cstdint>
#include <vector>

#include "partition/matching.hh"

namespace gpsched::testing
{

/**
 * Exact maximum-weight matching by branch and bound; exponential,
 * for graphs with <= ~20 vertices. Returns selected edge indices.
 */
std::vector<int>
exactMaxWeightMatching(int num_vertices,
                       const std::vector<MatchEdge> &edges);

/** Sum of weights of the edges selected by @p matching. */
std::int64_t matchingWeight(const std::vector<MatchEdge> &edges,
                            const std::vector<int> &matching);

} // namespace gpsched::testing

#endif // GPSCHED_TESTS_TESTING_MATCHING_ORACLE_HH
