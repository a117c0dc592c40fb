/**
 * @file
 * Unit tests for the maximum-weight matching heuristics (the LEDA
 * substitute): validity, determinism, quality against the exact
 * branch-and-bound solver, and maximality of the random policy.
 */

#include <gtest/gtest.h>

#include <set>

#include "partition/matching.hh"
#include "support/random.hh"
#include "testing/matching_oracle.hh"

using namespace gpsched;
using namespace gpsched::testing;

namespace
{

/** True when no two selected edges share an endpoint. */
bool
isValidMatching(const std::vector<MatchEdge> &edges,
                const std::vector<int> &selected)
{
    std::set<int> used;
    for (int i : selected) {
        const MatchEdge &e = edges[static_cast<std::size_t>(i)];
        if (e.a == e.b)
            return false;
        if (!used.insert(e.a).second || !used.insert(e.b).second)
            return false;
    }
    return true;
}

/** True when no unmatched edge could still be added. */
bool
isMaximal(int num_vertices, const std::vector<MatchEdge> &edges,
          const std::vector<int> &selected)
{
    std::vector<bool> used(num_vertices, false);
    for (int i : selected) {
        used[edges[static_cast<std::size_t>(i)].a] = true;
        used[edges[static_cast<std::size_t>(i)].b] = true;
    }
    for (const MatchEdge &e : edges) {
        if (e.a != e.b && !used[e.a] && !used[e.b])
            return false;
    }
    return true;
}

} // namespace

TEST(Matching, EmptyGraph)
{
    Rng rng(1);
    auto m = computeMatching(0, {}, MatchingPolicy::GreedyHeavy, rng);
    EXPECT_TRUE(m.empty());
}

TEST(Matching, SingleEdge)
{
    Rng rng(1);
    std::vector<MatchEdge> edges = {{0, 1, 5}};
    auto m =
        computeMatching(2, edges, MatchingPolicy::GreedyHeavy, rng);
    ASSERT_EQ(m.size(), 1u);
    EXPECT_EQ(m[0], 0);
}

TEST(Matching, SelfLoopsIgnored)
{
    Rng rng(1);
    std::vector<MatchEdge> edges = {{0, 0, 100}, {0, 1, 1}};
    auto m =
        computeMatching(2, edges, MatchingPolicy::GreedyHeavy, rng);
    ASSERT_EQ(m.size(), 1u);
    EXPECT_EQ(m[0], 1);
}

TEST(Matching, GreedyPicksHeavierOfConflicting)
{
    Rng rng(1);
    std::vector<MatchEdge> edges = {{0, 1, 3}, {1, 2, 9}};
    auto m =
        computeMatching(3, edges, MatchingPolicy::GreedyHeavy, rng);
    ASSERT_EQ(m.size(), 1u);
    EXPECT_EQ(m[0], 1);
    EXPECT_EQ(matchingWeight(edges, m), 9);
}

TEST(Matching, AugmentationFixesClassicGreedyTrap)
{
    // Path a-b-c-d with weights 5, 8, 5: plain greedy takes the 8
    // (total 8); the optimum takes both 5s (total 10). The local
    // search pass must recover it.
    Rng rng(1);
    std::vector<MatchEdge> edges = {{0, 1, 5}, {1, 2, 8}, {2, 3, 5}};
    auto m =
        computeMatching(4, edges, MatchingPolicy::GreedyHeavy, rng);
    EXPECT_EQ(matchingWeight(edges, m), 10);
    EXPECT_TRUE(isValidMatching(edges, m));
}

TEST(Matching, Deterministic)
{
    std::vector<MatchEdge> edges = {
        {0, 1, 4}, {1, 2, 4}, {2, 3, 4}, {3, 0, 4}, {0, 2, 4}};
    Rng rng1(7), rng2(99);
    auto m1 =
        computeMatching(4, edges, MatchingPolicy::GreedyHeavy, rng1);
    auto m2 =
        computeMatching(4, edges, MatchingPolicy::GreedyHeavy, rng2);
    EXPECT_EQ(m1, m2); // greedy ignores the RNG entirely
}

TEST(Matching, ExactSolverSmallCases)
{
    // Triangle: best single edge wins.
    std::vector<MatchEdge> tri = {{0, 1, 2}, {1, 2, 3}, {0, 2, 4}};
    auto m = exactMaxWeightMatching(3, tri);
    EXPECT_EQ(matchingWeight(tri, m), 4);

    // Square with diagonal: 7+6 beats any single edge.
    std::vector<MatchEdge> sq = {
        {0, 1, 7}, {1, 2, 1}, {2, 3, 6}, {3, 0, 2}, {0, 2, 9}};
    auto ms = exactMaxWeightMatching(4, sq);
    EXPECT_EQ(matchingWeight(sq, ms), 13);
}

TEST(Matching, RandomMaximalIsMaximalAndValid)
{
    Rng rng(42);
    std::vector<MatchEdge> edges;
    for (int a = 0; a < 8; ++a) {
        for (int b = a + 1; b < 8; ++b)
            edges.push_back({a, b, (a * 7 + b) % 5 + 1});
    }
    for (int trial = 0; trial < 10; ++trial) {
        auto m = computeMatching(8, edges,
                                 MatchingPolicy::RandomMaximal, rng);
        EXPECT_TRUE(isValidMatching(edges, m));
        EXPECT_TRUE(isMaximal(8, edges, m));
    }
}

// Property sweep: on random graphs the greedy+augment matching is
// valid, maximal, and within 25% of the exact optimum (plain greedy
// guarantees 1/2; local search does better in practice).
class MatchingQuality : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MatchingQuality, NearOptimalOnRandomGraphs)
{
    Rng rng(GetParam());
    const int n = 10;
    std::vector<MatchEdge> edges;
    for (int a = 0; a < n; ++a) {
        for (int b = a + 1; b < n; ++b) {
            if (rng.nextBool(0.4)) {
                edges.push_back(
                    {a, b,
                     static_cast<std::int64_t>(rng.nextRange(1, 50))});
            }
        }
    }
    Rng policy_rng(1);
    auto greedy = computeMatching(
        n, edges, MatchingPolicy::GreedyHeavy, policy_rng);
    EXPECT_TRUE(isValidMatching(edges, greedy));
    EXPECT_TRUE(isMaximal(n, edges, greedy));

    auto exact = exactMaxWeightMatching(n, edges);
    std::int64_t gw = matchingWeight(edges, greedy);
    std::int64_t ew = matchingWeight(edges, exact);
    EXPECT_LE(gw, ew);
    EXPECT_GE(4 * gw, 3 * ew) << "greedy " << gw << " vs exact " << ew;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchingQuality,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u));
