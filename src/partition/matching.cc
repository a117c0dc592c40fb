#include "partition/matching.hh"

#include <algorithm>
#include <numeric>

#include "support/logging.hh"

namespace gpsched
{

namespace
{

/** Validates edge endpoints. */
void
checkEdges(int num_vertices, const std::vector<MatchEdge> &edges)
{
    for (const auto &e : edges) {
        GPSCHED_ASSERT(e.a >= 0 && e.a < num_vertices &&
                           e.b >= 0 && e.b < num_vertices,
                       "matching edge endpoint out of range");
        GPSCHED_ASSERT(e.weight >= 0, "negative matching weight");
    }
}

/**
 * Greedy heavy-edge matching: scan edges by decreasing weight and
 * take every edge whose endpoints are still free.
 */
std::vector<int>
greedyMatching(int num_vertices, const std::vector<MatchEdge> &edges)
{
    std::vector<int> order(edges.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int x, int y) {
        if (edges[x].weight != edges[y].weight)
            return edges[x].weight > edges[y].weight;
        return x < y;
    });

    std::vector<bool> used(num_vertices, false);
    std::vector<int> picked;
    for (int idx : order) {
        const auto &e = edges[idx];
        if (e.a == e.b || used[e.a] || used[e.b])
            continue;
        used[e.a] = used[e.b] = true;
        picked.push_back(idx);
    }
    return picked;
}

/**
 * One 2-augmentation pass: for each selected edge, check whether
 * dropping it and adding two currently-blocked edges (one per freed
 * endpoint) increases total weight. Repeats until no improvement.
 */
void
augmentPairs(int num_vertices, const std::vector<MatchEdge> &edges,
             std::vector<int> &picked)
{
    // Adjacency, flattened: vertex v's candidate edge indices, in
    // ascending order, are adjEdges[adjStart[v] .. adjStart[v + 1]).
    // Three buffers instead of one growing vector per vertex.
    std::vector<int> adjStart(num_vertices + 1, 0);
    for (const auto &e : edges) {
        if (e.a != e.b) {
            ++adjStart[e.a + 1];
            ++adjStart[e.b + 1];
        }
    }
    std::partial_sum(adjStart.begin(), adjStart.end(),
                     adjStart.begin());
    std::vector<int> adjEdges(adjStart.back());
    std::vector<int> adjFill(adjStart.begin(), adjStart.end() - 1);
    for (std::size_t i = 0; i < edges.size(); ++i) {
        if (edges[i].a != edges[i].b) {
            adjEdges[adjFill[edges[i].a]++] = static_cast<int>(i);
            adjEdges[adjFill[edges[i].b]++] = static_cast<int>(i);
        }
    }

    auto rebuildUsed = [&](std::vector<int> &matchedEdgeOf) {
        matchedEdgeOf.assign(num_vertices, -1);
        for (int idx : picked) {
            matchedEdgeOf[edges[idx].a] = idx;
            matchedEdgeOf[edges[idx].b] = idx;
        }
    };

    std::vector<int> matchedEdgeOf;
    rebuildUsed(matchedEdgeOf);

    bool improved = true;
    int guard = 0;
    while (improved && guard++ < 64) {
        improved = false;
        for (std::size_t p = 0; p < picked.size(); ++p) {
            int dropIdx = picked[p];
            const auto &drop = edges[dropIdx];
            // Best replacement edge per freed endpoint, not touching
            // the other endpoint and with both other ends free.
            auto bestAt = [&](int vertex, int avoid) {
                int best = -1;
                for (int k = adjStart[vertex]; k < adjStart[vertex + 1];
                     ++k) {
                    const int cand = adjEdges[k];
                    if (cand == dropIdx)
                        continue;
                    const auto &ce = edges[cand];
                    int other = ce.a == vertex ? ce.b : ce.a;
                    if (other == avoid)
                        continue;
                    if (matchedEdgeOf[other] != -1 &&
                        matchedEdgeOf[other] != dropIdx) {
                        continue;
                    }
                    if (other == drop.a || other == drop.b)
                        continue;
                    if (best == -1 ||
                        ce.weight > edges[best].weight) {
                        best = cand;
                    }
                }
                return best;
            };
            int repA = bestAt(drop.a, drop.b);
            int repB = bestAt(drop.b, drop.a);
            std::int64_t gain = -drop.weight;
            if (repA != -1)
                gain += edges[repA].weight;
            if (repB != -1 && repB != repA)
                gain += edges[repB].weight;
            if (repA != -1 && repB != -1 && repA != repB) {
                // Both replacements must not collide on a vertex.
                const auto &ra = edges[repA];
                const auto &rb = edges[repB];
                int otherA = ra.a == drop.a ? ra.b : ra.a;
                int otherB = rb.a == drop.b ? rb.b : rb.a;
                if (otherA == otherB)
                    continue;
            }
            if (gain > 0 && (repA != -1 || repB != -1) &&
                repA != repB) {
                picked.erase(picked.begin() +
                             static_cast<std::ptrdiff_t>(p));
                if (repA != -1)
                    picked.push_back(repA);
                if (repB != -1)
                    picked.push_back(repB);
                rebuildUsed(matchedEdgeOf);
                improved = true;
                break;
            }
        }
    }
}

/** Random maximal matching for the ablation bench. */
std::vector<int>
randomMaximalMatching(int num_vertices,
                      const std::vector<MatchEdge> &edges, Rng &rng)
{
    std::vector<int> order(edges.size());
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);

    std::vector<bool> used(num_vertices, false);
    std::vector<int> picked;
    for (int idx : order) {
        const auto &e = edges[idx];
        if (e.a == e.b || used[e.a] || used[e.b])
            continue;
        used[e.a] = used[e.b] = true;
        picked.push_back(idx);
    }
    return picked;
}

} // namespace

std::vector<int>
computeMatching(int num_vertices, const std::vector<MatchEdge> &edges,
                MatchingPolicy policy, Rng &rng)
{
    checkEdges(num_vertices, edges);
    switch (policy) {
      case MatchingPolicy::GreedyHeavy: {
        auto picked = greedyMatching(num_vertices, edges);
        augmentPairs(num_vertices, edges, picked);
        return picked;
      }
      case MatchingPolicy::RandomMaximal:
        return randomMaximalMatching(num_vertices, edges, rng);
      default:
        GPSCHED_PANIC("bad matching policy");
    }
}

} // namespace gpsched
