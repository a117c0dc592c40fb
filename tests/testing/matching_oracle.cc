#include "testing/matching_oracle.hh"

#include <functional>

#include "support/logging.hh"

namespace gpsched::testing
{

std::vector<int>
exactMaxWeightMatching(int num_vertices,
                       const std::vector<MatchEdge> &edges)
{
    for (const MatchEdge &e : edges) {
        GPSCHED_ASSERT(e.a >= 0 && e.a < num_vertices && e.b >= 0 &&
                           e.b < num_vertices && e.weight >= 0,
                       "bad matching edge");
    }
    GPSCHED_ASSERT(num_vertices <= 24,
                   "exact matching is exponential; vertex count ",
                   num_vertices, " too large");

    std::vector<int> best;
    std::int64_t bestWeight = 0;
    std::vector<int> current;

    // Depth-first over edges; prune on remaining optimistic weight.
    std::vector<std::int64_t> suffixMax(edges.size() + 1, 0);
    for (int i = static_cast<int>(edges.size()) - 1; i >= 0; --i)
        suffixMax[i] = suffixMax[i + 1] + edges[i].weight;

    std::vector<bool> used(num_vertices, false);
    std::int64_t currentWeight = 0;

    std::function<void(std::size_t)> visit = [&](std::size_t i) {
        if (currentWeight > bestWeight ||
            (currentWeight == bestWeight &&
             current.size() > best.size())) {
            bestWeight = currentWeight;
            best = current;
        }
        if (i >= edges.size())
            return;
        if (currentWeight + suffixMax[i] < bestWeight)
            return;
        const auto &e = edges[i];
        if (e.a != e.b && !used[e.a] && !used[e.b]) {
            used[e.a] = used[e.b] = true;
            current.push_back(static_cast<int>(i));
            currentWeight += e.weight;
            visit(i + 1);
            currentWeight -= e.weight;
            current.pop_back();
            used[e.a] = used[e.b] = false;
        }
        visit(i + 1);
    };
    visit(0);
    return best;
}

std::int64_t
matchingWeight(const std::vector<MatchEdge> &edges,
               const std::vector<int> &matching)
{
    std::int64_t total = 0;
    for (int idx : matching) {
        GPSCHED_ASSERT(idx >= 0 &&
                           idx < static_cast<int>(edges.size()),
                       "bad matching index");
        total += edges[idx].weight;
    }
    return total;
}

} // namespace gpsched::testing
