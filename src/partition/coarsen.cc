#include "partition/coarsen.hh"

#include <algorithm>
#include <utility>

#include "support/logging.hh"

namespace gpsched
{

namespace
{

/** An undirected edge record awaiting pairwise combination. */
struct CombEdge
{
    int a;
    int b;
    std::int64_t w;
};

/**
 * Sums parallel edges: sorts @p comb by (a, b) and merges adjacent
 * runs. Output is in ascending (a, b) order — the same order the
 * std::map this replaces produced — and int64 addition over a run is
 * order-independent, so results are bit-identical to the map path.
 */
void
combineEdges(std::vector<CombEdge> &comb, std::vector<MatchEdge> &out)
{
    std::sort(comb.begin(), comb.end(),
              [](const CombEdge &x, const CombEdge &y) {
                  if (x.a != y.a)
                      return x.a < y.a;
                  return x.b < y.b;
              });
    for (std::size_t i = 0; i < comb.size();) {
        std::int64_t w = comb[i].w;
        std::size_t j = i + 1;
        while (j < comb.size() && comb[j].a == comb[i].a &&
               comb[j].b == comb[i].b) {
            w += comb[j].w;
            ++j;
        }
        out.push_back(MatchEdge{comb[i].a, comb[i].b, w});
        i = j;
    }
}

} // namespace

CoarseLevel
CoarseningHierarchy::buildFinestLevel(
    const Ddg &ddg, const std::vector<std::int64_t> &edge_weights)
{
    CoarseLevel level;
    const int n = ddg.numNodes();
    level.members.resize(n);
    level.coarseOf.resize(n);
    for (NodeId v = 0; v < n; ++v) {
        level.members[v] = {v};
        level.coarseOf[v] = v;
    }

    std::vector<CombEdge> comb;
    comb.reserve(ddg.numEdges());
    for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
        const auto &edge = ddg.edge(e);
        if (edge.src == edge.dst)
            continue; // self recurrences cannot be cut
        int lo = std::min<int>(edge.src, edge.dst);
        int hi = std::max<int>(edge.src, edge.dst);
        comb.push_back(CombEdge{lo, hi, edge_weights[e]});
    }
    combineEdges(comb, level.edges);
    return level;
}

CoarseLevel
CoarseningHierarchy::contract(const CoarseLevel &level,
                              const std::vector<int> &pair_of)
{
    const int n = level.numNodes();
    // Assign new ids: matched pairs share one id; the lower index of
    // the pair visits first and claims the id.
    std::vector<int> newId(n, -1);
    int next = 0;
    for (int v = 0; v < n; ++v) {
        if (newId[v] != -1)
            continue;
        newId[v] = next;
        if (pair_of[v] != -1) {
            GPSCHED_ASSERT(newId[pair_of[v]] == -1,
                           "matching is not a matching");
            newId[pair_of[v]] = next;
        }
        ++next;
    }

    CoarseLevel out;
    out.members.resize(next);
    // Size each bucket up front: a merged pair otherwise grows its
    // bucket twice (allocate-copy-free per contract level adds up on
    // the compile hot path).
    std::vector<std::size_t> bucketSize(next, 0);
    for (int v = 0; v < n; ++v)
        bucketSize[newId[v]] += level.members[v].size();
    for (int m = 0; m < next; ++m)
        out.members[m].reserve(bucketSize[m]);
    for (int v = 0; v < n; ++v) {
        auto &bucket = out.members[newId[v]];
        bucket.insert(bucket.end(), level.members[v].begin(),
                      level.members[v].end());
    }
    out.coarseOf.resize(level.coarseOf.size());
    for (std::size_t orig = 0; orig < level.coarseOf.size(); ++orig)
        out.coarseOf[orig] = newId[level.coarseOf[orig]];

    std::vector<CombEdge> comb;
    comb.reserve(level.edges.size());
    for (const auto &e : level.edges) {
        int a = newId[e.a];
        int b = newId[e.b];
        if (a == b)
            continue; // became internal
        comb.push_back(
            CombEdge{std::min(a, b), std::max(a, b), e.weight});
    }
    combineEdges(comb, out.edges);
    return out;
}

CoarseningHierarchy::CoarseningHierarchy(
    const Ddg &ddg, const std::vector<std::int64_t> &edge_weights,
    int target_nodes, MatchingPolicy policy, Rng &rng)
{
    GPSCHED_ASSERT(static_cast<int>(edge_weights.size()) ==
                       ddg.numEdges(),
                   "edge weight vector size mismatch");
    GPSCHED_ASSERT(target_nodes >= 1, "bad coarsening target");

    levels_.push_back(buildFinestLevel(ddg, edge_weights));

    while (levels_.back().numNodes() > target_nodes) {
        const CoarseLevel &level = levels_.back();
        const int n = level.numNodes();

        std::vector<int> picked =
            computeMatching(n, level.edges, policy, rng);

        // Never shrink below the target: keep only the heaviest
        // excess edges.
        int excess = n - target_nodes;
        if (static_cast<int>(picked.size()) > excess) {
            std::sort(picked.begin(), picked.end(),
                      [&](int x, int y) {
                          if (level.edges[x].weight !=
                              level.edges[y].weight) {
                              return level.edges[x].weight >
                                     level.edges[y].weight;
                          }
                          return x < y;
                      });
            picked.resize(excess);
        }

        std::vector<int> pairOf(n, -1);
        for (int idx : picked) {
            pairOf[level.edges[idx].a] = level.edges[idx].b;
            pairOf[level.edges[idx].b] = level.edges[idx].a;
        }

        if (picked.empty()) {
            // Disconnected remainder: force-merge the two smallest
            // macro-nodes so coarsening always terminates.
            std::vector<int> bySize(n);
            for (int v = 0; v < n; ++v)
                bySize[v] = v;
            std::sort(bySize.begin(), bySize.end(), [&](int x, int y) {
                auto sx = level.members[x].size();
                auto sy = level.members[y].size();
                if (sx != sy)
                    return sx < sy;
                return x < y;
            });
            pairOf[bySize[0]] = bySize[1];
            pairOf[bySize[1]] = bySize[0];
        }

        levels_.push_back(contract(level, pairOf));
        GPSCHED_ASSERT(levels_.back().numNodes() <
                           levels_[levels_.size() - 2].numNodes(),
                       "coarsening made no progress");
    }
}

} // namespace gpsched
