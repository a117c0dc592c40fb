#include "sched/sms_order.hh"

#include <algorithm>
#include <set>

#include "graph/scc.hh"
#include "support/logging.hh"

namespace gpsched
{

namespace
{

/** RecMII of one recurrence component, via subgraph extraction. */
int
componentRecMii(const Ddg &ddg, const std::vector<NodeId> &comp,
                const std::vector<int> &component_of, int cid)
{
    Ddg sub("scc");
    std::vector<NodeId> localOf(ddg.numNodes(), invalidNode);
    for (NodeId v : comp)
        localOf[v] = sub.addNode(ddg.node(v).opcode);
    for (NodeId v : comp) {
        for (EdgeId e : ddg.outEdges(v)) {
            const auto &edge = ddg.edge(e);
            if (component_of[edge.dst] == cid) {
                sub.addEdge(localOf[edge.src], localOf[edge.dst],
                            edge.latency, edge.distance, edge.kind);
            }
        }
    }
    return recMii(sub);
}

/** Nodes reachable from @p from (forward=true) or reaching it. */
std::vector<bool>
reachability(const Ddg &ddg, const std::vector<bool> &from,
             bool forward)
{
    std::vector<bool> seen = from;
    std::vector<NodeId> work;
    for (NodeId v = 0; v < ddg.numNodes(); ++v) {
        if (seen[v])
            work.push_back(v);
    }
    while (!work.empty()) {
        NodeId v = work.back();
        work.pop_back();
        const auto &edges = forward ? ddg.outEdges(v)
                                    : ddg.inEdges(v);
        for (EdgeId e : edges) {
            NodeId next = forward ? ddg.edge(e).dst : ddg.edge(e).src;
            if (!seen[next]) {
                seen[next] = true;
                work.push_back(next);
            }
        }
    }
    return seen;
}

} // namespace

SmsNodeSets
computeSmsNodeSets(const Ddg &ddg)
{
    const int n = ddg.numNodes();
    SmsNodeSets result;
    if (n == 0)
        return result;

    const SccDecomposition &sccs = ddg.sccs();

    // --- build the priority-ordered list of node sets -----------------
    struct NodeSet
    {
        std::vector<NodeId> nodes;
        int priority = 0; // recurrence RecMII; 0 for the residue set
    };
    std::vector<NodeSet> sets;
    for (int c = 0; c < sccs.numComponents(); ++c) {
        if (!sccs.isRecurrence[c])
            continue;
        NodeSet set;
        set.nodes = sccs.components[c];
        set.priority =
            componentRecMii(ddg, set.nodes, sccs.componentOf, c);
        sets.push_back(std::move(set));
    }
    std::sort(sets.begin(), sets.end(),
              [](const NodeSet &a, const NodeSet &b) {
                  if (a.priority != b.priority)
                      return a.priority > b.priority;
                  return a.nodes[0] < b.nodes[0];
              });

    // SMS set augmentation: each recurrence set also absorbs the
    // nodes on paths between the union of the previous sets and
    // itself, so intermediate chains are ordered adjacent to both
    // anchors instead of being left for a one-sided residue sweep.
    {
        std::vector<bool> assigned(n, false);
        std::vector<bool> prev(n, false);
        for (NodeSet &set : sets) {
            std::vector<bool> self(n, false);
            for (NodeId v : set.nodes)
                self[v] = true;
            std::vector<bool> from_prev = reachability(ddg, prev, true);
            std::vector<bool> to_self = reachability(ddg, self, false);
            std::vector<bool> from_self = reachability(ddg, self, true);
            std::vector<bool> to_prev = reachability(ddg, prev, false);
            std::vector<NodeId> augmented;
            for (NodeId v = 0; v < n; ++v) {
                bool between = (from_prev[v] && to_self[v]) ||
                               (from_self[v] && to_prev[v]);
                if ((self[v] || between) && !assigned[v])
                    augmented.push_back(v);
            }
            for (NodeId v : augmented) {
                assigned[v] = true;
                prev[v] = true;
            }
            set.nodes = std::move(augmented);
        }
        // Drop sets fully absorbed by earlier ones.
        sets.erase(std::remove_if(sets.begin(), sets.end(),
                                  [](const NodeSet &s) {
                                      return s.nodes.empty();
                                  }),
                   sets.end());
        NodeSet residue;
        for (NodeId v = 0; v < n; ++v) {
            if (!assigned[v])
                residue.nodes.push_back(v);
        }
        if (!residue.nodes.empty())
            sets.push_back(std::move(residue));
    }

    result.sets.reserve(sets.size());
    for (NodeSet &set : sets)
        result.sets.push_back(std::move(set.nodes));
    return result;
}

std::vector<NodeId>
smsOrder(const Ddg &ddg, const DdgAnalysis &analysis,
         const SmsNodeSets &node_sets)
{
    const int n = ddg.numNodes();
    std::vector<NodeId> order;
    if (n == 0)
        return order;
    order.reserve(n);

    // --- alternating sweep --------------------------------------------
    // The ready frontier is a membership bitmap plus a count: the
    // former std::set allocated a tree node per insert in the
    // innermost loop of every scheduling attempt. pick() scans ids in
    // ascending order, matching the set's iteration order, so the
    // chosen node (and thus the whole order) is unchanged.
    std::vector<bool> ordered(n, false);
    std::vector<bool> inCurrentSet(n, false);
    std::vector<bool> ready(n, false);
    int readyCount = 0;

    auto readyInsert = [&](NodeId v) {
        if (!ready[v]) {
            ready[v] = true;
            ++readyCount;
        }
    };
    auto readyErase = [&](NodeId v) {
        if (ready[v]) {
            ready[v] = false;
            --readyCount;
        }
    };

    // The frontier never leaves the current set, and sets are emitted
    // in ascending id order (asserted below), so the scan covers the
    // set's nodes only; the ascending order keeps tie-breaks exact.
    const std::vector<NodeId> *current_set = nullptr;
    auto pick = [&](bool top_down) {
        NodeId best = invalidNode;
        for (NodeId v : *current_set) {
            if (!ready[v])
                continue;
            if (best == invalidNode) {
                best = v;
                continue;
            }
            int pv = top_down ? analysis.height(v) : analysis.depth(v);
            int pb = top_down ? analysis.height(best)
                              : analysis.depth(best);
            if (pv != pb) {
                if (pv > pb)
                    best = v;
                continue;
            }
            if (analysis.mobility(v) != analysis.mobility(best)) {
                if (analysis.mobility(v) < analysis.mobility(best))
                    best = v;
                continue;
            }
            // the scan is ascending, so best stays the lower id
        }
        return best;
    };

    for (const std::vector<NodeId> &set_nodes : node_sets.sets) {
        current_set = &set_nodes;
        for (std::size_t i = 0; i < set_nodes.size(); ++i) {
            GPSCHED_ASSERT(i == 0 ||
                               set_nodes[i - 1] < set_nodes[i],
                           "SMS node set not ascending");
            inCurrentSet[set_nodes[i]] = true;
        }

        // Seeds the ready bitmap from connections to already-ordered
        // nodes; returns the number of seeds found.
        auto seedReady = [&](bool preds_of_ordered) {
            int found = 0;
            for (NodeId v : set_nodes) {
                if (ordered[v])
                    continue;
                const auto &edges = preds_of_ordered
                                        ? ddg.outEdges(v)
                                        : ddg.inEdges(v);
                for (EdgeId e : edges) {
                    NodeId other = preds_of_ordered ? ddg.edge(e).dst
                                                    : ddg.edge(e).src;
                    if (other != v && ordered[other]) {
                        readyInsert(v);
                        ++found;
                        break;
                    }
                }
            }
            return found;
        };

        std::size_t remaining = 0;
        for (NodeId v : set_nodes) {
            if (!ordered[v])
                ++remaining;
        }

        while (remaining > 0) {
            GPSCHED_ASSERT(readyCount == 0, "stale ready frontier");
            bool topDown;
            if (seedReady(false) > 0) {
                topDown = true;
            } else if (seedReady(true) > 0) {
                topDown = false;
            } else {
                // Disconnected from the ordered prefix: seed with the
                // most critical unordered node of the set.
                NodeId seed = invalidNode;
                for (NodeId v : set_nodes) {
                    if (ordered[v])
                        continue;
                    if (seed == invalidNode ||
                        analysis.asap(v) < analysis.asap(seed) ||
                        (analysis.asap(v) == analysis.asap(seed) &&
                         v < seed)) {
                        seed = v;
                    }
                }
                GPSCHED_ASSERT(seed != invalidNode, "no seed found");
                readyInsert(seed);
                topDown = true;
            }

            // Sweep in the chosen direction until the frontier dries
            // up, then flip direction (handled by the outer loop).
            while (readyCount > 0) {
                NodeId v = pick(topDown);
                readyErase(v);
                if (ordered[v])
                    continue;
                ordered[v] = true;
                order.push_back(v);
                --remaining;
                const auto &edges =
                    topDown ? ddg.outEdges(v) : ddg.inEdges(v);
                for (EdgeId e : edges) {
                    NodeId next = topDown ? ddg.edge(e).dst
                                          : ddg.edge(e).src;
                    if (next != v && !ordered[next] &&
                        inCurrentSet[next]) {
                        readyInsert(next);
                    }
                }
            }
        }

        for (NodeId v : set_nodes)
            inCurrentSet[v] = false;
    }

    GPSCHED_ASSERT(static_cast<int>(order.size()) == n,
                   "ordering missed nodes: ", order.size(), " of ", n);
    return order;
}

IiAnalysis
analyzeIi(const Ddg &ddg, const LatencyTable &latencies, int ii)
{
    IiAnalysis out;
    out.ii = ii;
    DdgAnalysis analysis(ddg, latencies, ii);
    out.feasible = analysis.feasible();
    if (!out.feasible)
        return out;
    out.scheduleLength = analysis.scheduleLength();
    out.asap.resize(ddg.numNodes());
    for (NodeId v = 0; v < ddg.numNodes(); ++v)
        out.asap[v] = analysis.asap(v);
    out.order = smsOrder(ddg, analysis, ddg.smsNodeSets());
    return out;
}

} // namespace gpsched
