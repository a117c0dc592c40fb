#include "graph/scc.hh"

#include <algorithm>

#include "support/logging.hh"

namespace gpsched
{

namespace
{

/** Iterative Tarjan state for one node. */
struct Frame
{
    NodeId node;
    std::size_t edgeIdx;
};

} // namespace

SccDecomposition
computeSccs(const Ddg &ddg)
{
    const int n = ddg.numNodes();
    SccDecomposition out;
    out.componentOf.assign(n, -1);

    std::vector<int> index(n, -1);
    std::vector<int> lowlink(n, 0);
    std::vector<bool> onStack(n, false);
    std::vector<NodeId> stack;
    stack.reserve(n);
    int nextIndex = 0;

    std::vector<Frame> callStack;
    callStack.reserve(n);
    for (NodeId root = 0; root < n; ++root) {
        if (index[root] != -1)
            continue;
        callStack.push_back(Frame{root, 0});
        index[root] = lowlink[root] = nextIndex++;
        stack.push_back(root);
        onStack[root] = true;

        while (!callStack.empty()) {
            Frame &frame = callStack.back();
            NodeId v = frame.node;
            const auto &outs = ddg.outEdges(v);
            if (frame.edgeIdx < outs.size()) {
                NodeId w = ddg.edge(outs[frame.edgeIdx]).dst;
                ++frame.edgeIdx;
                if (index[w] == -1) {
                    index[w] = lowlink[w] = nextIndex++;
                    stack.push_back(w);
                    onStack[w] = true;
                    callStack.push_back(Frame{w, 0});
                } else if (onStack[w]) {
                    lowlink[v] = std::min(lowlink[v], index[w]);
                }
            } else {
                callStack.pop_back();
                if (!callStack.empty()) {
                    NodeId parent = callStack.back().node;
                    lowlink[parent] =
                        std::min(lowlink[parent], lowlink[v]);
                }
                if (lowlink[v] == index[v]) {
                    std::vector<NodeId> comp;
                    for (;;) {
                        NodeId w = stack.back();
                        stack.pop_back();
                        onStack[w] = false;
                        comp.push_back(w);
                        if (w == v)
                            break;
                    }
                    int cid = out.numComponents();
                    for (NodeId w : comp)
                        out.componentOf[w] = cid;
                    out.components.push_back(std::move(comp));
                }
            }
        }
    }

    // A component is a recurrence iff it has an edge internal to it.
    out.isRecurrence.assign(out.numComponents(), false);
    for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
        const auto &edge = ddg.edge(e);
        int cs = out.componentOf[edge.src];
        if (cs == out.componentOf[edge.dst] &&
            (edge.src != edge.dst || edge.loopCarried())) {
            if (out.components[cs].size() > 1 || edge.src == edge.dst)
                out.isRecurrence[cs] = true;
        }
    }
    return out;
}

} // namespace gpsched
