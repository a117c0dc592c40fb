/**
 * @file
 * Strongly connected components of a DDG (Tarjan's algorithm).
 * Recurrences of the loop are exactly the SCCs with more than one
 * node or with a loop-carried self edge; SMS set ordering and RecMII
 * both start from them.
 */

#ifndef GPSCHED_GRAPH_SCC_HH
#define GPSCHED_GRAPH_SCC_HH

#include <vector>

#include "graph/ddg.hh"

namespace gpsched
{

/** Result of an SCC decomposition. */
struct SccDecomposition
{
    /** Component index of each node. */
    std::vector<int> componentOf;

    /** Nodes of each component, in discovery order. */
    std::vector<std::vector<NodeId>> components;

    /** True if the component forms a recurrence (has an internal cycle). */
    std::vector<bool> isRecurrence;

    /** Number of components. */
    int numComponents() const
    {
        return static_cast<int>(components.size());
    }
};

/** Computes the SCCs of @p ddg. Analyses read Ddg::sccs(), which
 *  calls this on the graph's first use and keeps the result. */
SccDecomposition computeSccs(const Ddg &ddg);

} // namespace gpsched

#endif // GPSCHED_GRAPH_SCC_HH
