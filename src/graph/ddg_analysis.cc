#include "graph/ddg_analysis.hh"

#include <algorithm>

#include "graph/scc.hh"
#include "support/compile_error.hh"
#include "support/logging.hh"

namespace gpsched
{

DdgAnalysis::DdgAnalysis(const Ddg &ddg, const LatencyTable &latencies,
                         int ii,
                         const std::vector<int> *extra_edge_latency)
    : ddg_(ddg), latencies_(latencies), ii_(ii),
      extra_(extra_edge_latency)
{
    GPSCHED_ASSERT(!extra_ ||
                       static_cast<int>(extra_->size()) ==
                           ddg.numEdges(),
                   "extra latency vector size mismatch");
    recompute(ii);
}

void
DdgAnalysis::recompute(int ii)
{
    GPSCHED_ASSERT(ii >= 1, "II must be >= 1, got ", ii);
    ii_ = ii;
    feasible_ = true;
    scheduleLength_ = 0;
    const int n = ddg_.numNodes();
    asap_.assign(n, 0);
    alap_.assign(n, 0);
    if (n == 0)
        return;

    // Tarjan emits components in reverse topological order of the
    // condensation; iterate them backwards for a topological sweep.
    const SccDecomposition &sccs = ddg_.sccs();
    const int nc = sccs.numComponents();

    // The relaxation loops below fetch each edge record once and
    // compute its effective latency in place (effectiveLatency(e)
    // would re-load the record): these are the innermost loops of
    // every estimator evaluation.

    // --- forward pass: ASAP ------------------------------------------
    for (int c = nc - 1; c >= 0; --c) {
        const auto &comp = sccs.components[c];
        // Pull in finalized values over cross-component in-edges.
        for (NodeId v : comp) {
            for (EdgeId e : ddg_.inEdges(v)) {
                const auto &edge = ddg_.edge(e);
                NodeId u = edge.src;
                if (sccs.componentOf[u] != c) {
                    int lat = edge.latency +
                              (extra_ ? (*extra_)[e] : 0) -
                              ii_ * edge.distance;
                    asap_[v] = std::max(asap_[v], asap_[u] + lat);
                }
            }
        }
        // Iterate internal edges to a fixpoint. A positive cycle
        // keeps relaxing past |comp| passes.
        std::size_t passes = 0;
        bool changed = true;
        while (changed) {
            changed = false;
            for (NodeId v : comp) {
                for (EdgeId e : ddg_.outEdges(v)) {
                    const auto &edge = ddg_.edge(e);
                    NodeId w = edge.dst;
                    if (sccs.componentOf[w] != c)
                        continue;
                    int lat = edge.latency +
                              (extra_ ? (*extra_)[e] : 0) -
                              ii_ * edge.distance;
                    int cand = asap_[v] + lat;
                    if (cand > asap_[w]) {
                        asap_[w] = cand;
                        changed = true;
                    }
                }
            }
            if (changed && ++passes > comp.size()) {
                feasible_ = false;
                return;
            }
        }
    }

    scheduleLength_ = 0;
    for (NodeId v = 0; v < n; ++v) {
        int finish = asap_[v] + latencies_.latency(ddg_.node(v).opcode);
        scheduleLength_ = std::max(scheduleLength_, finish);
    }

    // --- backward pass: ALAP -----------------------------------------
    for (NodeId v = 0; v < n; ++v) {
        alap_[v] =
            scheduleLength_ - latencies_.latency(ddg_.node(v).opcode);
    }
    for (int c = 0; c < nc; ++c) {
        const auto &comp = sccs.components[c];
        for (NodeId v : comp) {
            for (EdgeId e : ddg_.outEdges(v)) {
                const auto &edge = ddg_.edge(e);
                NodeId w = edge.dst;
                if (sccs.componentOf[w] != c) {
                    int lat = edge.latency +
                              (extra_ ? (*extra_)[e] : 0) -
                              ii_ * edge.distance;
                    alap_[v] = std::min(alap_[v], alap_[w] - lat);
                }
            }
        }
        bool changed = true;
        std::size_t passes = 0;
        while (changed) {
            changed = false;
            for (NodeId v : comp) {
                for (EdgeId e : ddg_.inEdges(v)) {
                    const auto &edge = ddg_.edge(e);
                    NodeId u = edge.src;
                    if (sccs.componentOf[u] != c)
                        continue;
                    int lat = edge.latency +
                              (extra_ ? (*extra_)[e] : 0) -
                              ii_ * edge.distance;
                    int cand = alap_[v] - lat;
                    if (cand < alap_[u]) {
                        alap_[u] = cand;
                        changed = true;
                    }
                }
            }
            // Feasibility was already established by the forward
            // pass; the bound here is a safety net.
            if (changed && ++passes > comp.size() + 1) {
                feasible_ = false;
                return;
            }
        }
    }
}

int
DdgAnalysis::maxSlack() const
{
    int best = 0;
    for (EdgeId e = 0; e < ddg_.numEdges(); ++e)
        best = std::max(best, slack(e));
    return best;
}

int
recMii(const Ddg &ddg, const std::vector<int> *extra_edge_latency)
{
    // Upper bound: any cycle's latency sum is at most the sum of all
    // edge latencies and its distance sum is >= 1.
    LatencyTable latencies; // node latencies do not affect feasibility
    long total = 1;
    for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
        total += ddg.edge(e).latency;
        if (extra_edge_latency)
            total += (*extra_edge_latency)[e];
    }
    int lo = 1;
    int hi = static_cast<int>(std::min<long>(total, 1 << 24));
    DdgAnalysis probe(ddg, latencies, hi, extra_edge_latency);
    if (!probe.feasible()) {
        // Bad input, not a bug: a cycle of total distance 0 asks an
        // op to follow itself within one iteration at any II.
        GPSCHED_COMPILE_ERROR(
            CompileErrorKind::InvalidInput, ddg.name(), "loop '",
            ddg.name(), "': no initiation interval up to ", hi,
            " satisfies its dependence cycles (a cycle of total "
            "distance 0 never does)");
    }
    while (lo < hi) {
        int mid = lo + (hi - lo) / 2;
        probe.recompute(mid);
        if (probe.feasible())
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

} // namespace gpsched
