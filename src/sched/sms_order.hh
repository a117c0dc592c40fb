/**
 * @file
 * Swing-Modulo-Scheduling node ordering (Llosa et al., PACT'96),
 * used by every scheduler in this repository (paper Section 3.3.3).
 *
 * Nodes are grouped into sets: recurrence SCCs first, ordered by
 * decreasing recurrence-limited MII (most constrained first), then
 * the remaining nodes. Within the sweep, nodes are appended so that
 * each one has either predecessors or successors already ordered
 * (never both sides unordered), alternating top-down / bottom-up;
 * this lets the scheduler place each node adjacent to its already
 * scheduled neighbours, keeping lifetimes short.
 *
 * Priorities within the ready set follow the SMS spirit: top-down
 * picks the candidate with the greatest height (most critical going
 * forward), bottom-up the greatest depth; ties prefer lower
 * mobility, then lower id (determinism).
 *
 * The grouping (SCCs, per-recurrence RecMII, path augmentation) is a
 * property of the graph alone, while the sweep priorities depend on
 * the candidate II and the node latencies. Neither depends on the
 * machine's clusters or on the scheme, so the graph keeps them:
 * Ddg::smsNodeSets() holds the grouping and Ddg::iiAnalysis() one
 * IiAnalysis per II, which every attempt of every scheme on every
 * machine with the same latency table reads.
 */

#ifndef GPSCHED_SCHED_SMS_ORDER_HH
#define GPSCHED_SCHED_SMS_ORDER_HH

#include <vector>

#include "graph/ddg.hh"
#include "graph/ddg_analysis.hh"

namespace gpsched
{

/** II-independent SMS node grouping of one DDG: recurrence sets in
 *  decreasing-RecMII order (path-augmented), then the residue. */
struct SmsNodeSets
{
    std::vector<std::vector<NodeId>> sets;
};

/** Computes the SMS node sets of @p ddg from its SCCs. */
SmsNodeSets computeSmsNodeSets(const Ddg &ddg);

/**
 * Computes the SMS scheduling order of all nodes of @p ddg using the
 * precomputed @p sets (which must come from the same graph).
 */
std::vector<NodeId> smsOrder(const Ddg &ddg,
                             const DdgAnalysis &analysis,
                             const SmsNodeSets &sets);

/**
 * What a modulo-scheduling attempt at one II reads of the graph
 * alone, for one node-latency table: whether the II satisfies every
 * dependence cycle, the ASAP start of each node, the flat schedule
 * length and the SMS order. Immutable once built.
 */
struct IiAnalysis
{
    int ii = 0;

    /** False when a dependence cycle is positive at this II; the
     *  fields below are then empty. */
    bool feasible = false;

    /** Flat (one-iteration) schedule length at ASAP. */
    int scheduleLength = 0;

    /** Earliest start of each node, indexed by NodeId. */
    std::vector<int> asap;

    /** SMS scheduling order of every node. */
    std::vector<NodeId> order;
};

/** Analyzes @p ddg at @p ii under @p latencies, reading
 *  ddg.smsNodeSets(). Ddg::iiAnalysis() keeps its results. */
IiAnalysis analyzeIi(const Ddg &ddg, const LatencyTable &latencies,
                     int ii);

} // namespace gpsched

#endif // GPSCHED_SCHED_SMS_ORDER_HH
