/**
 * @file
 * Cluster-aware list scheduling, the fallback for loops whose
 * initiation interval grows past the point where modulo scheduling
 * pays off (paper Section 4.1: "for these cases, list scheduling is
 * applied").
 *
 * One iteration is scheduled acyclically: only intra-iteration
 * (distance 0) dependences constrain issue cycles, since iterations
 * do not overlap under list scheduling. Nodes are placed greedily in
 * critical-path (height) order; cross-cluster flow dependences
 * allocate a bus transfer and delay the consumer by the bus latency.
 * Register pressure is not modelled: without software pipelining,
 * lifetimes are bounded by the flat schedule and spilling is rarely
 * needed on these machines.
 */

#ifndef GPSCHED_SCHED_LIST_SCHED_HH
#define GPSCHED_SCHED_LIST_SCHED_HH

#include <vector>

#include "graph/ddg.hh"
#include "machine/machine.hh"

namespace gpsched
{

/** Outcome of list scheduling one loop iteration. */
struct ListScheduleResult
{
    /** Cycles of one iteration (issue of first op to last result). */
    int scheduleLength = 0;

    /** Issue cycle of every node. */
    std::vector<int> cycle;

    /** Cluster of every node. */
    std::vector<int> cluster;

    /** Inter-cluster transfers allocated. */
    int busTransfers = 0;
};

/** List-schedules one iteration of @p ddg on @p machine. */
ListScheduleResult listSchedule(const Ddg &ddg,
                                const MachineConfig &machine);

} // namespace gpsched

#endif // GPSCHED_SCHED_LIST_SCHED_HH
