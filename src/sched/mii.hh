/**
 * @file
 * Minimum initiation interval: MII = max(ResMII, RecMII).
 *
 * ResMII is resource-limited (total FU occupancy of each class over
 * the machine-wide units of that class — the partition-independent
 * lower bound the GP scheme feeds to the partitioner); RecMII is
 * recurrence-limited (graph/ddg_analysis), read from the graph's
 * analyses (Ddg::recMii()).
 */

#ifndef GPSCHED_SCHED_MII_HH
#define GPSCHED_SCHED_MII_HH

#include "graph/ddg.hh"
#include "machine/machine.hh"

namespace gpsched
{

/** Resource-limited minimum II over machine-wide resources. */
int resMii(const Ddg &ddg, const MachineConfig &machine);

/**
 * max(resMii, recMii); the paper's MII input to partitioning.
 *
 * Throws CompileError (kind InvalidInput) when a flow edge of
 * @p ddg promises less latency than @p machine's opcode table
 * provides — such a loop cannot be scheduled consistently, and the
 * rejection is recoverable per loop (see support/compile_error.hh).
 */
int computeMii(const Ddg &ddg, const MachineConfig &machine);

} // namespace gpsched

#endif // GPSCHED_SCHED_MII_HH
