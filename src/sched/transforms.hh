/**
 * @file
 * Schedule transformations (paper Section 3.3.2).
 *
 * The scheduler never backtracks on program operations, but it can
 * trade pressure between resource types by rewriting the overhead
 * operations of the partial schedule:
 *
 *  - spill: split a register lifetime across its widest idle gap with
 *    a SpillSt/SpillLd pair (registers -> memory pressure),
 *  - unspill: remove a spill when registers allow (memory ->
 *    registers),
 *  - bus-to-memory: turn a bus copy into a CommSt/CommLd pair
 *    (bus -> memory),
 *  - memory-to-bus: the reverse (memory -> bus).
 *
 * Every transformation is accepted only when it strictly improves the
 * global figure of merit, so chains of transformations terminate.
 * TransformEngine is the friend of PartialSchedule that implements
 * them; the scheduler and the tests call it directly.
 */

#ifndef GPSCHED_SCHED_TRANSFORMS_HH
#define GPSCHED_SCHED_TRANSFORMS_HH

#include "sched/schedule.hh"

namespace gpsched
{

/** Implements the Section-3.3.2 transformations on a schedule. */
class TransformEngine
{
  public:
    /** Spills the best candidate lifetime of @p cluster. */
    static bool trySpill(PartialSchedule &ps, int cluster);

    /** Removes one spill in @p cluster if registers allow. */
    static bool tryUnspill(PartialSchedule &ps, int cluster);

    /** Converts one bus transfer to a memory communication. */
    static bool tryBusToMem(PartialSchedule &ps);

    /** Converts one memory communication to a bus transfer. */
    static bool tryMemToBus(PartialSchedule &ps);

    /**
     * Applies transformations most-saturated-resource first until no
     * improvement remains (paper Section 3.3.3). Returns the number
     * of transformations applied.
     */
    static int run(PartialSchedule &ps);

  private:
    /**
     * Replaces value @p p's transfer @p t with @p repl (same
     * destination) when registers allow it and the global figure of
     * merit strictly improves; otherwise leaves the schedule exactly
     * as it was. Returns true when replaced.
     */
    static bool replaceTransfer(PartialSchedule &ps, NodeId p,
                                Transfer &t, const Transfer &repl);
};

} // namespace gpsched

#endif // GPSCHED_SCHED_TRANSFORMS_HH
