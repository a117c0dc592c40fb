/**
 * @file
 * Independent modulo-schedule validator.
 *
 * Recomputes, from nothing but the public placement/transfer/spill
 * introspection of a schedule, every property a correct modulo
 * schedule must have, and reports the first violation as a
 * human-readable message:
 *
 *  - every node placed, clusters in range;
 *  - every dependence satisfied (order edges by issue distance; flow
 *    edges by value availability, through the transfer chain when the
 *    endpoints sit in different clusters);
 *  - spill splits never break a read;
 *  - functional units, memory ports (incl. overhead ops), and buses
 *    within capacity at every kernel slot;
 *  - register MaxLive within each cluster's file, recomputed from
 *    value lifetimes from first principles;
 *  - the schedule's own bookkeeping (maxLive, stats) agrees with the
 *    recount.
 *
 * Past the record's shape, which both oracles check once while
 * building their shared image (sched/schedule_image.hh), the
 * validator shares no code with the scheduler's internal
 * bookkeeping or with the replay simulator (src/sim/), which is what
 * makes the three mutually meaningful oracles. It accepts either a
 * live PartialSchedule (full checks, including the bookkeeping
 * recounts) or a recorded CompiledLoop (same structural checks on
 * the serialized placement/transfer/spill record).
 *
 * Lives in the library so the CLI, benches, the fuzz harness and
 * the tests all call the same oracle (see sim::verifyCompiled).
 */

#ifndef GPSCHED_SCHED_VALIDATE_HH
#define GPSCHED_SCHED_VALIDATE_HH

#include <string>

#include "graph/ddg.hh"
#include "machine/machine.hh"
#include "sched/schedule.hh"

namespace gpsched
{

struct CompiledLoop;

/** Validation outcome; ok() is false on the first violation. */
struct ValidationResult
{
    bool valid = true;
    std::string message;

    explicit operator bool() const { return valid; }
};

/** Validates a complete schedule of @p ddg on @p machine. */
ValidationResult validateSchedule(const Ddg &ddg,
                                  const MachineConfig &machine,
                                  const PartialSchedule &schedule);

/**
 * Validates the schedule recorded in @p loop (placements, transfers,
 * spills, stats) against @p ddg on @p machine. List-scheduled loops
 * (moduloScheduled == false) carry no placements and fail. The
 * MaxLive bookkeeping recount is skipped — CompiledLoop does not
 * record per-cluster MaxLive — but the register-file capacity check
 * still runs from recomputed lifetimes.
 */
ValidationResult validateSchedule(const Ddg &ddg,
                                  const MachineConfig &machine,
                                  const CompiledLoop &loop);

} // namespace gpsched

#endif // GPSCHED_SCHED_VALIDATE_HH
