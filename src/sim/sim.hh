/**
 * @file
 * Cycle-accurate schedule replay simulator.
 *
 * Executes a complete modulo schedule — placements, transfer chains,
 * spill splits — against a MachineConfig on an absolute cycle
 * timeline, overlapping kernel iterations at the schedule's II, and
 * reports the achieved II/IPC plus a typed SimFault on the first
 * structural violation the replay trips over. The machine model
 * replayed:
 *
 *  - per-cluster functional units and memory ports: every issued op
 *    (program, CommSt/CommLd, SpillSt/SpillLd) occupies its unit for
 *    its occupancy, counted on the absolute timeline across all
 *    in-flight iterations;
 *  - per-class non-pipelined buses: a bus transfer occupies one bus
 *    of its class for the class latency;
 *  - value movement: a consumer in the producer's cluster reads the
 *    home register after the write (and outside any spill gap); a
 *    consumer in another cluster reads the destination register,
 *    which a transfer (bus copy, or CommSt/CommLd through memory)
 *    must have filled by then;
 *  - per-cluster register files: every value instance's home and
 *    destination lifetimes are replayed on the timeline and the live
 *    count is checked against the cluster's file every cycle.
 *
 * Schedules are periodic with period II, so the replay window is
 * truncated to enough iterations to contain a full steady-state band
 * (iteration depth + max dependence distance + 2); ramp-up occupancy
 * and pressure are bounded by steady state, so the truncation hides
 * no overflow. Total cycles are then extrapolated to the full trip
 * count analytically.
 *
 * Oracle-independence contract: shape is shared, semantics are not.
 * The simulator and the static validator (sched/validate.cc) read
 * one flat image whose builder is the one record-shape check
 * (sched/schedule_image.hh); past the shape, the simulator shares no
 * code with the validator or with the scheduler's bookkeeping
 * (sched/schedule.cc) — the validator folds one iteration into II
 * kernel slots, the simulator unrolls iterations onto an absolute
 * timeline. Agreement between the two (pinned by
 * tests/test_property.cc and tests/test_sim_mutation.cc) is what
 * makes either verdict trustworthy.
 */

#ifndef GPSCHED_SIM_SIM_HH
#define GPSCHED_SIM_SIM_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/ddg.hh"
#include "machine/machine.hh"

namespace gpsched
{
struct CompiledLoop;
class PartialSchedule;
} // namespace gpsched

namespace gpsched::sim
{

/** What the replay tripped over. */
enum class SimFaultKind : std::uint8_t
{
    MalformedSchedule,   ///< shape: counts, ranges, duplicates
    DependenceViolation, ///< issue-order edge constraint broken
    ReadBeforeWrite,     ///< register read before the value exists
    SpillGapRead,        ///< home read inside a spill gap
    MissingTransfer,     ///< cross-cluster consumer, no transfer
    UnusedTransfer,      ///< transfer whose dest has no consumer
    InconsistentTransfer, ///< recorded transfer timings disagree
    BadBusClass,         ///< transfer rides an unknown bus class
    BrokenSpill,         ///< spill store/reload ordering broken
    FuOverflow,          ///< Int/Fp units over capacity in a cycle
    MemPortOverflow,     ///< memory ports over capacity in a cycle
    BusOverflow,         ///< bus class over capacity in a cycle
    RegisterOverflow,    ///< live values exceed a register file
};

/** Printable kind name ("FuOverflow", ...). */
const char *toString(SimFaultKind kind);

/** First violation the replay hit. */
struct SimFault
{
    SimFaultKind kind = SimFaultKind::MalformedSchedule;

    /** Absolute replay cycle (iteration 0's earliest event is cycle
     *  0); -1 for structural faults with no meaningful cycle. */
    std::int64_t cycle = -1;

    /** Offending node, invalidNode when none applies. */
    NodeId node = invalidNode;

    /** Human-readable description. */
    std::string detail;

    /** One-line rendering ("RegisterOverflow @12 node 3: ..."). */
    std::string toString() const;
};

/** Replay outcome. */
struct SimResult
{
    /** True when the schedule executed without a fault. */
    bool simOk = false;

    /** True when a modulo kernel was actually replayed; false for
     *  list-scheduled loops, which carry no placements (their cycle
     *  count is still recomputed from the flat schedule length). */
    bool replayed = false;

    /** Measured initiation interval: first-issue separation between
     *  consecutive replayed iterations (0 when not replayed). */
    int achievedII = 0;

    /** Execution cycles at the loop's trip count (replay window
     *  extrapolated analytically; >= 1). */
    std::int64_t simCycles = 0;

    /** Program ops / simCycles (0 when faulted). */
    double achievedIpc = 0.0;

    /** Kernel iterations actually replayed (the truncated window). */
    std::int64_t iterationsSimulated = 0;

    /** Measured peak live values per cluster over the window. */
    std::vector<int> maxLive;

    /** First violation, when !simOk. */
    std::optional<SimFault> fault;
};

/**
 * Replays the schedule recorded in @p loop against @p machine at
 * @p ddg's trip count. List-scheduled loops (no kernel) are not
 * replayed: simOk=true with cycles recomputed from the flat length.
 */
SimResult simulate(const Ddg &ddg, const MachineConfig &machine,
                   const CompiledLoop &loop);

/** Replays a complete PartialSchedule (every node placed). */
SimResult simulate(const Ddg &ddg, const MachineConfig &machine,
                   const PartialSchedule &schedule);

} // namespace gpsched::sim

#endif // GPSCHED_SIM_SIM_HH
