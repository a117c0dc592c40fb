/**
 * @file
 * The two-oracle contract, held once: verifyCompiled() checks one
 * compiled record with the static validator (sched/validate.hh) and
 * the cycle-accurate simulator (sim/sim.hh). The two must agree on
 * whether the schedule is legal, and on a legal schedule the
 * replayed II, cycles and IPC must equal the compiler's claims bit
 * for bit. `gpsched compile --simulate`, the benches' --replay gate,
 * the fuzz harness and the property tests all call it.
 *
 * replaySuite() applies it to every successfully compiled loop of a
 * pipeline result (the --replay gate).
 */

#ifndef GPSCHED_SIM_REPLAY_HH
#define GPSCHED_SIM_REPLAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "machine/machine.hh"
#include "sim/sim.hh"

namespace gpsched::sim
{

/** What the two oracles found on one compiled record. */
enum class VerdictKind : std::uint8_t
{
    Pass,
    OracleDisagree,   ///< validator and simulator verdicts differ
    ScheduleRejected, ///< the oracles reject the schedule
    MetricMismatch,   ///< replayed II/cycles/IPC != compiler's claim
};

/** Stable printable name ("pass", "oracle-disagree", ...). */
const char *toString(VerdictKind kind);

/** Outcome of verifyCompiled(). */
struct Verdict
{
    VerdictKind kind = VerdictKind::Pass;

    /** Why the record failed; empty on Pass. */
    std::string detail;

    /** The replay behind the verdict. */
    SimResult sim;

    bool ok() const { return kind == VerdictKind::Pass; }
};

/**
 * Holds @p loop, compiled from @p ddg for @p machine, to the
 * two-oracle contract. List-scheduled records carry no placements,
 * so they get the simulator half only (its recomputed cycles and
 * IPC must still match the record).
 */
Verdict verifyCompiled(const Ddg &ddg, const MachineConfig &machine,
                       const CompiledLoop &loop);

/** One loop whose replay disagreed with its compile record. */
struct ReplayMismatch
{
    std::string program;
    std::string loop;
    std::string detail;
};

/** Outcome of verifying a program or suite. */
struct ReplayReport
{
    /** Loops verified (list-scheduled loops count: their recomputed
     *  cycles are still cross-checked). */
    std::int64_t loopsChecked = 0;

    /** Loops that actually went through the kernel replay. */
    std::int64_t loopsReplayed = 0;

    std::vector<ReplayMismatch> mismatches;

    bool ok() const { return mismatches.empty(); }

    /** "replayed N loops, M mismatches" (+ first mismatch detail). */
    std::string summary() const;
};

/**
 * Runs verifyCompiled() on every compiled loop of @p result against
 * @p machine; aggregates into one report. Loops are matched back to
 * @p suite's DDGs by program and loop name (failures recorded in a
 * program's failures are skipped, like the aggregates skip them).
 */
ReplayReport replaySuite(const std::vector<Program> &suite,
                         const SuiteResult &result,
                         const MachineConfig &machine);

} // namespace gpsched::sim

#endif // GPSCHED_SIM_REPLAY_HH
