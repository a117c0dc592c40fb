/**
 * @file
 * Per-loop code generation drivers (paper Figure 1).
 *
 * A LoopCompiler turns one loop DDG into a schedule for one machine
 * using one of the three evaluated schemes:
 *
 *  - SchedulerKind::Uracam — the URACAM baseline: no preliminary
 *    partition; cluster assignment, scheduling and register
 *    allocation in a single phase (on a unified machine this is the
 *    paper's "unified" bar).
 *  - SchedulerKind::FixedPartition — Figure 1, alternative (a): the
 *    DDG is partitioned once at MII; on failure only the initiation
 *    interval grows and the scheduler never deviates from the
 *    partition.
 *  - SchedulerKind::Gp — Figure 1, alternative (b), the paper's
 *    proposal: the scheduler may deviate from the partition, and
 *    when an attempt fails at II the partition is recomputed iff
 *    IIbus > II (recomputing can then reduce IIbus; otherwise it
 *    would likely not help).
 *
 * When the initiation interval climbs past the flat schedule length
 * modulo scheduling has lost to simple iteration-by-iteration
 * execution, and the driver falls back to list scheduling, as the
 * paper does for a few loops.
 */

#ifndef GPSCHED_CORE_GP_SCHEDULER_HH
#define GPSCHED_CORE_GP_SCHEDULER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "graph/ddg.hh"
#include "machine/machine.hh"
#include "partition/multilevel.hh"
#include "sched/schedule.hh"
#include "sched/uracam.hh"

namespace gpsched
{

/** The code-generation scheme compiling a loop. */
enum class SchedulerKind
{
    Uracam,         ///< single-phase baseline (Codina et al.)
    FixedPartition, ///< partition once, never deviate (Fig. 1a)
    Gp,             ///< partition + deviation + selective re-partition
};

/** Printable name ("URACAM", "Fixed", "GP"). */
std::string toString(SchedulerKind kind);

/** One scheme's command-line spelling. */
struct SchemeName
{
    const char *flag;
    SchedulerKind kind;
};

/** Every scheme's command-line spelling, in SchedulerKind order. */
inline constexpr SchemeName kSchemeNames[] = {
    {"uracam", SchedulerKind::Uracam},
    {"fixed", SchedulerKind::FixedPartition},
    {"gp", SchedulerKind::Gp},
};

/** Command-line spelling ("uracam", "fixed", "gp"). */
const char *schemeFlag(SchedulerKind kind);

/**
 * When the GP driver recomputes the partition after a failed
 * scheduling attempt (ablation of the Figure-1 decision; the paper's
 * conclusion is that Selective wins).
 */
enum class RepartitionPolicy
{
    Never,     ///< keep the initial partition forever
    Selective, ///< recompute iff IIbus > II (the paper's rule)
    Always,    ///< recompute on every II bump
};

/**
 * Driver configuration: only the inputs a bench driver varies (see
 * docs/ARCHITECTURE.md, "Compiler options"). Every other tuning
 * value is a constant beside its one reader.
 */
struct LoopCompilerOptions
{
    /** Partitioner knobs (GP / FixedPartition only). */
    GpPartitionerOptions partitioner;

    /** GP re-partition rule (SchedulerKind::Gp only). */
    RepartitionPolicy repartition = RepartitionPolicy::Selective;

    /**
     * Bus-class transfer cost model (sched/schedule.hh): slack-aware
     * by default; TransferCostPolicy::FastestFirst restores the
     * pre-cost-model transfer selection. Irrelevant on
     * single-bus-class machines, where both policies coincide.
     */
    TransferCostPolicy transferCost = TransferCostPolicy::SlackAware;
};

/** Final placement of one program operation. */
struct OpPlacement
{
    int cluster = -1;
    int cycle = 0;

    bool operator==(const OpPlacement &other) const
    {
        return cluster == other.cluster && cycle == other.cycle;
    }
};

/** Spill split of one value (producer node) in the final schedule. */
struct SpillRecord
{
    NodeId node = invalidNode;
    int storeCycle = 0;
    int loadCycle = 0;

    bool operator==(const SpillRecord &other) const
    {
        return node == other.node &&
               storeCycle == other.storeCycle &&
               loadCycle == other.loadCycle;
    }
};

/** Outcome of compiling one loop. */
struct CompiledLoop
{
    std::string loopName;

    /** False when the list-scheduling fallback was used. */
    bool moduloScheduled = true;

    /** Lower bound max(ResMII, RecMII). */
    int mii = 0;

    /** Achieved initiation interval (0 when list scheduled). */
    int ii = 0;

    /** Flat schedule length of one iteration. */
    int scheduleLength = 0;

    /** Execution cycles incl. prolog/epilog at the profiled trip. */
    std::int64_t cycles = 0;

    /** Program operations executed (overhead ops excluded). */
    std::int64_t ops = 0;

    /** ops / cycles. */
    double ipc = 0.0;

    /** Overhead operations of the final schedule. */
    ScheduleStats stats;

    /** Partitioner invocations (GP: >= 1 when re-partitioned). */
    int partitionRuns = 0;

    /** Scheduling attempts (II bumps + 1). */
    int scheduleAttempts = 0;

    // --- the schedule itself (serialized by src/serialize/) ---------

    /**
     * Final (cluster, flat cycle) of every node, indexed by NodeId.
     * Empty when the list-scheduling fallback was used.
     */
    std::vector<OpPlacement> placements;

    /**
     * Inter-cluster communications of the final schedule, sorted by
     * (producer, destCluster). Includes the bus class each bus
     * transfer rides.
     */
    std::vector<Transfer> transfers;

    /** Spill splits of the final schedule, sorted by node. */
    std::vector<SpillRecord> spills;

    /**
     * Cluster assignment the partitioner last produced, indexed by
     * NodeId (the GP scheme may deviate from it; placements record
     * the final choice). Empty when no partition was computed
     * (URACAM or unified machines).
     */
    std::vector<int> partition;
};

/** Compiles loops for one machine with one scheme. */
class LoopCompiler
{
  public:
    /** @p machine must outlive the compiler. */
    LoopCompiler(const MachineConfig &machine, SchedulerKind kind,
                 LoopCompilerOptions options = {});

    /** Compiles @p ddg and reports the outcome. */
    CompiledLoop compile(const Ddg &ddg) const;

    /** Scheme this compiler runs. */
    SchedulerKind kind() const { return kind_; }

  private:
    const MachineConfig &machine_;
    SchedulerKind kind_;
    LoopCompilerOptions options_;
};

} // namespace gpsched

#endif // GPSCHED_CORE_GP_SCHEDULER_HH
