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
#include <exception>
#include <mutex>
#include <optional>
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

/**
 * What the compiles of one loop on one machine share, whatever their
 * scheme (Figure 1: the partition is computed at the MII before
 * scheduling starts, and Fixed and GP both start from it): the MII,
 * the II ceiling of the modulo search and the partition at the MII.
 * Each is computed on its first request and at most once, and a
 * CompileError it raises is rethrown to every later request.
 * Thread-safe. A prelude is scratch state of one batch or one
 * compile: never persisted and never part of a LoopKey.
 */
class LoopPrelude
{
  public:
    /** The references must outlive the prelude. */
    LoopPrelude(const Ddg &ddg, const MachineConfig &machine,
                const GpPartitionerOptions &partitioner);

    LoopPrelude(const LoopPrelude &) = delete;
    LoopPrelude &operator=(const LoopPrelude &) = delete;

    const Ddg &ddg() const { return ddg_; }
    const MachineConfig &machine() const { return machine_; }
    const GpPartitionerOptions &partitioner() const
    {
        return partitioner_;
    }

    /** max(ResMII, RecMII) (sched/mii.hh). */
    int mii();

    /**
     * The largest II the modulo search tries before it falls back
     * to list scheduling: the flat schedule length at the MII plus
     * a small slack, capped.
     */
    int maxIi();

    /** The partition at mii() (GpPartitioner::run). */
    const Partition &partitionAtMii();

    /** IIbus of partitionAtMii(). */
    int iiBusAtMii();

  private:
    void computeBounds();
    void computePartition();

    const Ddg &ddg_;
    const MachineConfig &machine_;
    const GpPartitionerOptions &partitioner_;

    std::once_flag boundsOnce_;
    std::exception_ptr boundsError_;
    int mii_ = 0;
    int maxIi_ = 0;

    // Only what a compile reads of the partitioner's result: a batch
    // keeps one prelude per loop and machine until it ends.
    std::once_flag partitionOnce_;
    std::exception_ptr partitionError_;
    std::optional<Partition> partition_;
    int iiBus_ = 0;
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

    /**
     * Compiles @p ddg, reading the MII, the II ceiling and the
     * partition at the MII from @p prelude, which must be built for
     * @p ddg or a structurally identical loop, for this compiler's
     * machine or an identical one, and for its partitioner options.
     * The record equals compile(ddg)'s bit for bit; it still counts
     * the MII partition in partitionRuns.
     */
    CompiledLoop compile(const Ddg &ddg, LoopPrelude &prelude) const;

    /** Scheme this compiler runs. */
    SchedulerKind kind() const { return kind_; }

  private:
    const MachineConfig &machine_;
    SchedulerKind kind_;
    LoopCompilerOptions options_;
};

} // namespace gpsched

#endif // GPSCHED_CORE_GP_SCHEDULER_HH
