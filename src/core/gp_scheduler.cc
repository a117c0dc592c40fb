#include "core/gp_scheduler.hh"

#include <algorithm>
#include <utility>

#include "graph/ddg_analysis.hh"
#include "sched/list_sched.hh"
#include "sched/mii.hh"
#include "support/compile_error.hh"
#include "support/logging.hh"
#include "support/telemetry.hh"

namespace gpsched
{

std::string
toString(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::Uracam:
        return "URACAM";
      case SchedulerKind::FixedPartition:
        return "Fixed";
      case SchedulerKind::Gp:
        return "GP";
    }
    GPSCHED_PANIC("unknown scheduler kind");
}

const char *
schemeFlag(SchedulerKind kind)
{
    for (const SchemeName &scheme : kSchemeNames) {
        if (scheme.kind == kind)
            return scheme.flag;
    }
    GPSCHED_PANIC("unknown scheduler kind");
}

namespace
{

/**
 * List-scheduling fallback margin: modulo scheduling is abandoned
 * once II exceeds the flat schedule length at MII plus this slack.
 */
constexpr int kMaxIiSlack = 2;

/** Absolute cap on the initiation interval (safety net). */
constexpr int kMaxIiHardCap = 1024;

/**
 * @p per_iteration * @p trip + @p extra, or an invalid-input
 * CompileError naming @p ddg when the @p what count does not fit in
 * 64 bits (signed overflow would be undefined behaviour, and a
 * wrapped count would reach both oracles as a plausible value).
 */
std::int64_t
checkedCount(const Ddg &ddg, const char *what,
             std::int64_t per_iteration, std::int64_t trip,
             std::int64_t extra = 0)
{
    std::int64_t product = 0;
    std::int64_t total = 0;
    if (__builtin_mul_overflow(per_iteration, trip, &product) ||
        __builtin_add_overflow(product, extra, &total)) {
        GPSCHED_COMPILE_ERROR(CompileErrorKind::InvalidInput,
                              ddg.name(), what, " of ",
                              ddg.tripCount(),
                              " iterations overflow a 64-bit count");
    }
    return total;
}

/** Per-cluster occupancy of original memory ops under a partition
 *  (the Section-3.3.4 planned-memory extension). */
std::vector<int>
plannedMemOps(const Ddg &ddg, const MachineConfig &machine,
              const Partition &partition)
{
    std::vector<int> planned(machine.numClusters(), 0);
    const LatencyTable &lat = machine.latencies();
    for (NodeId v = 0; v < ddg.numNodes(); ++v) {
        const Opcode op = ddg.node(v).opcode;
        if (isMemoryOpcode(op))
            planned[partition.clusterOf(v)] += lat.occupancy(op);
    }
    return planned;
}

/**
 * Copies the final schedule out of @p ps into the serializable
 * CompiledLoop payload: per-node placements, the transfer list
 * (sorted by (producer, destCluster) — transfersOf already keys by
 * destination) and spill splits.
 */
void
recordSchedule(const Ddg &ddg, const PartialSchedule &ps,
               CompiledLoop &out)
{
    out.placements.resize(ddg.numNodes());
    for (NodeId v = 0; v < ddg.numNodes(); ++v) {
        out.placements[v] =
            OpPlacement{ps.clusterOf(v), ps.cycleOf(v)};
        for (const auto &entry : ps.transfersOf(v))
            out.transfers.push_back(entry.second);
        SpillInfo spill = ps.spillOf(v);
        if (spill.spilled) {
            out.spills.push_back(SpillRecord{v, spill.storeCycle,
                                             spill.loadCycle});
        }
    }
}

/**
 * An invalid-input CompileError naming @p ddg when @p loop records a
 * cycle beyond maxCycleMagnitude: the schedule may be legal, but the
 * simulator refuses such a record as garbage.
 */
void
checkRecordedCycles(const Ddg &ddg, const CompiledLoop &loop)
{
    auto check = [&](int cycle) {
        if (cycle < -maxCycleMagnitude || cycle > maxCycleMagnitude) {
            GPSCHED_COMPILE_ERROR(CompileErrorKind::InvalidInput,
                                  ddg.name(), "schedule cycle ", cycle,
                                  " lies beyond the recorded-cycle "
                                  "bound of ",
                                  maxCycleMagnitude);
        }
    };
    for (const OpPlacement &placement : loop.placements)
        check(placement.cycle);
    for (const Transfer &t : loop.transfers) {
        check(t.busCycle);
        check(t.stCycle);
        check(t.ldCycle);
        check(t.readCycle);
        check(t.arrivalCycle);
    }
    for (const SpillRecord &spill : loop.spills) {
        check(spill.storeCycle);
        check(spill.loadCycle);
    }
}

} // namespace

LoopPrelude::LoopPrelude(const Ddg &ddg, const MachineConfig &machine,
                         const GpPartitionerOptions &partitioner)
    : ddg_(ddg), machine_(machine), partitioner_(partitioner)
{
}

void
LoopPrelude::computeBounds()
{
    // A throw inside call_once would leave the flag unset, and the
    // next request would compute again; keeping the error instead
    // computes once and hands it to every request.
    std::call_once(boundsOnce_, [this] {
        try {
            mii_ = computeMii(ddg_, machine_);
            // List-scheduling bound: once II reaches the flat
            // schedule length, the kernel no longer overlaps
            // iterations.
            const LatencyTable &lat = machine_.latencies();
            const IiAnalysis *at = ddg_.iiAnalysis(mii_, lat);
            GPSCHED_ASSERT(at == nullptr || at->feasible,
                           "MII analysis infeasible");
            const int length =
                at != nullptr
                    ? at->scheduleLength
                    : DdgAnalysis(ddg_, lat, mii_).scheduleLength();
            maxIi_ = std::min(kMaxIiHardCap,
                              std::max(mii_, length + kMaxIiSlack));
        } catch (...) {
            boundsError_ = std::current_exception();
        }
    });
    if (boundsError_)
        std::rethrow_exception(boundsError_);
}

int
LoopPrelude::mii()
{
    computeBounds();
    return mii_;
}

int
LoopPrelude::maxIi()
{
    computeBounds();
    return maxIi_;
}

void
LoopPrelude::computePartition()
{
    const int ii = mii();
    std::call_once(partitionOnce_, [this, ii] {
        try {
            GpPartitionResult result =
                GpPartitioner(machine_, partitioner_).run(ddg_, ii);
            partition_.emplace(std::move(result.partition));
            iiBus_ = result.iiBus;
        } catch (...) {
            partitionError_ = std::current_exception();
        }
    });
    if (partitionError_)
        std::rethrow_exception(partitionError_);
}

const Partition &
LoopPrelude::partitionAtMii()
{
    computePartition();
    return *partition_;
}

int
LoopPrelude::iiBusAtMii()
{
    computePartition();
    return iiBus_;
}

LoopCompiler::LoopCompiler(const MachineConfig &machine,
                           SchedulerKind kind,
                           LoopCompilerOptions options)
    : machine_(machine), kind_(kind), options_(std::move(options))
{
}

CompiledLoop
LoopCompiler::compile(const Ddg &ddg) const
{
    LoopPrelude prelude(ddg, machine_, options_.partitioner);
    return compile(ddg, prelude);
}

CompiledLoop
LoopCompiler::compile(const Ddg &ddg, LoopPrelude &prelude) const
{
    GPSCHED_ASSERT(prelude.ddg().numNodes() == ddg.numNodes() &&
                       prelude.machine().numClusters() ==
                           machine_.numClusters() &&
                       prelude.partitioner() == options_.partitioner,
                   "prelude built for another loop, machine or "
                   "partitioner");
    CompiledLoop out;
    out.loopName = ddg.name();
    out.ops = checkedCount(ddg, "operations", ddg.numNodes(),
                           ddg.tripCount());

    // RecMII is the first reader of the graph's analyses, so
    // computing them, when this compile is the graph's first, falls
    // in the Mii phase; so does the prelude's first request.
    int mii = 0;
    int max_ii = 0;
    {
        GPSCHED_PHASE_SPAN(Mii);
        mii = prelude.mii();
        max_ii = prelude.maxIi();
        out.mii = mii;
    }

    const bool partitioned = kind_ != SchedulerKind::Uracam &&
                             machine_.numClusters() > 1;
    // The partition in force and its IIbus: the prelude's, until GP
    // re-partitions into a partition of its own (IIbus > II).
    const Partition *partition = nullptr;
    int ii_bus = 0;
    std::optional<GpPartitionResult> repartitioned;
    if (partitioned) {
        partition = &prelude.partitionAtMii();
        ii_bus = prelude.iiBusAtMii();
        ++out.partitionRuns;
    }
    ClusterPolicy policy = ClusterPolicy::FreeChoice;
    if (kind_ == SchedulerKind::FixedPartition)
        policy = ClusterPolicy::AssignedOnly;
    else if (kind_ == SchedulerKind::Gp)
        policy = ClusterPolicy::PreferAssigned;

    ModuloScheduler scheduler(ddg, machine_);

    // One schedule serves every attempt: each one resets it, so its
    // tables and probe scratch keep their storage across IIs.
    std::vector<int> planned;
    if (partitioned)
        planned = plannedMemOps(ddg, machine_, *partition);
    PartialSchedule ps(ddg, machine_, mii, planned,
                       options_.transferCost);

    int ii = mii;
    while (ii <= max_ii) {
        ++out.scheduleAttempts;
        if (ii > mii)
            ps.reset(ii, planned);
        ClusterPolicy attempt_policy =
            partitioned ? policy : ClusterPolicy::FreeChoice;
        bool scheduled = false;
        {
            GPSCHED_PHASE_SPAN(ModuloSchedule);
            scheduled =
                scheduler.schedule(ps, attempt_policy, partition);
        }
        if (scheduled) {
            out.moduloScheduled = true;
            out.ii = ii;
            out.scheduleLength = ps.scheduleLength();
            out.stats = ps.stats();
            recordSchedule(ddg, ps, out);
            checkRecordedCycles(ddg, out);
            if (partitioned) {
                out.partition.resize(ddg.numNodes());
                for (NodeId v = 0; v < ddg.numNodes(); ++v)
                    out.partition[v] = partition->clusterOf(v);
            }
            out.cycles = std::max<std::int64_t>(
                checkedCount(ddg, "cycles", ii, ddg.tripCount() - 1,
                             out.scheduleLength),
                1);
            out.ipc = static_cast<double>(out.ops) / out.cycles;
            return out;
        }
        ++ii;
        if (kind_ != SchedulerKind::Gp || !partitioned || ii > max_ii)
            continue;
        // Figure 1(b): recompute the partition only when the bus
        // bound exceeds the new II — then a new partition can reduce
        // IIbus; otherwise keep the current one. The ablation
        // policies force either extreme. A re-partition is this
        // compile's own; only the one at the MII is shared.
        bool recompute = false;
        switch (options_.repartition) {
          case RepartitionPolicy::Never:
            break;
          case RepartitionPolicy::Selective:
            recompute = ii_bus > ii;
            break;
          case RepartitionPolicy::Always:
            recompute = true;
            break;
        }
        if (recompute) {
            repartitioned.emplace(
                GpPartitioner(machine_, options_.partitioner)
                    .run(ddg, ii));
            partition = &repartitioned->partition;
            ii_bus = repartitioned->iiBus;
            ++out.partitionRuns;
            planned = plannedMemOps(ddg, machine_, *partition);
        }
    }

    // Modulo scheduling is no longer profitable: list schedule.
    GPSCHED_PHASE_SPAN(ListSchedule);
    ListScheduleResult ls = listSchedule(ddg, machine_);
    out.moduloScheduled = false;
    out.ii = 0;
    out.scheduleLength = ls.scheduleLength;
    out.stats = ScheduleStats{};
    out.stats.busTransfers = ls.busTransfers;
    out.cycles = std::max<std::int64_t>(
        checkedCount(ddg, "cycles", ls.scheduleLength,
                     ddg.tripCount()),
        1);
    out.ipc = static_cast<double>(out.ops) / out.cycles;
    return out;
}

} // namespace gpsched
