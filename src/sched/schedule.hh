/**
 * @file
 * Partial modulo schedule with integrated register allocation and
 * communication management (the URACAM substrate of paper Section
 * 3.3, shared by the URACAM baseline and the GP/Fixed schedulers).
 *
 * The schedule assigns operations to (cluster, flat cycle) pairs at
 * a fixed II. Flat cycles are times within one iteration's schedule
 * (they may be negative; kernel slots are flat cycles mod II). State
 * tracked per placement:
 *
 *  - functional-unit reservation tables per (cluster, FU class),
 *    sized from the per-cluster machine description,
 *  - the non-pipelined inter-cluster bus pools, one per bus class;
 *    which class a transfer rides is decided by the configured
 *    TransferCostPolicy (slack-aware by default: tight transfers
 *    probe fastest-first, slack-rich ones are steered to slower
 *    classes so the fast buses stay free for the critical path),
 *  - exact per-cluster register pressure (kernel MaxLive) via value
 *    lifetimes, including loop-carried consumption at use + II*dist,
 *  - one communication per (value, destination cluster): a bus copy
 *    or a store/load pair through memory (Section 3.3.2), chosen
 *    on demand when the bus is saturated,
 *  - spill splits of register lifetimes (store after def, load
 *    before the late uses).
 *
 * Placement is two-phase: planPlacement() is a pure feasibility
 * check that fills a PlacementPlan describing every reservation and
 * lifetime change the insertion would make; apply() commits a plan
 * atomically. Figures of merit are computed from plans without
 * mutating anything, which is how URACAM compares per-cluster
 * alternatives cheaply. Only spill and communication ops are ever
 * unscheduled (by the transformation engine in transforms.cc).
 *
 * Probes are allocation-free once warm: the caller owns the plan and
 * reuses it (a probe clears it but never shrinks it), and the probe's
 * own groupings live in scratch owned by the schedule.
 */

#ifndef GPSCHED_SCHED_SCHEDULE_HH
#define GPSCHED_SCHED_SCHEDULE_HH

#include <map>
#include <utility>
#include <vector>

#include "graph/ddg.hh"
#include "machine/machine.hh"
#include "sched/fom.hh"
#include "sched/lifetime.hh"
#include "sched/mrt.hh"

namespace gpsched
{

/**
 * How planTransfer() picks a bus class for a value crossing
 * clusters on a machine with several classes. With a single bus
 * class (every Table-1 preset) the two policies are identical by
 * construction — there is only one class to pick — so homogeneous
 * fig2/fig3 output is bit-identical under either (pinned by
 * tests/test_transfer_policy.cc).
 */
enum class TransferCostPolicy
{
    /**
     * Legacy greedy rule: classes are probed fastest-first, so slow
     * buses only carry traffic once every faster class is saturated
     * in the transfer's window — even for transfers with cycles of
     * slack to spare.
     */
    FastestFirst,

    /**
     * Slack-aware cost model (the default): a transfer whose
     * ready-to-use window fits a slower class with at least two
     * cycles to spare is steered
     * to the slowest such class first, preserving the fast classes
     * for transfers on or near the critical recurrence (whose tight
     * windows keep probing fastest-first). Feasibility never
     * regresses: when the preferred slow classes have no free slot
     * the probe falls through to the remaining classes
     * fastest-first, exactly like the legacy rule.
     */
    SlackAware,
};

/** One inter-cluster communication of a value. */
struct Transfer
{
    NodeId producer = invalidNode;
    int destCluster = -1;
    bool viaBus = true;
    int busClass = 0;      ///< viaBus: bus class carrying the value
    int busCycle = 0;      ///< viaBus: bus busy [busCycle, +lat-1]
    int stCycle = 0;       ///< !viaBus: CommSt issue in home cluster
    int ldCycle = 0;       ///< !viaBus: CommLd issue in dest cluster
    int readCycle = 0;     ///< when the home register is read
    int arrivalCycle = 0;  ///< when the value exists in dest

    bool operator==(const Transfer &other) const
    {
        return producer == other.producer &&
               destCluster == other.destCluster &&
               viaBus == other.viaBus && busClass == other.busClass &&
               busCycle == other.busCycle &&
               stCycle == other.stCycle &&
               ldCycle == other.ldCycle &&
               readCycle == other.readCycle &&
               arrivalCycle == other.arrivalCycle;
    }
};

/** Planned creation or replacement of a transfer. */
struct TransferPlan
{
    Transfer transfer;
    bool replaces = false; ///< an existing transfer for the same key
};

/** Planned lifetime change of one (value, cluster) pair. */
struct PairChange
{
    NodeId value = invalidNode;
    int cluster = -1;
    SegmentList before; ///< currently registered
    SegmentList after;  ///< segments once applied
};

/** Planned register-read event insertion. */
struct EventAdd
{
    NodeId value = invalidNode;
    int cluster = -1;
    int time = 0;
};

/** Planned register-read event time change (transfer re-placement). */
struct EventMove
{
    NodeId value = invalidNode;
    int cluster = -1;
    int oldTime = 0;
    int newTime = 0;
};

/**
 * Atomic description of one op insertion. A plan is valid until the
 * next probe into it; probing clears it but keeps its storage.
 */
struct PlacementPlan
{
    bool feasible = false;
    NodeId node = invalidNode;
    int cluster = -1;
    int cycle = 0;
    std::vector<TransferPlan> transfers;
    std::vector<EventAdd> eventAdds;
    std::vector<EventMove> eventMoves;
    std::vector<PairChange> pairChanges;

    // Figure-of-merit ingredients (net deltas).
    int busSlotsDelta = 0;
    std::vector<int> memSlotsDelta;  ///< per cluster (incl. op itself)
    std::vector<int> overheadMemDelta; ///< per cluster (comm ops only)
    std::vector<int> regCyclesDelta; ///< per cluster
};

/** Aggregate overhead statistics of a schedule. */
struct ScheduleStats
{
    int busTransfers = 0;
    int memTransfers = 0;
    int spills = 0;
    int overheadMemOps = 0;

    bool operator==(const ScheduleStats &other) const
    {
        return busTransfers == other.busTransfers &&
               memTransfers == other.memTransfers &&
               spills == other.spills &&
               overheadMemOps == other.overheadMemOps;
    }
};

/** Spill placement of one value (for introspection/code emission). */
struct SpillInfo
{
    bool spilled = false;
    int storeCycle = 0;
    int loadCycle = 0;
};

/** Partial (growing) modulo schedule at a fixed II. */
class PartialSchedule
{
  public:
    /**
     * @param ddg loop being scheduled (must outlive the schedule)
     * @param machine target (must outlive the schedule)
     * @param ii initiation interval
     * @param planned_mem_per_cluster expected original memory ops
     *        per cluster (from the graph partition; Section 3.3.4
     *        extension). Empty for URACAM/unified scheduling, which
     *        uses the global remaining-memory component instead.
     * @param transfer_cost bus-class transfer cost model (defaults
     *        to the slack-aware policy; irrelevant on single-bus-class
     *        machines, where both policies coincide)
     */
    PartialSchedule(const Ddg &ddg, const MachineConfig &machine,
                    int ii,
                    const std::vector<int> &planned_mem_per_cluster = {},
                    TransferCostPolicy transfer_cost =
                        TransferCostPolicy::SlackAware);

    /**
     * Empties the schedule for a fresh attempt at @p ii, as if it
     * were constructed anew with these arguments, but keeps the
     * storage of its tables and probe scratch.
     */
    void reset(int ii,
               const std::vector<int> &planned_mem_per_cluster = {});

    /** Initiation interval. */
    int ii() const { return ii_; }

    /** True once @p v has been placed. */
    bool isScheduled(NodeId v) const;

    /** Flat issue cycle of @p v (must be scheduled). */
    int cycleOf(NodeId v) const;

    /** Cluster of @p v (must be scheduled). */
    int clusterOf(NodeId v) const;

    /** Number of placed program operations. */
    int numScheduled() const { return numScheduled_; }

    /**
     * Pure feasibility probe: can @p v issue at (@p cluster,
     * @p cycle)? Fills @p plan (plan.feasible=false when not) and
     * returns plan.feasible.
     */
    bool planPlacement(NodeId v, int cluster, int cycle,
                       PlacementPlan &plan) const;

    /**
     * Scans cycles from @p from towards @p to (either direction,
     * inclusive) and fills @p plan with the first feasible placement;
     * returns plan.feasible.
     */
    bool planInWindow(NodeId v, int cluster, int from, int to,
                      PlacementPlan &plan) const;

    /** Commits a feasible plan. State must be unchanged since plan. */
    void apply(const PlacementPlan &plan);

    /**
     * Figure of merit of inserting @p plan (Section 3.3.1 plus the
     * remaining-memory extension): percentage of free resources the
     * insertion consumes, one component per critical resource.
     */
    FigureOfMerit insertionFom(const PlacementPlan &plan) const;

    /**
     * Global utilization figure (bus, per-cluster memory slots,
     * per-cluster MaxLive) used to steer transformations.
     */
    FigureOfMerit globalFom() const;

    // --- queries -------------------------------------------------------

    /**
     * Communications of @p producer's value, keyed by destination
     * cluster. Needed by code emission and by schedule validators.
     */
    const std::map<int, Transfer> &transfersOf(NodeId producer) const;

    /** Spill placement of @p producer's value. */
    SpillInfo spillOf(NodeId producer) const;

    /** Flat schedule length: max finish - min issue over all ops. */
    int scheduleLength() const;

    /** Kernel MaxLive of @p cluster. */
    int maxLive(int cluster) const;

    /** Overhead statistics. */
    ScheduleStats stats() const;

    /** Free slots summed over every bus-class pool. */
    int busFreeSlots() const;

    /** Busy slots summed over every bus-class pool. */
    int busUsedSlots() const;

    /** Total slots summed over every bus-class pool. */
    int busTotalSlots() const;

    /** Free memory slots of @p cluster. */
    int memFreeSlots(int cluster) const;

    /** Underlying machine. */
    const MachineConfig &machine() const { return machine_; }

    /** Underlying graph. */
    const Ddg &ddg() const { return ddg_; }

  private:
    friend class TransformEngine;

    struct PlacedOp
    {
        bool scheduled = false;
        int cluster = -1;
        int cycle = 0;
    };

    /** Logical state of one value (producer node). */
    struct ValueState
    {
        /** Communications keyed by destination cluster. */
        std::map<int, Transfer> transfers;

        bool spilled = false;
        int spillSt = 0;
        int spillLd = 0;
    };

    /** Register state of one value in one cluster. */
    struct ValueInCluster
    {
        /** Register-read events (home: local consumer reads and
         *  transfer reads; dest: consumer reads). */
        ReadEvents events;

        /** Segments currently registered with the tracker. */
        SegmentList registered;
    };

    /** Up to two read windows: a spill split removes its gap. */
    struct ReadRanges
    {
        std::pair<int, int> r[2];
        int n = 0;
    };

    /**
     * A flow edge in planPlacement's groupings, keyed by producer
     * (incoming) or destination cluster (outgoing).
     */
    struct KeyedEdge
    {
        int key = 0;
        EdgeId edge = 0;

        bool
        operator<(const KeyedEdge &other) const
        {
            return key != other.key ? key < other.key
                                    : edge < other.edge;
        }
    };

    /** A (value, cluster) pair's pending change in planPlacement. */
    struct PairDelta
    {
        NodeId value = invalidNode;
        int cluster = -1;
        bool hasAdds = false;
        int lastAdd = 0;   ///< latest added read (hasAdds)
        bool hasMove = false;
        int moveFrom = 0;  ///< moved read (hasMove)
        int moveTo = 0;
        int newTransfer = -1; ///< index into plan.transfers, or -1
    };

    /** A transformation ranked by TransformEngine::run. */
    struct TransformAction
    {
        double saturation = 0.0;
        int kind = 0; ///< 0 spill, 1 bus->mem, 2 mem->bus, 3 unspill
        int cluster = 0;
    };

    const Ddg &ddg_;
    const MachineConfig &machine_;
    int ii_;
    TransferCostPolicy transferCost_;

    /**
     * Probe scratch (mutable: planPlacement() and planTransfer() are
     * const feasibility probes). Cleared, never shrunk, on each call,
     * so the steady state allocates nothing. Safe because a
     * PartialSchedule is only ever driven from one thread.
     */
    mutable std::vector<std::vector<std::pair<int, int>>>
        claimedBusScratch_;
    mutable std::vector<std::pair<int, int>> claimedHomeMemScratch_;
    mutable std::vector<std::pair<int, int>> claimedDestMemScratch_;
    mutable std::vector<KeyedEdge> crossInScratch_;
    mutable std::vector<KeyedEdge> crossOutScratch_;
    mutable std::vector<int> ownEventsScratch_;
    mutable std::vector<PairDelta> touchedScratch_;
    mutable std::vector<LiveSegment> removedScratch_;
    mutable std::vector<LiveSegment> addedScratch_;
    std::vector<TransformAction> actionScratch_;

    std::vector<PlacedOp> placed_;
    int numScheduled_ = 0;
    std::vector<ModuloReservationTable> fuMrt_; ///< cluster-major
    std::vector<ModuloReservationTable> busMrts_; ///< per bus class
    std::vector<LifetimeTracker> regs_;
    std::vector<ValueState> values_;
    std::vector<ValueInCluster> valueInCluster_; ///< value-major

    std::vector<int> plannedMemOps_; ///< per cluster; empty = global
    int origMemOpsTotal_ = 0;
    std::vector<int> overheadMemOps_; ///< per cluster
    int overheadMemTotal_ = 0;
    int numBusTransfers_ = 0;
    int numMemTransfers_ = 0;
    int numSpills_ = 0;

    // --- helpers -------------------------------------------------------

    ModuloReservationTable &fu(int cluster, FuClass cls);
    const ModuloReservationTable &fu(int cluster, FuClass cls) const;

    int latencyOf(NodeId v) const;
    int occupancyOf(NodeId v) const;
    int writeCycleOf(NodeId v) const;

    /** Effective latency of edge e at this II. */
    int effLat(EdgeId e) const;

    /** Register state of value @p p in @p cluster. */
    ValueInCluster &
    inCluster(NodeId p, int cluster)
    {
        return valueInCluster_[p * machine_.numClusters() + cluster];
    }
    const ValueInCluster &
    inCluster(NodeId p, int cluster) const
    {
        return valueInCluster_[p * machine_.numClusters() + cluster];
    }

    /**
     * True when a register read of value @p p at @p time in the home
     * cluster is compatible with an existing spill split.
     */
    bool homeReadTimeValid(const ValueState &vs, int time) const;

    /**
     * The parts of [@p lo, @p hi] where the home register of a value
     * with state @p vs can be read: all of it, or the parts outside
     * the spill gap.
     */
    ReadRanges homeReadRanges(const ValueState &vs, int lo,
                              int hi) const;

    /**
     * Lifetime segments of (value, cluster) given explicit logical
     * state (pure; used for both current and hypothetical states).
     * Only the presence and the maximum of the read events matter,
     * so the primary overload takes exactly those; the ReadEvents
     * overload is a convenience wrapper for callers that already
     * hold an event set (transforms.cc).
     */
    SegmentList segmentsFromState(int write_cycle, bool has_events,
                                  int last_event, bool home,
                                  int arrival, bool spilled,
                                  int spill_st, int spill_ld) const;
    SegmentList segmentsFromState(int write_cycle,
                                  const ReadEvents &events, bool home,
                                  int arrival, bool spilled,
                                  int spill_st, int spill_ld) const;

    /** Current segments of (value, cluster) from logical state. */
    SegmentList currentSegments(NodeId p, int cluster) const;

    /** Re-registers (value, cluster) segments to match @p segs. */
    void setRegistered(NodeId p, int cluster, const SegmentList &segs);

    /**
     * Finds the first free slot for @p occupancy units in @p mrt
     * scanning @p from towards @p to, treating @p claimed as
     * additionally busy and @p ignore_cycle (occupancy
     * @p ignore_occ, -1 = none) as free. Returns INT_MIN when none.
     */
    static int findSlot(const ModuloReservationTable &mrt, int from,
                        int to, int occupancy,
                        const std::vector<std::pair<int, int>> &claimed,
                        int ignore_cycle, int ignore_occ);

    /**
     * Plans a transfer of @p producer's value to @p dest_cluster
     * with register read >= @p ready and arrival <= @p use, reusing
     * slot claims from @p plan (for intra-placement collisions).
     * Bus classes are probed in the order the TransferCostPolicy
     * dictates — ascending latency under FastestFirst; under
     * SlackAware, classes the ready->use window absorbs with
     * kSlackMargin cycles to spare come first (slowest first),
     * followed by the remaining classes fastest-first — and memory
     * communication is the fallback. Returns false when impossible.
     */
    bool planTransfer(NodeId producer, int dest_cluster, int ready,
                      int use, const PlacementPlan &plan,
                      TransferPlan &out) const;

    /** Releases the resources held by @p transfer. */
    void releaseTransfer(const Transfer &transfer);

    /** Reserves the resources needed by @p transfer. */
    void reserveTransfer(const Transfer &transfer);

    /** Finish cycle of an op or overhead op for scheduleLength(). */
    void accumulateExtent(int issue, int finish, int &lo,
                          int &hi) const;
};

} // namespace gpsched

#endif // GPSCHED_SCHED_SCHEDULE_HH
