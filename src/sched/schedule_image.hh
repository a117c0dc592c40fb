/**
 * @file
 * Flat image of a complete modulo schedule, the one input of both
 * schedule oracles (sched/validate.hh, sim/sim.hh). Building it from
 * a CompiledLoop is also the one check of the record's *shape*;
 * whether the schedule is *correct* is each oracle's own derivation.
 */

#ifndef GPSCHED_SCHED_SCHEDULE_IMAGE_HH
#define GPSCHED_SCHED_SCHEDULE_IMAGE_HH

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/gp_scheduler.hh"
#include "sched/schedule.hh"

namespace gpsched
{

/** Elements of per-thread oracle scratch kept between calls; a
 *  larger buffer, grown by one huge record, is released after it. */
constexpr std::size_t kOracleScratchKeep = std::size_t{1} << 16;

template <typename T>
void
trimScratch(std::vector<T> &v)
{
    if (v.capacity() > kOracleScratchKeep)
        std::vector<T>().swap(v);
}

struct ScheduleImage
{
    /** One producer's transfers, a slice of @c xfers. */
    struct Range
    {
        const Transfer *first, *last;
        const Transfer *begin() const { return first; }
        const Transfer *end() const { return last; }
    };

    int ii = 0;
    NodeId unplaced = 0; ///< first node left unplaced, or numNodes
    std::vector<OpPlacement> place; ///< by node
    std::vector<SpillInfo> spill;   ///< by node
    /** Transfers by producer, in record order within one producer
     *  (destination order for a PartialSchedule). */
    std::vector<Transfer> xfers;
    std::vector<int> xferBegin, xferEnd; ///< by producer

    Range
    transfersOf(NodeId producer) const
    {
        return {xfers.data() + xferBegin[producer],
                xfers.data() + xferEnd[producer]};
    }

    /** @p producer's transfer to cluster @p dest, or nullptr. */
    const Transfer *
    transferTo(NodeId producer, int dest) const
    {
        for (const Transfer &t : transfersOf(producer)) {
            if (t.destCluster == dest)
                return &t;
        }
        return nullptr;
    }
};

/** A record's first shape fault. */
struct ShapeFault
{
    NodeId node = invalidNode;
    std::string message;
};

/**
 * Shape-checks the modulo schedule recorded in @p loop and flattens
 * it into @p out, whose storage is reused. In order: II >= 1; one
 * placement per node; each transfer, in record order, from a known
 * node to a real cluster, no (producer, cluster) pair twice; each
 * spill of a known node, once. With @p rejectNonDefining (the
 * simulator's rule), a transfer or spill of a node that defines no
 * value is a shape fault too.
 */
std::optional<ShapeFault> flattenRecord(const Ddg &ddg,
                                        const MachineConfig &machine,
                                        const CompiledLoop &loop,
                                        bool rejectNonDefining,
                                        ScheduleImage &out);

/** Flattens a (possibly incomplete) PartialSchedule into @p out. */
void flattenSchedule(const Ddg &ddg, const PartialSchedule &ps,
                     ScheduleImage &out);

} // namespace gpsched

#endif // GPSCHED_SCHED_SCHEDULE_IMAGE_HH
