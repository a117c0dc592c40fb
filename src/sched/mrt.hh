/**
 * @file
 * Modulo reservation table: tracks occupancy of one resource pool
 * (the INT/FP/MEM units of one cluster, or one bus class's pool)
 * across the II kernel slots of a modulo schedule. Pool sizes come
 * from the (possibly heterogeneous) machine description: consumers
 * build one table per (cluster, FU class) and one per bus class.
 *
 * An operation issued at flat cycle t with occupancy c busies one
 * unit at kernel slots (t mod II) .. (t+c-1 mod II). Occupancy
 * counting per slot is the standard (slightly optimistic for
 * multi-cycle ops, exact for pipelined ones) modulo-scheduling
 * resource model. Flat cycles may be negative; slots use Euclidean
 * modulo.
 *
 * Representation: word-packed multiplicity planes instead of a
 * per-slot counter array. Plane l is a bitset over the II kernel
 * slots (ceil(II/64) words) whose bit s is set iff slot s has more
 * than l busy units, so the planes are nested (plane 0 ⊇ plane 1 ⊇
 * ...) and the per-slot count is the number of planes covering the
 * slot. canReserve is a mask-AND against the top plane (a slot has
 * a free unit iff its top-plane bit is clear), reserve/release are
 * word-parallel carry walks across the planes, and firstFit scans
 * whole 64-slot words for a free start slot. Pool sizes of the
 * Table-1 machines are <= 8 and II rarely exceeds a few dozen, so
 * the whole table fits the inline word buffer and copying a table
 * (the findSlot probe) is a small memcpy instead of a heap
 * allocation.
 */

#ifndef GPSCHED_SCHED_MRT_HH
#define GPSCHED_SCHED_MRT_HH

#include <cstdint>
#include <vector>

namespace gpsched
{

/** Euclidean modulo: result always in [0, m). */
inline int
wrapSlot(int cycle, int m)
{
    int r = cycle % m;
    return r < 0 ? r + m : r;
}

/** Reservation table for one resource pool at one II. */
class ModuloReservationTable
{
  public:
    /** @param num_units pool size; @param ii kernel length. */
    ModuloReservationTable(int num_units, int ii);

    ModuloReservationTable(const ModuloReservationTable &other);
    ModuloReservationTable &
    operator=(const ModuloReservationTable &other) = delete;

    /** Empties the table and resizes it to kernel length @p ii. */
    void reset(int ii);

    /** True when @p occupancy slots starting at @p cycle fit. */
    bool canReserve(int cycle, int occupancy) const;

    /** Reserves; panics (one pass, no pre-check) when it cannot. */
    void reserve(int cycle, int occupancy);

    /** Releases a prior reservation. */
    void release(int cycle, int occupancy);

    /**
     * First cycle c scanning @p from towards @p to (inclusive,
     * either direction) with canReserve(c, @p occupancy); INT_MIN
     * when none. Equivalent to the per-cycle canReserve scan but
     * word-accelerated: ascending scans test 64 start slots per
     * word op and skip fully-busy words outright.
     */
    int firstFit(int from, int to, int occupancy) const;

    /** Kernel length. */
    int ii() const { return ii_; }

    /** Busy unit-slots summed over the kernel. */
    int usedSlots() const { return used_; }

    /** Total unit-slots in the kernel (units * II). */
    int totalSlots() const { return numUnits_ * ii_; }

    /** totalSlots() - usedSlots(). */
    int freeSlots() const { return totalSlots() - used_; }

  private:
    /**
     * 128 inline bytes cover every pool the Table-1 presets and the
     * .machine corpus build (units * ceil(II/64) <= 16), keeping
     * probe copies allocation-free; larger tables spill to heap_.
     */
    static constexpr int kInlineWords = 16;

    int numUnits_;
    int ii_ = 0;
    int used_ = 0;
    int words_ = 0; ///< 64-bit words per plane: ceil(ii / 64)

    std::uint64_t *planes_; ///< numUnits_ planes of words_ words
    std::uint64_t inline_[kInlineWords];
    std::vector<std::uint64_t> heap_; ///< overflow past inline_

    std::uint64_t *plane(int l) { return planes_ + l * words_; }
    const std::uint64_t *
    plane(int l) const
    {
        return planes_ + l * words_;
    }

    /** Points planes_ at storage for @p total words. */
    void attachStorage(int total);

    /** Adds one busy unit to every slot in [s0, s0+len) mod II. */
    void incrementRange(int s0, int len);

    /** Removes one busy unit from every slot in [s0, s0+len) mod II. */
    void decrementRange(int s0, int len);

    /** True when plane @p l has no bit in [s0, s0+len) mod II. */
    bool rangeClear(int l, int s0, int len) const;

    /** True when plane @p l has no bit outside [s0, s0+len) mod II. */
    bool clearOutsideRange(int l, int s0, int len) const;
};

} // namespace gpsched

#endif // GPSCHED_SCHED_MRT_HH
