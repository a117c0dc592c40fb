#include "sched/mrt.hh"

#include <algorithm>
#include <climits>

#include "support/logging.hh"

namespace gpsched
{

namespace
{

/** Mask of bits [lo, hi] inclusive, 0 <= lo <= hi <= 63. */
inline std::uint64_t
bitsMask(int lo, int hi)
{
    std::uint64_t m = hi >= 63 ? ~0ull : ((1ull << (hi + 1)) - 1);
    return m & (~0ull << lo);
}

/** A linear slot range [a, b], both inclusive. */
struct Lin
{
    int a = 0;
    int b = 0;
};

/**
 * Splits the wrapped range of @p len slots starting at slot @p s0
 * (0 <= s0 < ii, 0 <= len <= ii) into at most two linear parts.
 * Returns the part count.
 */
inline int
splitRange(int s0, int len, int ii, Lin parts[2])
{
    if (len <= 0)
        return 0;
    if (s0 + len <= ii) {
        parts[0] = {s0, s0 + len - 1};
        return 1;
    }
    parts[0] = {s0, ii - 1};
    parts[1] = {0, s0 + len - 1 - ii};
    return 2;
}

} // namespace

void
ModuloReservationTable::attachStorage(int total)
{
    if (total <= kInlineWords) {
        planes_ = inline_;
        return;
    }
    heap_.assign(static_cast<std::size_t>(total), 0);
    planes_ = heap_.data();
}

ModuloReservationTable::ModuloReservationTable(int num_units, int ii)
    : numUnits_(num_units)
{
    GPSCHED_ASSERT(num_units >= 0, "negative unit count");
    reset(ii);
}

void
ModuloReservationTable::reset(int ii)
{
    GPSCHED_ASSERT(ii >= 1, "II must be >= 1");
    ii_ = ii;
    used_ = 0;
    words_ = (ii + 63) / 64;
    const int total = numUnits_ * words_;
    attachStorage(total);
    std::fill(planes_, planes_ + total, 0);
}

ModuloReservationTable::ModuloReservationTable(
    const ModuloReservationTable &other)
    : numUnits_(other.numUnits_), ii_(other.ii_), used_(other.used_),
      words_(other.words_)
{
    const int total = numUnits_ * words_;
    attachStorage(total);
    std::copy(other.planes_, other.planes_ + total, planes_);
}

bool
ModuloReservationTable::rangeClear(int l, int s0, int len) const
{
    const std::uint64_t *pl = plane(l);
    Lin parts[2];
    const int n = splitRange(s0, len, ii_, parts);
    for (int p = 0; p < n; ++p) {
        const int wa = parts[p].a >> 6, wb = parts[p].b >> 6;
        for (int w = wa; w <= wb; ++w) {
            const int lo = w == wa ? parts[p].a & 63 : 0;
            const int hi = w == wb ? parts[p].b & 63 : 63;
            if (pl[w] & bitsMask(lo, hi))
                return false;
        }
    }
    return true;
}

bool
ModuloReservationTable::clearOutsideRange(int l, int s0, int len) const
{
    const std::uint64_t *pl = plane(l);
    Lin parts[2];
    const int n = splitRange(s0, len, ii_, parts);
    for (int w = 0; w < words_; ++w) {
        std::uint64_t allowed = 0;
        for (int p = 0; p < n; ++p) {
            const int lo = std::max(parts[p].a, w << 6);
            const int hi = std::min(parts[p].b, (w << 6) + 63);
            if (lo <= hi)
                allowed |= bitsMask(lo - (w << 6), hi - (w << 6));
        }
        if (pl[w] & ~allowed)
            return false;
    }
    return true;
}

void
ModuloReservationTable::incrementRange(int s0, int len)
{
    Lin parts[2];
    const int n = splitRange(s0, len, ii_, parts);
    for (int p = 0; p < n; ++p) {
        const int wa = parts[p].a >> 6, wb = parts[p].b >> 6;
        for (int w = wa; w <= wb; ++w) {
            const int lo = w == wa ? parts[p].a & 63 : 0;
            const int hi = w == wb ? parts[p].b & 63 : 63;
            // Word-parallel per-slot increment: each slot bit moves
            // to the lowest plane not yet covering it (the planes
            // are nested, so that is exactly busy+1).
            std::uint64_t carry = bitsMask(lo, hi);
            for (int l = 0; l < numUnits_ && carry; ++l) {
                std::uint64_t *pl = plane(l);
                const std::uint64_t add = carry & ~pl[w];
                pl[w] |= add;
                carry &= ~add;
            }
            GPSCHED_ASSERT(carry == 0, "reserve without canReserve");
        }
    }
}

void
ModuloReservationTable::decrementRange(int s0, int len)
{
    Lin parts[2];
    const int n = splitRange(s0, len, ii_, parts);
    for (int p = 0; p < n; ++p) {
        const int wa = parts[p].a >> 6, wb = parts[p].b >> 6;
        for (int w = wa; w <= wb; ++w) {
            const int lo = w == wa ? parts[p].a & 63 : 0;
            const int hi = w == wb ? parts[p].b & 63 : 63;
            // Mirror image of incrementRange: clear each slot's
            // highest covering plane.
            std::uint64_t carry = bitsMask(lo, hi);
            for (int l = numUnits_ - 1; l >= 0 && carry; --l) {
                std::uint64_t *pl = plane(l);
                const std::uint64_t take = carry & pl[w];
                pl[w] &= ~take;
                carry &= ~take;
            }
            GPSCHED_ASSERT(carry == 0, "release of free slot");
        }
    }
}

bool
ModuloReservationTable::canReserve(int cycle, int occupancy) const
{
    GPSCHED_ASSERT(occupancy >= 1, "occupancy must be >= 1");
    if (numUnits_ == 0)
        return false;
    if (occupancy >= ii_) {
        // The op busies every kernel slot `full` times plus one more
        // over a `rem`-slot window: in-window slots need busy <=
        // units-full-1 (plane units-full-1 clear), the rest busy <=
        // units-full (plane units-full clear; nesting makes the
        // in-window part of that plane follow from the first check).
        const int full = occupancy / ii_;
        const int rem = occupancy % ii_;
        if (full > numUnits_)
            return false;
        if (rem == 0)
            return clearOutsideRange(numUnits_ - full, 0, 0);
        if (full == numUnits_)
            return false;
        const int s0 = wrapSlot(cycle, ii_);
        return rangeClear(numUnits_ - full - 1, s0, rem) &&
               clearOutsideRange(numUnits_ - full, s0, rem);
    }
    return rangeClear(numUnits_ - 1, wrapSlot(cycle, ii_), occupancy);
}

void
ModuloReservationTable::reserve(int cycle, int occupancy)
{
    GPSCHED_ASSERT(occupancy >= 1, "occupancy must be >= 1");
    // One pass: the carry walk itself panics when a slot lacks a
    // free unit, so no separate canReserve pre-check is needed.
    const int full = occupancy / ii_;
    const int rem = occupancy % ii_;
    const int s0 = wrapSlot(cycle, ii_);
    for (int i = 0; i < full; ++i)
        incrementRange(0, ii_);
    incrementRange(s0, rem);
    used_ += occupancy;
}

void
ModuloReservationTable::release(int cycle, int occupancy)
{
    GPSCHED_ASSERT(occupancy >= 1, "occupancy must be >= 1");
    const int full = occupancy / ii_;
    const int rem = occupancy % ii_;
    const int s0 = wrapSlot(cycle, ii_);
    for (int i = 0; i < full; ++i)
        decrementRange(0, ii_);
    decrementRange(s0, rem);
    used_ -= occupancy;
}

int
ModuloReservationTable::firstFit(int from, int to, int occupancy) const
{
    GPSCHED_ASSERT(occupancy >= 1, "occupancy must be >= 1");
    if (numUnits_ == 0)
        return INT_MIN;
    const int step = from <= to ? 1 : -1;
    if (occupancy >= ii_ || words_ > kInlineWords) {
        // Multiplicity (or oversized-table) path: plain scan. A
        // verdict depends on the cycle's kernel slot alone, so the
        // first II cycles decide the whole window.
        int left = ii_;
        for (int c = from; left > 0; c += step, --left) {
            if (canReserve(c, occupancy))
                return c;
            if (c == to)
                break;
        }
        return INT_MIN;
    }

    // Blocked-start mask over the kernel slots: start s infeasible
    // iff any of slots s..s+occ-1 has its top-plane bit set. Built
    // by OR-ing occ down-rotations of the top plane.
    std::uint64_t blocked[kInlineWords];
    std::uint64_t cur[kInlineWords];
    const std::uint64_t *top = plane(numUnits_ - 1);
    for (int w = 0; w < words_; ++w)
        blocked[w] = cur[w] = top[w];
    const int last = ii_ - 1;
    for (int i = 1; i < occupancy; ++i) {
        const std::uint64_t wrap = cur[0] & 1;
        for (int w = 0; w < words_; ++w) {
            const std::uint64_t in =
                w + 1 < words_ ? cur[w + 1] & 1 : 0;
            cur[w] = (cur[w] >> 1) | (in << 63);
        }
        cur[last >> 6] |= wrap << (last & 63);
        for (int w = 0; w < words_; ++w)
            blocked[w] |= cur[w];
    }

    if (step == 1) {
        // Whole-word probing: one word op tests up to 64 start
        // slots; fully-blocked words are skipped outright.
        long long c = from;
        while (true) {
            const int s = wrapSlot(static_cast<int>(c), ii_);
            const int wi = s >> 6;
            std::uint64_t free = ~blocked[wi] & (~0ull << (s & 63));
            if (wi == words_ - 1 && (ii_ & 63) != 0)
                free &= (1ull << (ii_ & 63)) - 1;
            if (free != 0) {
                const int slot = (wi << 6) + __builtin_ctzll(free);
                const long long cand = c + (slot - s);
                return cand > to ? INT_MIN
                                 : static_cast<int>(cand);
            }
            const int word_end = std::min((wi + 1) << 6, ii_);
            c += word_end - s;
            if (c > to)
                return INT_MIN;
        }
    }
    // Descending scans are short in practice (latest-load probes):
    // per-cycle bit tests suffice.
    for (int c = from;; --c) {
        const int s = wrapSlot(c, ii_);
        if (((blocked[s >> 6] >> (s & 63)) & 1) == 0)
            return c;
        if (c == to)
            break;
    }
    return INT_MIN;
}

} // namespace gpsched
