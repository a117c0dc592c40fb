/**
 * @file
 * Unit tests for the modulo reservation table, including the modulo
 * wrap of multi-cycle reservations and negative flat cycles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "sched/mrt.hh"

using namespace gpsched;

namespace
{

/** Busy units at kernel slot (@p cycle mod II): the units a copy of
 *  @p mrt can still reserve there, one by one, are the free ones. */
int
busyAt(const ModuloReservationTable &mrt, int cycle)
{
    ModuloReservationTable probe = mrt;
    int free = 0;
    for (; probe.canReserve(cycle, 1); ++free)
        probe.reserve(cycle, 1);
    return mrt.totalSlots() / mrt.ii() - free;
}

} // namespace

TEST(WrapSlot, EuclideanModulo)
{
    EXPECT_EQ(wrapSlot(0, 4), 0);
    EXPECT_EQ(wrapSlot(5, 4), 1);
    EXPECT_EQ(wrapSlot(-1, 4), 3);
    EXPECT_EQ(wrapSlot(-8, 4), 0);
}

TEST(Mrt, FreshTableIsEmpty)
{
    ModuloReservationTable mrt(2, 4);
    EXPECT_EQ(mrt.usedSlots(), 0);
    EXPECT_EQ(mrt.totalSlots(), 8);
    EXPECT_EQ(mrt.freeSlots(), 8);
    for (int c = 0; c < 4; ++c)
        EXPECT_EQ(busyAt(mrt, c), 0);
}

TEST(Mrt, SingleUnitConflictsOnSameSlot)
{
    ModuloReservationTable mrt(1, 4);
    EXPECT_TRUE(mrt.canReserve(1, 1));
    mrt.reserve(1, 1);
    EXPECT_FALSE(mrt.canReserve(1, 1));
    EXPECT_FALSE(mrt.canReserve(5, 1));  // 5 mod 4 == 1
    EXPECT_FALSE(mrt.canReserve(-3, 1)); // -3 mod 4 == 1
    EXPECT_TRUE(mrt.canReserve(2, 1));
}

TEST(Mrt, MultiUnitPoolAllowsOverlap)
{
    ModuloReservationTable mrt(2, 3);
    mrt.reserve(0, 1);
    EXPECT_TRUE(mrt.canReserve(0, 1));
    mrt.reserve(0, 1);
    EXPECT_FALSE(mrt.canReserve(0, 1));
    EXPECT_EQ(busyAt(mrt, 0), 2);
}

TEST(Mrt, MultiCycleOccupancyWraps)
{
    ModuloReservationTable mrt(1, 3);
    // Occupancy 2 starting at slot 2 busies slots 2 and 0.
    mrt.reserve(2, 2);
    EXPECT_FALSE(mrt.canReserve(0, 1));
    EXPECT_TRUE(mrt.canReserve(1, 1));
    EXPECT_FALSE(mrt.canReserve(2, 1));
}

TEST(Mrt, OccupancyLargerThanIi)
{
    // A 6-cycle op in a 4-slot kernel busies every slot, two slots
    // twice; a 2-unit pool can host it, a 1-unit pool cannot.
    ModuloReservationTable one(1, 4);
    EXPECT_FALSE(one.canReserve(0, 6));
    ModuloReservationTable two(2, 4);
    EXPECT_TRUE(two.canReserve(0, 6));
    two.reserve(0, 6);
    EXPECT_EQ(two.usedSlots(), 6);
    EXPECT_EQ(busyAt(two, 0), 2);
    EXPECT_EQ(busyAt(two, 1), 2);
    EXPECT_EQ(busyAt(two, 2), 1);
    EXPECT_EQ(busyAt(two, 3), 1);
}

TEST(Mrt, ReleaseRestoresState)
{
    ModuloReservationTable mrt(1, 5);
    mrt.reserve(3, 2);
    EXPECT_EQ(mrt.usedSlots(), 2);
    mrt.release(3, 2);
    EXPECT_EQ(mrt.usedSlots(), 0);
    for (int c = 0; c < 5; ++c)
        EXPECT_EQ(busyAt(mrt, c), 0);
}

TEST(Mrt, ZeroUnitPoolRefusesAll)
{
    ModuloReservationTable mrt(0, 4);
    EXPECT_FALSE(mrt.canReserve(0, 1));
    EXPECT_EQ(mrt.totalSlots(), 0);
}

using MrtDeathTest = ::testing::Test;

TEST(MrtDeathTest, ReleaseOfFreeSlotPanics)
{
    ModuloReservationTable mrt(1, 4);
    EXPECT_DEATH(mrt.release(0, 1), "");
}

TEST(MrtDeathTest, BadIiPanics)
{
    EXPECT_DEATH(ModuloReservationTable(1, 0), "");
}

// Property sweep over (units, ii, occupancy): filling the pool slot
// by slot is consistent with canReserve and releasing everything
// returns to empty.
class MrtSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(MrtSweep, FillAndDrainConsistency)
{
    auto [units, ii, occ] = GetParam();
    ModuloReservationTable mrt(units, ii);

    std::vector<std::pair<int, int>> reserved;
    // Greedily reserve at every start cycle until nothing fits.
    bool progress = true;
    while (progress) {
        progress = false;
        for (int c = -ii; c < 2 * ii; ++c) {
            if (mrt.canReserve(c, occ)) {
                mrt.reserve(c, occ);
                reserved.push_back({c, occ});
                progress = true;
                break;
            }
        }
    }
    // The pool is saturated somewhere: usedSlots is within capacity
    // and no single-cycle slot more than `units` busy.
    EXPECT_LE(mrt.usedSlots(), mrt.totalSlots());
    for (int c = 0; c < ii; ++c)
        EXPECT_LE(busyAt(mrt, c), units);
    // Capacity actually used: at least units * floor(ii/occ) slots.
    EXPECT_GE(static_cast<int>(reserved.size()),
              units * (ii / std::max(occ, 1)));

    for (auto [c, o] : reserved)
        mrt.release(c, o);
    EXPECT_EQ(mrt.usedSlots(), 0);
    EXPECT_EQ(mrt.freeSlots(), mrt.totalSlots());
}

INSTANTIATE_TEST_SUITE_P(
    Pools, MrtSweep,
    ::testing::Combine(::testing::Values(1, 2, 4), // units
                       ::testing::Values(1, 3, 8), // ii
                       ::testing::Values(1, 2, 5)));

namespace
{

/**
 * Reference reservation table: the plain per-slot counter array the
 * packed-plane implementation replaced. Kept here so a differential
 * sweep can pin the two bit-identical.
 */
class RefMrt
{
  public:
    RefMrt(int units, int ii) : units_(units), ii_(ii), busy_(ii, 0)
    {
    }

    bool
    canReserve(int cycle, int occ) const
    {
        std::vector<int> need(ii_, 0);
        for (int k = 0; k < occ; ++k)
            ++need[wrapSlot(cycle + k, ii_)];
        for (int s = 0; s < ii_; ++s) {
            if (busy_[s] + need[s] > units_)
                return false;
        }
        return true;
    }

    void
    reserve(int cycle, int occ)
    {
        for (int k = 0; k < occ; ++k)
            ++busy_[wrapSlot(cycle + k, ii_)];
        used_ += occ;
    }

    void
    release(int cycle, int occ)
    {
        for (int k = 0; k < occ; ++k)
            --busy_[wrapSlot(cycle + k, ii_)];
        used_ -= occ;
    }

    int
    firstFit(int from, int to, int occ) const
    {
        const int step = from <= to ? 1 : -1;
        for (int c = from;; c += step) {
            if (canReserve(c, occ))
                return c;
            if (c == to)
                break;
        }
        return INT_MIN;
    }

    int busyAt(int cycle) const { return busy_[wrapSlot(cycle, ii_)]; }
    int usedSlots() const { return used_; }

  private:
    int units_;
    int ii_;
    int used_ = 0;
    std::vector<int> busy_;
};

} // namespace

/**
 * Differential sweep: random reserve/release streams against the
 * reference counter-array table; every canReserve, busyAt, firstFit
 * and utilization answer must be bit-identical. IIs straddle the
 * 64-slot word boundaries so multi-word planes are covered.
 */
TEST(MrtDifferential, RandomStreamsMatchReference)
{
    std::mt19937 rng(0xC0FFEE);
    const int iis[] = {1, 2, 7, 31, 63, 64, 65, 127, 128, 130};
    for (int units : {1, 2, 3, 4, 8}) {
        for (int ii : iis) {
            ModuloReservationTable mrt(units, ii);
            RefMrt ref(units, ii);
            std::vector<std::pair<int, int>> live;
            std::uniform_int_distribution<int> cycleDist(-3 * ii,
                                                         4 * ii);
            std::uniform_int_distribution<int> occDist(
                1, std::min(3 * ii, 2 * units * ii));
            for (int step = 0; step < 400; ++step) {
                const int cycle = cycleDist(rng);
                const int occ = occDist(rng);
                ASSERT_EQ(mrt.canReserve(cycle, occ),
                          ref.canReserve(cycle, occ))
                    << "units=" << units << " ii=" << ii
                    << " cycle=" << cycle << " occ=" << occ;
                if (ref.canReserve(cycle, occ) && rng() % 4 != 0) {
                    mrt.reserve(cycle, occ);
                    ref.reserve(cycle, occ);
                    live.push_back({cycle, occ});
                } else if (!live.empty() && rng() % 3 == 0) {
                    const std::size_t i = rng() % live.size();
                    auto [c, o] = live[i];
                    mrt.release(c, o);
                    ref.release(c, o);
                    live[i] = live.back();
                    live.pop_back();
                }
                ASSERT_EQ(mrt.usedSlots(), ref.usedSlots());
                const int probe = cycleDist(rng);
                ASSERT_EQ(busyAt(mrt, probe), ref.busyAt(probe));
                // firstFit parity, both scan directions.
                const int occ2 = occDist(rng);
                const int lo = cycleDist(rng);
                const int hi = lo + static_cast<int>(rng() % (2 * ii));
                ASSERT_EQ(mrt.firstFit(lo, hi, occ2),
                          ref.firstFit(lo, hi, occ2))
                    << "units=" << units << " ii=" << ii << " ["
                    << lo << "," << hi << "] occ=" << occ2;
                ASSERT_EQ(mrt.firstFit(hi, lo, occ2),
                          ref.firstFit(hi, lo, occ2))
                    << "units=" << units << " ii=" << ii << " ["
                    << hi << "," << lo << "] desc occ=" << occ2;
            }
            for (auto [c, o] : live) {
                mrt.release(c, o);
                ref.release(c, o);
            }
            EXPECT_EQ(mrt.usedSlots(), 0);
            for (int s = 0; s < ii; ++s)
                ASSERT_EQ(busyAt(mrt, s), 0);
        }
    }
}

/**
 * Copies must be deep: mutating one table leaves the other alone,
 * whichever storage (inline words or heap overflow) the source uses,
 * so the copy must point its planes at its own storage.
 */
TEST(MrtDifferential, CopyIsDeep)
{
    ModuloReservationTable a(2, 70); // 2 units x 2 words: inline
    a.reserve(3, 5);
    ModuloReservationTable b = a;
    b.reserve(3, 5);
    EXPECT_EQ(busyAt(a, 3), 1);
    EXPECT_EQ(busyAt(b, 3), 2);
    a.release(3, 5);
    EXPECT_EQ(busyAt(a, 3), 0);
    EXPECT_EQ(busyAt(b, 3), 2);
    EXPECT_EQ(a.usedSlots(), 0);
    EXPECT_EQ(b.usedSlots(), 10);

    // 8 units x 3 words = 24 words: past the inline buffer.
    ModuloReservationTable big(8, 130);
    big.reserve(129, 4); // wraps into slots 129, 0, 1, 2
    ModuloReservationTable bigCopy = big;
    EXPECT_EQ(bigCopy.ii(), 130);
    EXPECT_EQ(bigCopy.totalSlots(), 8 * 130);
    bigCopy.reserve(0, 130);
    EXPECT_EQ(busyAt(big, 0), 1);
    EXPECT_EQ(big.usedSlots(), 4);
    EXPECT_EQ(busyAt(bigCopy, 0), 2);
    EXPECT_EQ(busyAt(bigCopy, 64), 1);
    big.release(129, 4);
    EXPECT_EQ(busyAt(bigCopy, 129), 2);
    EXPECT_EQ(busyAt(bigCopy, 2), 2);
    EXPECT_EQ(bigCopy.usedSlots(), 134);
    EXPECT_EQ(big.usedSlots(), 0);
}
