/**
 * @file
 * Unit tests for the register lifetime tracker: exact per-slot live
 * counts under modulo wrap (read through the diff feasibility query),
 * multi-register lifetimes and the query itself. A brute-force
 * recount is the oracle for the parameterized sweep.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "sched/lifetime.hh"
#include "sched/mrt.hh"
#include "support/random.hh"

using namespace gpsched;

namespace
{

/** Live count at kernel slot (@p cycle mod II) while it is within
 *  the register file: the one-slot lifetimes that still fit there
 *  are the free registers. */
int
liveAt(const LifetimeTracker &t, int cycle)
{
    std::vector<LiveSegment> extra;
    while (t.fitsWithDiff({}, extra))
        extra.push_back({cycle, cycle});
    return t.numRegs() - (static_cast<int>(extra.size()) - 1);
}

} // namespace

TEST(Lifetime, SingleSegmentCounts)
{
    LifetimeTracker t(4, 4);
    t.add({0, 2}); // slots 0,1,2
    EXPECT_EQ(liveAt(t, 0), 1);
    EXPECT_EQ(liveAt(t, 1), 1);
    EXPECT_EQ(liveAt(t, 2), 1);
    EXPECT_EQ(liveAt(t, 3), 0);
    EXPECT_EQ(t.maxLive(), 1);
    EXPECT_EQ(t.usedRegCycles(), 3);
}

TEST(Lifetime, SegmentLongerThanIiNeedsMultipleRegisters)
{
    // A lifetime of 9 cycles in a 4-cycle kernel holds values of 3
    // in-flight iterations at some slots.
    LifetimeTracker t(4, 4);
    t.add({0, 8});
    EXPECT_EQ(t.maxLive(), 3);
    EXPECT_EQ(t.usedRegCycles(), 9);
}

TEST(Lifetime, NegativeCyclesWrap)
{
    LifetimeTracker t(2, 4);
    t.add({-2, -1}); // slots 2,3
    EXPECT_EQ(liveAt(t, 2), 1);
    EXPECT_EQ(liveAt(t, 3), 1);
    EXPECT_EQ(liveAt(t, 0), 0);
}

TEST(Lifetime, RemoveUndoesAdd)
{
    LifetimeTracker t(4, 5);
    t.add({1, 7});
    t.add({3, 3});
    t.remove({1, 7});
    EXPECT_EQ(t.usedRegCycles(), 1);
    EXPECT_EQ(liveAt(t, 3), 1);
    t.remove({3, 3});
    EXPECT_EQ(t.maxLive(), 0);
}

TEST(Lifetime, FitsWithDiffAcceptsWithinCapacity)
{
    LifetimeTracker t(2, 4);
    t.add({0, 3});
    EXPECT_TRUE(t.fitsWithDiff({}, {{0, 3}}));
    t.add({0, 3});
    // A third full-kernel lifetime exceeds the 2-register file.
    EXPECT_FALSE(t.fitsWithDiff({}, {{0, 3}}));
    // But swapping one out first fits.
    EXPECT_TRUE(t.fitsWithDiff({{0, 3}}, {{1, 2}}));
}

TEST(Lifetime, FitsWithDiffIsPure)
{
    LifetimeTracker t(2, 4);
    t.add({0, 1});
    t.fitsWithDiff({}, {{0, 3}});
    EXPECT_EQ(t.usedRegCycles(), 2);
    EXPECT_EQ(liveAt(t, 0), 1);
}

TEST(Lifetime, CapacityQuery)
{
    LifetimeTracker t(8, 4);
    EXPECT_EQ(t.capacity(), 32);
    EXPECT_EQ(t.numRegs(), 8);
}

using LifetimeDeathTest = ::testing::Test;

TEST(LifetimeDeathTest, BackwardsSegmentPanics)
{
    LifetimeTracker t(2, 4);
    EXPECT_DEATH(t.add({3, 1}), "");
}

TEST(LifetimeDeathTest, RemovingUnknownCoveragePanics)
{
    LifetimeTracker t(2, 4);
    EXPECT_DEATH(t.remove({0, 0}), "");
}

// Property sweep: random add/remove sequences against a brute-force
// per-slot recount.
class LifetimeSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>>
{
};

TEST_P(LifetimeSweep, MatchesBruteForceRecount)
{
    auto [ii, seed] = GetParam();
    Rng rng(seed);
    LifetimeTracker t(64, ii);
    std::vector<LiveSegment> active;
    std::vector<int> oracle(ii, 0);

    auto cover = [&](const LiveSegment &s, int delta) {
        for (int c = s.from; c <= s.to; ++c)
            oracle[wrapSlot(c, ii)] += delta;
    };

    for (int step = 0; step < 300; ++step) {
        bool remove = !active.empty() && rng.nextBool(0.4);
        if (remove) {
            std::size_t i = rng.nextBelow(active.size());
            t.remove(active[i]);
            cover(active[i], -1);
            active.erase(active.begin() + static_cast<long>(i));
        } else {
            int from = static_cast<int>(rng.nextRange(-20, 20));
            int len = static_cast<int>(rng.nextRange(1, 3 * ii));
            LiveSegment s{from, from + len - 1};
            t.add(s);
            cover(s, 1);
            active.push_back(s);
        }
        int expect_max = 0, expect_used = 0;
        for (int c = 0; c < ii; ++c) {
            expect_max = std::max(expect_max, oracle[c]);
            expect_used += oracle[c];
        }
        EXPECT_EQ(t.maxLive(), expect_max);
        EXPECT_EQ(t.usedRegCycles(), expect_used);
        // One more value at slot c fits iff the recount, with c one
        // higher, stays within the 64 registers.
        for (int c = 0; c < ii; ++c) {
            EXPECT_EQ(t.fitsWithDiff({}, {{c, c}}),
                      std::max(expect_max, oracle[c] + 1) <= 64)
                << "slot " << c;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    RandomOps, LifetimeSweep,
    ::testing::Combine(::testing::Values(1, 2, 5, 16),
                       ::testing::Values(1u, 2u, 3u)));
