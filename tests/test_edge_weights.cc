/**
 * @file
 * Unit tests for the Section-3.2.1 edge weights:
 *   weight(e) = delay(e) * (maxsl + 1) + maxsl - slack(e) + 1.
 */

#include <gtest/gtest.h>

#include "graph/ddg_analysis.hh"
#include "graph/ddg_builder.hh"
#include "partition/edge_weights.hh"
#include "testing/fixtures.hh"

using namespace gpsched;
using namespace gpsched::testing;

TEST(EdgeWeights, AllPositive)
{
    LatencyTable lat;
    Ddg g = diamondLoop(lat);
    auto weights = computeEdgeWeights(g, lat, 2, 1);
    ASSERT_EQ(weights.size(), static_cast<std::size_t>(g.numEdges()));
    for (auto w : weights)
        EXPECT_GE(w, 1);
}

TEST(EdgeWeights, RecurrenceEdgesDominateAcyclicOnes)
{
    // Delaying an edge inside the recurrence raises the II for every
    // iteration; the weight formula scales that by (maxsl + 1), so
    // recurrence edges must outweigh any acyclic edge.
    LatencyTable lat;
    DdgBuilder b("mix", lat);
    NodeId mul = b.op(Opcode::FMul, "mul");
    NodeId add = b.op(Opcode::FAdd, "add");
    EdgeId cyc = b.flow(mul, add);
    b.carried(add, mul, 1);
    NodeId ld = b.op(Opcode::Load, "ld");
    NodeId side = b.op(Opcode::IAlu, "side");
    EdgeId acyclic = b.flow(ld, side);
    Ddg g = b.tripCount(100).build();

    int mii = recMii(g); // 7
    auto weights = computeEdgeWeights(g, lat, mii, 1);
    EXPECT_GT(weights[cyc], weights[acyclic]);
    // Delay of the cycle edge is (niter-1)*(II'-II) + path growth
    // with II' = II + 1: at least 99.
    EXPECT_GE(weights[cyc], 99);
}

TEST(EdgeWeights, DelayMatchesHandComputation)
{
    LatencyTable lat;
    Ddg g = recurrenceLoop(lat);
    // tripCount = 10; adding 1 cycle to an edge of the 2-op cycle
    // raises II' from 7 to 8 -> delay = 9 * 1 + path growth.
    int mii = recMii(g);
    ASSERT_EQ(mii, 7);
    // Without the slack term, weight = 1 + delay * (maxsl + 1).
    EdgeWeightOptions delay_only;
    delay_only.useSlackTerm = false;
    auto weights = computeEdgeWeights(g, lat, mii, 1, delay_only);
    std::int64_t maxsl = DdgAnalysis(g, lat, mii).maxSlack();
    ASSERT_EQ((weights[0] - 1) % (maxsl + 1), 0);
    EXPECT_GE((weights[0] - 1) / (maxsl + 1), 9);
}

TEST(EdgeWeights, ZeroDelayEdgesRankedBySlack)
{
    LatencyTable lat;
    DdgBuilder b("slacks", lat);
    NodeId ld = b.op(Opcode::Load);
    NodeId slow = b.op(Opcode::FDiv);  // latency 12 path
    NodeId fast = b.op(Opcode::IAlu);  // latency 1 path
    NodeId join = b.op(Opcode::FAdd);
    b.flow(ld, slow);
    EdgeId fast_in = b.flow(ld, fast);
    b.flow(slow, join);
    b.flow(fast, join);
    Ddg g = b.tripCount(1).build();

    // With trip count 1 the delay term vanishes for edges with slack
    // >= bus latency, leaving maxsl - slack + 1: the slack-rich edge
    // into the fast chain must weigh less than the critical edges.
    auto weights = computeEdgeWeights(g, lat, 1, 1);
    DdgAnalysis a(g, lat, 1);
    ASSERT_GT(a.slack(fast_in), 0);
    EXPECT_LT(weights[fast_in], weights[0]);
}

TEST(EdgeWeights, DisablingDelayTermLeavesSlackOnly)
{
    LatencyTable lat;
    Ddg g = recurrenceLoop(lat);
    EdgeWeightOptions slack_only;
    slack_only.useDelayTerm = false;
    auto weights = computeEdgeWeights(g, lat, 7, 1, slack_only);
    DdgAnalysis a(g, lat, 7);
    std::int64_t maxsl = a.maxSlack();
    for (EdgeId e = 0; e < g.numEdges(); ++e)
        EXPECT_EQ(weights[e], maxsl - a.slack(e) + 1);
}

TEST(EdgeWeights, DisablingSlackTermLeavesDelayOnly)
{
    LatencyTable lat;
    Ddg g = recurrenceLoop(lat);
    EdgeWeightOptions delay_only;
    delay_only.useSlackTerm = false;
    auto with = computeEdgeWeights(g, lat, 7, 1);
    auto without = computeEdgeWeights(g, lat, 7, 1, delay_only);
    for (EdgeId e = 0; e < g.numEdges(); ++e)
        EXPECT_LE(without[e], with[e]);
}

TEST(EdgeWeights, HigherBusLatencyNeverLowersWeights)
{
    LatencyTable lat;
    Ddg g = recurrenceLoop(lat);
    auto w1 = computeEdgeWeights(g, lat, 7, 1);
    auto w2 = computeEdgeWeights(g, lat, 7, 2);
    for (EdgeId e = 0; e < g.numEdges(); ++e)
        EXPECT_GE(w2[e], w1[e]);
}

TEST(EdgeWeights, LexicographicDominanceOfDelay)
{
    // Any difference in delay must outweigh the largest possible
    // difference in slack: weight(delay d+1) > weight(delay d, slack
    // 0) for every d.
    LatencyTable lat;
    Ddg g = recurrenceLoop(lat);
    DdgAnalysis a(g, lat, 7);
    std::int64_t maxsl = a.maxSlack();
    std::int64_t delay_unit = maxsl + 1;
    // weight with delay d, slack s: d*(maxsl+1) + maxsl - s + 1.
    // Worst case for d+1 (slack = maxsl) still beats best case for
    // d (slack = 0):
    EXPECT_GT((1) * delay_unit + 0 + 1, 0 * delay_unit + maxsl + 1 - 1);
}

TEST(EdgeWeights, ExtremeTripCountSaturatesInsteadOfWrapping)
{
    // At the readers' bounds delay(e) * (maxsl + 1) leaves int64: a
    // 2^40-trip recurrence whose edges delay every iteration, beside
    // a chain of latency-2^20 order edges that makes maxsl about
    // 9 * 2^20. The recurrence edges must still outweigh the chain
    // (a wrapped product ranks them lowest), and all weights must sum
    // without overflow, as coarsening and refinement sum them.
    LatencyTable lat;
    Ddg g("edgew");
    g.setTripCount(maxTripCount);
    NodeId a = g.addNode(Opcode::IAlu);
    NodeId b = g.addNode(Opcode::IAlu);
    EdgeId forward = g.addEdge(a, b, 4);
    EdgeId back = g.addEdge(b, a, 4, 1);
    std::vector<EdgeId> chain;
    NodeId prev = g.addNode(Opcode::FAdd);
    for (int i = 1; i < 10; ++i) {
        NodeId next = g.addNode(Opcode::FAdd);
        chain.push_back(
            g.addEdge(prev, next, maxEdgeLatency, 0, DepKind::Order));
        prev = next;
    }

    auto weights = computeEdgeWeights(g, lat, recMii(g), 1);
    std::int64_t total = 0;
    for (std::int64_t w : weights) {
        EXPECT_GE(w, 1);
        ASSERT_FALSE(__builtin_add_overflow(total, w, &total));
    }
    for (EdgeId e : chain) {
        EXPECT_GT(weights[forward], weights[e]);
        EXPECT_GT(weights[back], weights[e]);
    }
}
