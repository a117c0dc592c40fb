/**
 * @file
 * Golden round-trip tests for the graph text format and the
 * Graphviz export: writing a DDG, reading it back and writing it
 * again must be a byte-for-byte fixed point, the parsed graph must
 * be structurally identical, and dot output must name every node
 * and edge of a fixture DDG. readDdgBlocks reads multi-block input
 * and resyncs past a malformed block.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "graph/ddg.hh"
#include "graph/ddg_builder.hh"
#include "graph/dot.hh"
#include "graph/textio.hh"
#include "support/random.hh"
#include "workload/loop_shapes.hh"

using namespace gpsched;

namespace
{

/** Fixture with every serialized feature: both edge kinds, carried
 *  distances, labeled and unlabeled nodes, a non-default trip. */
Ddg
fixtureDdg()
{
    LatencyTable lat;
    DdgBuilder b("fixture", lat);
    NodeId ld = b.op(Opcode::Load, "ld");
    NodeId mul = b.op(Opcode::FMul, "mul");
    NodeId acc = b.op(Opcode::FAdd, "acc");
    NodeId st = b.op(Opcode::Store, "st");
    NodeId iv = b.op(Opcode::IAlu);
    b.flow(ld, mul);
    b.flow(mul, acc);
    b.carried(acc, acc, 1);
    b.flow(acc, st);
    b.flow(iv, ld);
    b.carried(iv, iv, 1);
    b.order(st, ld, 2);
    return b.tripCount(37).build();
}

std::string
toText(const Ddg &g)
{
    std::ostringstream oss;
    writeDdgText(oss, g);
    return oss.str();
}

Ddg
fromText(const std::string &text)
{
    std::istringstream iss(text);
    return readDdgText(iss);
}

void
expectSameGraph(const Ddg &a, const Ddg &b)
{
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.tripCount(), b.tripCount());
    ASSERT_EQ(a.numNodes(), b.numNodes());
    ASSERT_EQ(a.numEdges(), b.numEdges());
    for (NodeId v = 0; v < a.numNodes(); ++v) {
        EXPECT_EQ(a.node(v).opcode, b.node(v).opcode) << "node " << v;
        EXPECT_EQ(a.node(v).label, b.node(v).label) << "node " << v;
    }
    for (EdgeId e = 0; e < a.numEdges(); ++e) {
        EXPECT_EQ(a.edge(e).src, b.edge(e).src) << "edge " << e;
        EXPECT_EQ(a.edge(e).dst, b.edge(e).dst) << "edge " << e;
        EXPECT_EQ(a.edge(e).latency, b.edge(e).latency)
            << "edge " << e;
        EXPECT_EQ(a.edge(e).distance, b.edge(e).distance)
            << "edge " << e;
        EXPECT_EQ(a.edge(e).kind, b.edge(e).kind) << "edge " << e;
    }
}

} // namespace

TEST(TextIoGolden, WriteReadWriteIsAFixedPoint)
{
    Ddg g = fixtureDdg();
    std::string once = toText(g);
    Ddg parsed = fromText(once);
    std::string twice = toText(parsed);
    EXPECT_EQ(once, twice);
    expectSameGraph(g, parsed);
}

TEST(TextIoGolden, RandomLoopsRoundTrip)
{
    LatencyTable lat;
    Rng master(0x601dULL);
    for (int i = 0; i < 25; ++i) {
        Rng rng(master.next());
        RandomLoopParams params;
        params.numOps = 4 + static_cast<int>(rng.nextBelow(40));
        params.memFraction = rng.nextDouble() * 0.5;
        params.carriedProb = rng.nextDouble() * 0.4;
        Ddg g = randomLoop("rt" + std::to_string(i), lat, rng,
                           params);
        std::string once = toText(g);
        Ddg parsed = fromText(once);
        EXPECT_EQ(once, toText(parsed)) << "loop " << i;
        expectSameGraph(g, parsed);
    }
}

TEST(TextIoGolden, ReaderToleratesCommentsAndBlankLines)
{
    std::string text = "# a comment\n"
                       "\n"
                       "ddg tiny 5\n"
                       "node ialu a # trailing comment\n"
                       "node ialu\n"
                       "edge 0 1 1 0 order\n"
                       "end\n";
    Ddg g = fromText(text);
    EXPECT_EQ(g.name(), "tiny");
    EXPECT_EQ(g.tripCount(), 5);
    EXPECT_EQ(g.numNodes(), 2);
    ASSERT_EQ(g.numEdges(), 1);
    EXPECT_EQ(g.edge(0).kind, DepKind::Order);
    // Round-tripping the hand-written form is also a fixed point.
    EXPECT_EQ(toText(g), toText(fromText(toText(g))));
}

TEST(TextIoBlocks, ErrorCallbackResyncsToTheNextBlock)
{
    const std::string text = "# header comment\n"
                             "ddg first 5\nnode ialu\nend\n\n"
                             "ddg broken 5\nnode ialu\nedge 0 7 1 0\n"
                             "node ialu\nend\n"
                             "ddg second 5\nnode ialu\nend\n"
                             "ddg truncated 5\nnode ialu\n"
                             "# trailing comment\n\n";
    std::vector<std::string> events;
    std::istringstream in(text);
    readDdgBlocks(
        in, [&](Ddg ddg) { events.push_back(ddg.name()); },
        [&](const CompileError &error) {
            events.push_back("error:" + error.loopName());
        });
    EXPECT_EQ(events,
              (std::vector<std::string>{"first", "error:broken",
                                        "second",
                                        "error:truncated"}));

    // Without a callback the first malformed block throws.
    std::istringstream again(text);
    std::vector<std::string> parsed;
    EXPECT_THROW(readDdgBlocks(again, [&](Ddg ddg) {
                     parsed.push_back(ddg.name());
                 }),
                 CompileError);
    EXPECT_EQ(parsed, std::vector<std::string>{"first"});
}

TEST(TextIoBlocks, TrailingCommentsAreNotATruncatedBlock)
{
    std::istringstream in("ddg only 5\nnode ialu\nend\n# done\n\n");
    int blocks = 0;
    readDdgBlocks(in, [&](Ddg) { ++blocks; });
    EXPECT_EQ(blocks, 1);
}

TEST(DotGolden, NamesEveryNodeAndEdge)
{
    Ddg g = fixtureDdg();
    std::ostringstream oss;
    writeDot(oss, g);
    std::string dot = oss.str();

    EXPECT_NE(dot.find("digraph \"fixture\""), std::string::npos);
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        std::string decl = "n" + std::to_string(v) + " [label=\"" +
                           g.node(v).label + "\\n" +
                           toString(g.node(v).opcode) + "\"";
        EXPECT_NE(dot.find(decl), std::string::npos)
            << "node " << v << " not declared in dot output";
    }
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        std::string arrow = "n" + std::to_string(g.edge(e).src) +
                            " -> n" +
                            std::to_string(g.edge(e).dst) + " [";
        EXPECT_NE(dot.find(arrow), std::string::npos)
            << "edge " << e << " not drawn in dot output";
    }
}

TEST(DotGolden, UnassignedClusterEntriesStayUncolored)
{
    Ddg g = fixtureDdg();
    std::vector<int> clusters(static_cast<std::size_t>(g.numNodes()),
                              -1);
    clusters[0] = 0;
    std::ostringstream oss;
    writeDot(oss, g, &clusters);
    std::string dot = oss.str();
    // Exactly one node is colored; the -1 ("unassigned") entries
    // must not index the palette.
    EXPECT_EQ(dot.find("fillcolor="), dot.rfind("fillcolor="));
    EXPECT_NE(dot.find("fillcolor="), std::string::npos);
    // Edges touching unassigned nodes are not cut edges.
    EXPECT_EQ(dot.find("style=dashed"), std::string::npos);
}

TEST(DotGolden, ClusterMapColorsNodesAndDashesCutEdges)
{
    Ddg g = fixtureDdg();
    std::vector<int> clusters(static_cast<std::size_t>(g.numNodes()),
                              0);
    clusters[1] = 1; // put "mul" alone on cluster 1
    std::ostringstream oss;
    writeDot(oss, g, &clusters);
    std::string dot = oss.str();
    EXPECT_NE(dot.find("fillcolor="), std::string::npos);
    EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}
