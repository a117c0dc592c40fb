/**
 * @file
 * Unit tests for the DDG container, the builder, text serialization
 * and graphviz export.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "graph/ddg.hh"
#include "graph/ddg_builder.hh"
#include "graph/dot.hh"
#include "graph/scc.hh"
#include "graph/textio.hh"
#include "support/compile_error.hh"

using namespace gpsched;

TEST(Ddg, EmptyGraph)
{
    Ddg g("empty");
    EXPECT_EQ(g.numNodes(), 0);
    EXPECT_EQ(g.numEdges(), 0);
    EXPECT_EQ(g.name(), "empty");
}

TEST(Ddg, AddNodesAndEdges)
{
    Ddg g;
    NodeId a = g.addNode(Opcode::Load, "a");
    NodeId b = g.addNode(Opcode::FAdd, "b");
    EdgeId e = g.addEdge(a, b, 2);
    EXPECT_EQ(g.numNodes(), 2);
    EXPECT_EQ(g.numEdges(), 1);
    EXPECT_EQ(g.node(a).opcode, Opcode::Load);
    EXPECT_EQ(g.node(b).label, "b");
    EXPECT_EQ(g.edge(e).src, a);
    EXPECT_EQ(g.edge(e).dst, b);
    EXPECT_EQ(g.edge(e).latency, 2);
    EXPECT_EQ(g.edge(e).distance, 0);
    EXPECT_TRUE(g.edge(e).isFlow());
}

TEST(Ddg, AdjacencyLists)
{
    Ddg g;
    NodeId a = g.addNode(Opcode::IAlu);
    NodeId b = g.addNode(Opcode::IAlu);
    NodeId c = g.addNode(Opcode::IAlu);
    g.addEdge(a, b, 1);
    g.addEdge(a, c, 1);
    g.addEdge(b, c, 1);
    EXPECT_EQ(g.outEdges(a).size(), 2u);
    EXPECT_EQ(g.inEdges(c).size(), 2u);
    EXPECT_EQ(g.outEdges(c).size(), 0u);
    EXPECT_EQ(g.inEdges(a).size(), 0u);
}

TEST(Ddg, LoopCarriedAndRecurrence)
{
    Ddg g;
    NodeId a = g.addNode(Opcode::FAdd);
    EXPECT_FALSE(g.sccs().isRecurrence[g.sccs().componentOf[a]]);
    EdgeId e = g.addEdge(a, a, 3, 1);
    EXPECT_TRUE(g.edge(e).loopCarried());
    EXPECT_TRUE(g.sccs().isRecurrence[g.sccs().componentOf[a]]);
}

TEST(Ddg, TotalOccupancyUsesTable)
{
    Ddg g;
    g.addNode(Opcode::FDiv); // occupancy 12 by default
    g.addNode(Opcode::FMul); // occupancy 1
    LatencyTable lat;
    EXPECT_EQ(g.totalOccupancy(FuClass::Fp, lat), 13);
}

TEST(Ddg, TripCount)
{
    Ddg g;
    g.setTripCount(250);
    EXPECT_EQ(g.tripCount(), 250);
}

using DdgDeathTest = ::testing::Test;

TEST(DdgDeathTest, SelfEdgeNeedsDistance)
{
    Ddg g;
    NodeId a = g.addNode(Opcode::FAdd);
    EXPECT_DEATH(g.addEdge(a, a, 1, 0), "");
}

TEST(DdgDeathTest, FlowFromStoreRejected)
{
    Ddg g;
    NodeId st = g.addNode(Opcode::Store);
    NodeId b = g.addNode(Opcode::IAlu);
    EXPECT_DEATH(g.addEdge(st, b, 1, 0, DepKind::Flow), "");
}

TEST(DdgDeathTest, NegativeLatencyRejected)
{
    Ddg g;
    NodeId a = g.addNode(Opcode::IAlu);
    NodeId b = g.addNode(Opcode::IAlu);
    EXPECT_DEATH(g.addEdge(a, b, -1), "");
}

TEST(DdgDeathTest, BadNodeIdRejected)
{
    Ddg g;
    NodeId a = g.addNode(Opcode::IAlu);
    EXPECT_DEATH(g.addEdge(a, 7, 1), "");
}

TEST(DdgBuilder, FlowLatencyIsProducerLatency)
{
    LatencyTable lat;
    DdgBuilder b("t", lat);
    NodeId ld = b.op(Opcode::Load);
    NodeId add = b.op(Opcode::FAdd);
    EdgeId e = b.flow(ld, add);
    Ddg g = b.build();
    EXPECT_EQ(g.edge(e).latency, lat.latency(Opcode::Load));
}

TEST(DdgBuilder, CarriedEdgeDistance)
{
    LatencyTable lat;
    DdgBuilder b("t", lat);
    NodeId acc = b.op(Opcode::FAdd);
    EdgeId e = b.carried(acc, acc, 2);
    Ddg g = b.build();
    EXPECT_EQ(g.edge(e).distance, 2);
    EXPECT_EQ(g.edge(e).latency, lat.latency(Opcode::FAdd));
}

TEST(DdgBuilder, OrderEdgeExplicit)
{
    LatencyTable lat;
    DdgBuilder b("t", lat);
    NodeId st = b.op(Opcode::Store);
    NodeId ld = b.op(Opcode::Load);
    EdgeId e = b.order(st, ld, 1, 1);
    Ddg g = b.build();
    EXPECT_FALSE(g.edge(e).isFlow());
    EXPECT_EQ(g.edge(e).latency, 1);
    EXPECT_EQ(g.edge(e).distance, 1);
}

TEST(TextIo, RoundTripPreservesEverything)
{
    LatencyTable lat;
    DdgBuilder b("roundtrip", lat);
    NodeId ld = b.op(Opcode::Load, "ld");
    NodeId mul = b.op(Opcode::FMul, "mul");
    NodeId st = b.op(Opcode::Store, "st");
    b.flow(ld, mul);
    b.flow(mul, st);
    b.carried(mul, mul, 1);
    b.order(st, ld, 1, 1);
    Ddg g = b.tripCount(77).build();

    std::ostringstream oss;
    writeDdgText(oss, g);
    std::istringstream iss(oss.str());
    Ddg back = readDdgText(iss);

    EXPECT_EQ(back.name(), g.name());
    EXPECT_EQ(back.tripCount(), g.tripCount());
    ASSERT_EQ(back.numNodes(), g.numNodes());
    ASSERT_EQ(back.numEdges(), g.numEdges());
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        EXPECT_EQ(back.node(v).opcode, g.node(v).opcode);
        EXPECT_EQ(back.node(v).label, g.node(v).label);
    }
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        EXPECT_EQ(back.edge(e).src, g.edge(e).src);
        EXPECT_EQ(back.edge(e).dst, g.edge(e).dst);
        EXPECT_EQ(back.edge(e).latency, g.edge(e).latency);
        EXPECT_EQ(back.edge(e).distance, g.edge(e).distance);
        EXPECT_EQ(back.edge(e).kind, g.edge(e).kind);
    }
}

TEST(TextIo, CommentsAndBlankLinesIgnored)
{
    std::istringstream iss("# header comment\n\n"
                           "ddg tiny 5\n"
                           "node ialu a # trailing comment\n"
                           "end\n");
    Ddg g = readDdgText(iss);
    EXPECT_EQ(g.numNodes(), 1);
    EXPECT_EQ(g.tripCount(), 5);
}

// Malformed text input is user error, not a gpsched bug: the parser
// must reject with a recoverable CompileError (kind Parse), never a
// process-killing fatal/panic, so a batch driver can skip the block.

TEST(TextIoErrors, MissingHeaderThrowsParseError)
{
    std::istringstream iss("node ialu x\nend\n");
    EXPECT_THROW(readDdgText(iss), CompileError);
}

TEST(TextIoErrors, TruncatedInputThrowsParseError)
{
    std::istringstream iss("ddg t 1\nnode ialu x\n");
    try {
        readDdgText(iss);
        FAIL() << "truncated input must throw";
    } catch (const CompileError &error) {
        EXPECT_EQ(error.kind(), CompileErrorKind::Parse);
        // The block's name is attached once the header was seen.
        EXPECT_EQ(error.loopName(), "t");
        EXPECT_NE(error.location().find("textio.cc:"),
                  std::string::npos);
    }
}

TEST(TextIoErrors, EdgeToUnknownNodeThrowsNotPanics)
{
    // This exact shape used to trip Ddg::addEdge's panic; the parser
    // now pre-validates and rejects recoverably.
    std::istringstream iss("ddg t 1\n"
                           "node ialu a\n"
                           "node ialu b\n"
                           "edge 0 7 1 0\n"
                           "end\n");
    try {
        readDdgText(iss);
        FAIL() << "dangling edge must throw";
    } catch (const CompileError &error) {
        EXPECT_EQ(error.kind(), CompileErrorKind::Parse);
        EXPECT_NE(std::string(error.what()).find("unknown node"),
                  std::string::npos);
    }
}

TEST(TextIoErrors, BadOpcodeAndBadEdgeShapesThrow)
{
    const char *cases[] = {
        "ddg t 0\nend\n",                           // bad trip count
        "ddg t 1\nnode frobnicate x\nend\n",        // unknown opcode
        "ddg t 1\nnode ialu a\nedge 0 0 1 0\nend\n",// self edge dist 0
        "ddg t 1\nnode ialu a\nnode ialu b\n"
        "edge 0 1 -1 0\nend\n",                     // negative latency
        "ddg t 1\nnode store s\nnode ialu b\n"
        "edge 0 1 1 0 flow\nend\n",                 // flow from store
        "ddg t 1\nnode ialu a\nnode ialu b\n"
        "edge 0 1 1 0 sideways\nend\n",             // unknown kind
        "ddg t 1\nwibble\nend\n",                   // unknown keyword
    };
    for (const char *text : cases) {
        std::istringstream iss(text);
        EXPECT_THROW(readDdgText(iss), CompileError) << text;
    }
}

TEST(TextIoErrors, ValuesBeyondTheImporterBoundsThrow)
{
    // The text reader shares the JSON importer's bounds: trip counts
    // in [1, 2^40], latencies and distances in [0, 2^20].
    const std::string nodes = "node ialu a\nnode ialu b\n";
    for (const std::string &text : std::vector<std::string>{
             "ddg big 9223372036854775807\n" + nodes + "end\n",
             "ddg big 1099511627777\n" + nodes + "end\n",
             "ddg big 1\n" + nodes + "edge 0 1 1048577 0\nend\n",
             "ddg big 1\n" + nodes + "edge 0 1 1 1048577\nend\n"}) {
        std::istringstream iss(text);
        try {
            readDdgText(iss);
            ADD_FAILURE() << "accepted: " << text;
        } catch (const CompileError &error) {
            EXPECT_EQ(error.kind(), CompileErrorKind::Parse) << text;
            EXPECT_EQ(error.loopName(), "big") << text;
        }
    }

    std::istringstream at_bounds("ddg big 1099511627776\n" + nodes +
                                 "edge 0 1 1048576 1048576\nend\n");
    Ddg g = readDdgText(at_bounds);
    EXPECT_EQ(g.tripCount(), maxTripCount);
    EXPECT_EQ(g.edge(0).latency, maxEdgeLatency);
    EXPECT_EQ(g.edge(0).distance, maxEdgeDistance);
}

TEST(Dot, PlainExportMentionsEveryNode)
{
    LatencyTable lat;
    DdgBuilder b("dot", lat);
    b.op(Opcode::Load, "mylabel");
    b.op(Opcode::FAdd, "otherlabel");
    Ddg g = b.build();
    std::ostringstream oss;
    writeDot(oss, g);
    std::string out = oss.str();
    EXPECT_NE(out.find("digraph"), std::string::npos);
    EXPECT_NE(out.find("mylabel"), std::string::npos);
    EXPECT_NE(out.find("otherlabel"), std::string::npos);
}

TEST(Dot, ClusteredExportColorsCutEdges)
{
    LatencyTable lat;
    DdgBuilder b("dot", lat);
    NodeId a = b.op(Opcode::Load);
    NodeId c = b.op(Opcode::FAdd);
    b.flow(a, c);
    Ddg g = b.build();
    std::vector<int> clusters = {0, 1};
    std::ostringstream oss;
    writeDot(oss, g, &clusters);
    EXPECT_NE(oss.str().find("dashed"), std::string::npos);
}
