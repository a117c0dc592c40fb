#include "graph/textio.hh"

#include <sstream>
#include <string>

#include "support/compile_error.hh"
#include "support/logging.hh"

namespace gpsched
{

void
writeDdgText(std::ostream &os, const Ddg &ddg)
{
    os << "ddg " << ddg.name() << " " << ddg.tripCount() << "\n";
    for (NodeId v = 0; v < ddg.numNodes(); ++v) {
        const auto &n = ddg.node(v);
        os << "node " << toString(n.opcode) << " " << n.label << "\n";
    }
    for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
        const auto &edge = ddg.edge(e);
        os << "edge " << edge.src << " " << edge.dst << " "
           << edge.latency << " " << edge.distance << " "
           << (edge.isFlow() ? "flow" : "order") << "\n";
    }
    os << "end\n";
}

Ddg
readDdgText(std::istream &is)
{
    std::string line;
    bool headerSeen = false;
    Ddg ddg;

    // Parse rejections are per-loop CompileErrors, carrying the
    // block's name once the header has been seen so batch front-ends
    // can attribute the diagnostic to the right loop and move on.
    auto fail = [&](const std::string &message) {
        GPSCHED_COMPILE_ERROR(CompileErrorKind::Parse,
                              headerSeen ? ddg.name() : "", message);
    };

    while (std::getline(is, line)) {
        // Strip comments.
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream ls(line);
        std::string keyword;
        if (!(ls >> keyword))
            continue;

        if (keyword == "ddg") {
            std::string name;
            std::int64_t trips = 0;
            if (!(ls >> name >> trips))
                fail(buildMessage("malformed ddg header: '", line,
                                  "'"));
            ddg = Ddg(name);
            headerSeen = true;
            if (trips < 1 || trips > maxTripCount)
                fail(buildMessage("trip count outside [1, ",
                                  maxTripCount, "]: '", line, "'"));
            ddg.setTripCount(trips);
        } else if (keyword == "node") {
            if (!headerSeen)
                fail("node before ddg header");
            std::string mnemonic, label;
            if (!(ls >> mnemonic))
                fail(buildMessage("malformed node line: '", line,
                                  "'"));
            ls >> label; // optional
            Opcode opcode;
            if (!opcodeFromString(mnemonic, opcode))
                fail(buildMessage("unknown opcode mnemonic '",
                                  mnemonic, "'"));
            ddg.addNode(opcode, label);
        } else if (keyword == "edge") {
            if (!headerSeen)
                fail("edge before ddg header");
            int src, dst, lat, dist;
            if (!(ls >> src >> dst >> lat >> dist))
                fail(buildMessage("malformed edge line: '", line,
                                  "'"));
            // Validate here what Ddg::addEdge asserts: its asserts
            // guard against gpsched bugs (panic), but this data is
            // user input and must reject with a recoverable
            // diagnostic instead.
            if (src < 0 || src >= ddg.numNodes() || dst < 0 ||
                dst >= ddg.numNodes())
                fail(buildMessage("edge references unknown node: '",
                                  line, "'"));
            if (lat < 0 || lat > maxEdgeLatency || dist < 0 ||
                dist > maxEdgeDistance)
                fail(buildMessage(
                    "edge latency/distance out of range: '", line,
                    "'"));
            if (src == dst && dist < 1)
                fail(buildMessage(
                    "self edge must be loop-carried: '", line, "'"));
            std::string kindText = "flow";
            ls >> kindText; // optional, defaults to flow
            DepKind kind;
            if (kindText == "flow")
                kind = DepKind::Flow;
            else if (kindText == "order")
                kind = DepKind::Order;
            else
                fail(buildMessage("unknown edge kind '", kindText,
                                  "'"));
            if (kind == DepKind::Flow &&
                !definesValue(ddg.node(src).opcode))
                fail(buildMessage("flow edge from non-defining op ",
                                  toString(ddg.node(src).opcode),
                                  ": '", line, "'"));
            ddg.addEdge(src, dst, lat, dist, kind);
        } else if (keyword == "end") {
            if (!headerSeen)
                fail("end before ddg header");
            return ddg;
        } else {
            fail(buildMessage("unknown keyword '", keyword, "'"));
        }
    }
    fail("unexpected end of input while reading ddg");
    GPSCHED_PANIC("unreachable"); // fail() always throws
}

namespace
{

/** First word of @p line before any '#' comment ("" when none). */
std::string
firstWord(const std::string &line)
{
    std::istringstream ls(line.substr(0, line.find('#')));
    std::string word;
    ls >> word;
    return word;
}

/**
 * Leaves @p is before the next line whose first word is @p keyword,
 * or any non-blank line when @p keyword is empty; false (at end of
 * input) when there is none.
 */
bool
seekLine(std::istream &is, const std::string &keyword)
{
    std::string line;
    std::streampos before = is.tellg();
    while (std::getline(is, line)) {
        std::string word = firstWord(line);
        if (!word.empty() && (keyword.empty() || word == keyword)) {
            is.seekg(before);
            return true;
        }
        before = is.tellg();
    }
    return false;
}

} // namespace

void
readDdgBlocks(std::istream &is,
              const std::function<void(Ddg)> &onBlock,
              const std::function<void(const CompileError &)> &onError)
{
    // Peek for content before each parse so trailing blank lines and
    // comments don't read as a truncated block.
    while (seekLine(is, "")) {
        Ddg ddg;
        try {
            ddg = readDdgText(is);
        } catch (const CompileError &error) {
            if (!onError)
                throw;
            onError(error);
            is.clear();
            seekLine(is, "ddg");
            continue;
        }
        onBlock(std::move(ddg));
    }
}

} // namespace gpsched
