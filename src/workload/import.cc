#include "workload/import.hh"

#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <utility>

#include "support/compile_error.hh"

namespace gpsched
{

namespace
{

// ---------------------------------------------------------------
// Minimal recursive-descent JSON parser with line tracking. The
// repo's json.hh is a writer only; this reader supports exactly the
// subset the import schema needs (objects, arrays, strings with
// basic escapes, numbers, true/false/null) and records the source
// line of every value so rejections point at the offending input.
// ---------------------------------------------------------------

struct JsonValue
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> fields;

    /** 1-based input line the value started on. */
    int line = 0;

    const JsonValue *
    find(const std::string &key) const
    {
        for (const auto &field : fields) {
            if (field.first == key)
                return &field.second;
        }
        return nullptr;
    }
};

const char *
typeName(JsonValue::Type type)
{
    switch (type) {
      case JsonValue::Type::Null:
        return "null";
      case JsonValue::Type::Bool:
        return "bool";
      case JsonValue::Type::Number:
        return "number";
      case JsonValue::Type::String:
        return "string";
      case JsonValue::Type::Array:
        return "array";
      case JsonValue::Type::Object:
        return "object";
      default:
        return "?";
    }
}

class JsonParser
{
  public:
    JsonParser(std::istream &is, const std::string &filename)
        : filename_(filename)
    {
        std::ostringstream oss;
        oss << is.rdbuf();
        text_ = oss.str();
    }

    JsonValue
    parse()
    {
        JsonValue root = parseValue();
        skipWs();
        if (pos_ < text_.size())
            fail(line_, "trailing content after JSON document");
        return root;
    }

    [[noreturn]] void
    fail(int line, const std::string &message) const
    {
        GPSCHED_COMPILE_ERROR(CompileErrorKind::Parse, loopName_,
                              filename_, ":", line, ": ", message);
    }

    void setLoopName(std::string name) { loopName_ = std::move(name); }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == '\n')
                ++line_;
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fail(line_, "unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(line_, std::string("expected '") + c + "', got '" +
                            text_[pos_] + "'");
        ++pos_;
    }

    JsonValue
    parseValue()
    {
        char c = peek();
        switch (c) {
          case '{':
            return parseObject();
          case '[':
            return parseArray();
          case '"':
            return parseString();
          case 't':
          case 'f':
            return parseBool();
          case 'n':
            // "nan" shares null's leading 'n'; route it to the
            // number path so the NaN guard can report it as a
            // schema violation rather than a malformed literal.
            if (text_.compare(pos_, 3, "nan") == 0)
                return parseNumber();
            return parseNull();
          default:
            return parseNumber();
        }
    }

    JsonValue
    parseObject()
    {
        JsonValue v;
        v.type = JsonValue::Type::Object;
        v.line = line_;
        expect('{');
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            JsonValue key = parseString();
            expect(':');
            v.fields.emplace_back(key.text, parseValue());
            char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    parseArray()
    {
        JsonValue v;
        v.type = JsonValue::Type::Array;
        v.line = line_;
        expect('[');
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.items.push_back(parseValue());
            char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue
    parseString()
    {
        JsonValue v;
        v.type = JsonValue::Type::String;
        expect('"');
        v.line = line_;
        while (true) {
            if (pos_ >= text_.size())
                fail(v.line, "unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return v;
            if (c == '\n')
                fail(v.line, "unterminated string");
            if (c != '\\') {
                v.text += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail(v.line, "unterminated escape");
            char esc = text_[pos_++];
            switch (esc) {
              case '"':
              case '\\':
              case '/':
                v.text += esc;
                break;
              case 'n':
                v.text += '\n';
                break;
              case 't':
                v.text += '\t';
                break;
              case 'r':
                v.text += '\r';
                break;
              default:
                fail(v.line, std::string("unsupported escape '\\") +
                                 esc + "'");
            }
        }
    }

    JsonValue
    parseBool()
    {
        JsonValue v;
        v.type = JsonValue::Type::Bool;
        v.line = line_;
        if (text_.compare(pos_, 4, "true") == 0) {
            v.boolean = true;
            pos_ += 4;
        } else if (text_.compare(pos_, 5, "false") == 0) {
            v.boolean = false;
            pos_ += 5;
        } else {
            fail(line_, "malformed literal");
        }
        return v;
    }

    JsonValue
    parseNull()
    {
        JsonValue v;
        v.line = line_;
        if (text_.compare(pos_, 4, "null") != 0)
            fail(line_, "malformed literal");
        pos_ += 4;
        return v;
    }

    JsonValue
    parseNumber()
    {
        JsonValue v;
        v.type = JsonValue::Type::Number;
        v.line = line_;
        std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        // Accept nan/inf spellings so the validation layer can
        // reject them with a schema diagnostic instead of a
        // character-level parse error.
        if (text_.compare(pos_, 3, "nan") == 0 ||
            text_.compare(pos_, 3, "NaN") == 0) {
            pos_ += 3;
            v.number = std::nan("");
            return v;
        }
        if (text_.compare(pos_, 3, "inf") == 0) {
            pos_ += 3;
            v.number = text_[start] == '-' ? -HUGE_VAL : HUGE_VAL;
            return v;
        }
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if ((c >= '0' && c <= '9') || c == '.' || c == 'e' ||
                c == 'E' || c == '+' || c == '-') {
                ++pos_;
                continue;
            }
            break;
        }
        if (pos_ == start)
            fail(line_, std::string("unexpected character '") +
                            text_[start] + "'");
        try {
            v.number = std::stod(text_.substr(start, pos_ - start));
        } catch (const std::exception &) {
            fail(v.line, "malformed number '" +
                             text_.substr(start, pos_ - start) + "'");
        }
        return v;
    }

    std::string filename_;
    std::string loopName_;
    std::string text_;
    std::size_t pos_ = 0;
    int line_ = 1;
};

// ---------------------------------------------------------------
// Schema layer.
// ---------------------------------------------------------------

const JsonValue &
require(const JsonParser &p, const JsonValue &obj,
        const std::string &key, JsonValue::Type type)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        p.fail(obj.line, "missing required key \"" + key + "\"");
    if (v->type != type)
        p.fail(v->line, "\"" + key + "\" must be a " +
                            typeName(type) + ", got " +
                            typeName(v->type));
    return *v;
}

/** Integer field with NaN/inf/fraction/range rejection. */
std::int64_t
intField(const JsonParser &p, const JsonValue &obj,
         const std::string &key, std::int64_t fallback,
         std::int64_t lo, std::int64_t hi)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        return fallback;
    if (v->type != JsonValue::Type::Number)
        p.fail(v->line, "\"" + key + "\" must be a number, got " +
                            typeName(v->type));
    double d = v->number;
    if (std::isnan(d))
        p.fail(v->line, "\"" + key + "\" is NaN");
    if (std::isinf(d))
        p.fail(v->line, "\"" + key + "\" is infinite");
    if (d != std::floor(d))
        p.fail(v->line, "\"" + key + "\" must be an integer, got " +
                            std::to_string(d));
    auto n = static_cast<std::int64_t>(d);
    if (n < lo || n > hi)
        p.fail(v->line, "\"" + key + "\" = " + std::to_string(n) +
                            " out of range [" + std::to_string(lo) +
                            ", " + std::to_string(hi) + "]");
    return n;
}

Ddg
importLoop(JsonParser &p, const JsonValue &loopObj,
           const LatencyTable &lat)
{
    if (loopObj.type != JsonValue::Type::Object)
        p.fail(loopObj.line, std::string("loop must be an object, got ") +
                                 typeName(loopObj.type));
    std::string name = "imported";
    if (const JsonValue *nv = loopObj.find("name")) {
        if (nv->type != JsonValue::Type::String)
            p.fail(nv->line, "\"name\" must be a string");
        name = nv->text;
    }
    p.setLoopName(name);
    Ddg g(name);
    g.setTripCount(intField(p, loopObj, "trip", 100, 1, maxTripCount));

    const JsonValue &nodes =
        require(p, loopObj, "nodes", JsonValue::Type::Array);
    if (nodes.items.empty())
        p.fail(nodes.line, "\"nodes\" is empty");
    std::vector<int> nodeLatency;
    for (const JsonValue &nodeObj : nodes.items) {
        if (nodeObj.type != JsonValue::Type::Object)
            p.fail(nodeObj.line,
                   std::string("node must be an object, got ") +
                       typeName(nodeObj.type));
        const JsonValue &opText =
            require(p, nodeObj, "op", JsonValue::Type::String);
        Opcode op;
        if (!opcodeFromString(opText.text, op))
            p.fail(opText.line,
                   "unknown opcode \"" + opText.text + "\"");
        if (!isProgramOpcode(op))
            p.fail(opText.line, "opcode \"" + opText.text +
                                    "\" is scheduler overhead and "
                                    "cannot appear in an input loop");
        std::string label;
        if (const JsonValue *lv = nodeObj.find("label")) {
            if (lv->type != JsonValue::Type::String)
                p.fail(lv->line, "\"label\" must be a string");
            label = lv->text;
        }
        g.addNode(op, label);
        nodeLatency.push_back(static_cast<int>(
            intField(p, nodeObj, "latency", lat.latency(op), 0,
                     maxEdgeLatency)));
    }

    const JsonValue *edges = loopObj.find("edges");
    if (edges && edges->type != JsonValue::Type::Array)
        p.fail(edges->line, "\"edges\" must be an array");
    int numNodes = g.numNodes();
    if (edges) {
        for (const JsonValue &edgeObj : edges->items) {
            if (edgeObj.type != JsonValue::Type::Object)
                p.fail(edgeObj.line,
                       std::string("edge must be an object, got ") +
                           typeName(edgeObj.type));
            auto src = static_cast<NodeId>(
                intField(p, edgeObj, "src", -1, -(1 << 30), 1 << 30));
            auto dst = static_cast<NodeId>(
                intField(p, edgeObj, "dst", -1, -(1 << 30), 1 << 30));
            if (src < 0 || src >= numNodes)
                p.fail(edgeObj.line, "edge src " + std::to_string(src) +
                                         " out of range [0, " +
                                         std::to_string(numNodes) +
                                         ")");
            if (dst < 0 || dst >= numNodes)
                p.fail(edgeObj.line, "edge dst " + std::to_string(dst) +
                                         " out of range [0, " +
                                         std::to_string(numNodes) +
                                         ")");
            DepKind kind = DepKind::Flow;
            if (const JsonValue *kv = edgeObj.find("kind")) {
                if (kv->type != JsonValue::Type::String)
                    p.fail(kv->line, "\"kind\" must be a string");
                if (kv->text == "flow")
                    kind = DepKind::Flow;
                else if (kv->text == "order")
                    kind = DepKind::Order;
                else
                    p.fail(kv->line, "unknown edge kind \"" +
                                         kv->text +
                                         "\" (want flow|order)");
            }
            int latency = static_cast<int>(intField(
                p, edgeObj, "latency",
                nodeLatency[static_cast<std::size_t>(src)], 0,
                maxEdgeLatency));
            int distance = static_cast<int>(intField(
                p, edgeObj, "distance", 0, 0, maxEdgeDistance));
            if (kind == DepKind::Flow &&
                !definesValue(g.node(src).opcode))
                p.fail(edgeObj.line,
                       "flow edge from node " + std::to_string(src) +
                           " (" + toString(g.node(src).opcode) +
                           "), which defines no value");
            if (src == dst && distance == 0)
                p.fail(edgeObj.line,
                       "self-edge on node " + std::to_string(src) +
                           " requires distance >= 1");
            g.addEdge(src, dst, latency, distance, kind);
        }
    }
    return g;
}

} // namespace

std::vector<Ddg>
importDdgJson(std::istream &is, const std::string &filename,
              const LatencyTable &lat)
{
    JsonParser p(is, filename);
    JsonValue root = p.parse();

    std::vector<Ddg> loops;
    if (root.type == JsonValue::Type::Object && root.find("nodes")) {
        loops.push_back(importLoop(p, root, lat));
        return loops;
    }
    const JsonValue *list = nullptr;
    if (root.type == JsonValue::Type::Object) {
        list = root.find("loops");
        if (!list)
            p.fail(root.line,
                   "top-level object has neither \"loops\" nor "
                   "\"nodes\"");
        if (list->type != JsonValue::Type::Array)
            p.fail(list->line, "\"loops\" must be an array");
    } else if (root.type == JsonValue::Type::Array) {
        list = &root;
    } else {
        p.fail(root.line,
               std::string("top-level value must be an object or "
                           "array, got ") +
                   typeName(root.type));
    }
    if (list->items.empty())
        p.fail(list->line, "no loops in input");
    for (const JsonValue &loopObj : list->items)
        loops.push_back(importLoop(p, loopObj, lat));
    return loops;
}

} // namespace gpsched
