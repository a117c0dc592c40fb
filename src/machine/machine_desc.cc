#include "machine/machine_desc.hh"

#include <fstream>
#include <sstream>

#include "support/logging.hh"

namespace gpsched
{

namespace
{

/** Upper bound on any count in a description; keeps downstream
 *  capacity arithmetic far from overflow. */
constexpr int maxDescValue = 1 << 16;

/** Splits a line into whitespace-separated tokens, '#' starts a
 *  comment. */
std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> tokens;
    std::string current;
    for (char ch : line) {
        if (ch == '#')
            break;
        if (ch == ' ' || ch == '\t' || ch == '\r') {
            if (!current.empty()) {
                tokens.push_back(current);
                current.clear();
            }
            continue;
        }
        current += ch;
    }
    if (!current.empty())
        tokens.push_back(current);
    return tokens;
}

/** Non-fatal opcode lookup over the op.hh mnemonics. */
std::optional<Opcode>
tryOpcodeFromString(const std::string &text)
{
    for (int i = 0; i < numOpcodes; ++i) {
        Opcode op = static_cast<Opcode>(i);
        if (toString(op) == text)
            return op;
    }
    return std::nullopt;
}

/** Parser state threading the input position into diagnostics. */
class DescParser
{
  public:
    DescParser(std::istream &in, std::string filename)
        : in_(in), filename_(std::move(filename))
    {
    }

    std::optional<MachineConfig>
    run(MachineParseError *error)
    {
        std::optional<MachineConfig> machine = parse();
        if (!machine && error)
            *error = error_;
        return machine;
    }

  private:
    std::istream &in_;
    std::string filename_;
    int line_ = 0;
    MachineParseError error_;

    bool
    fail(int line, const std::string &message)
    {
        error_.file = filename_;
        error_.line = line;
        error_.message = message;
        return false;
    }

    /** Strict bounded integer parse. */
    bool
    parseInt(const std::string &text, const std::string &what,
             int min_value, int &out)
    {
        std::size_t used = 0;
        long value = 0;
        try {
            value = std::stol(text, &used, 10);
        } catch (...) {
            return fail(line_, what + " needs an integer, got '" +
                                    text + "'");
        }
        if (used != text.size())
            return fail(line_, what + " needs an integer, got '" +
                                    text + "'");
        if (value < min_value)
            return fail(line_, what + " must be >= " +
                                    std::to_string(min_value) +
                                    ", got " + text);
        if (value > maxDescValue)
            return fail(line_, what + " is out of range (max " +
                                    std::to_string(maxDescValue) +
                                    ")");
        out = static_cast<int>(value);
        return true;
    }

    bool
    parseCluster(const std::vector<std::string> &tokens,
                 ClusterDesc &cluster)
    {
        if (tokens.size() != 10) {
            return fail(line_,
                        "cluster needs 'cluster NAME int N fp N mem "
                        "N regs N'");
        }
        cluster.name = tokens[1];
        bool seen[4] = {false, false, false, false};
        for (std::size_t i = 2; i + 1 < tokens.size(); i += 2) {
            const std::string &key = tokens[i];
            const std::string &value = tokens[i + 1];
            int slot;
            int *target;
            int min_value = 0;
            if (key == "int") {
                slot = 0;
                target = &cluster.fu[static_cast<int>(FuClass::Int)];
            } else if (key == "fp") {
                slot = 1;
                target = &cluster.fu[static_cast<int>(FuClass::Fp)];
            } else if (key == "mem") {
                slot = 2;
                target = &cluster.fu[static_cast<int>(FuClass::Mem)];
            } else if (key == "regs") {
                slot = 3;
                target = &cluster.regs;
                min_value = 1;
            } else {
                return fail(line_, "unknown cluster keyword '" + key +
                                       "' (int|fp|mem|regs)");
            }
            if (seen[slot])
                return fail(line_, "duplicate cluster keyword '" +
                                       key + "'");
            seen[slot] = true;
            if (!parseInt(value, "cluster " + key, min_value, *target))
                return false;
        }
        for (int s = 0; s < 4; ++s) {
            if (!seen[s]) {
                static const char *names[4] = {"int", "fp", "mem",
                                               "regs"};
                return fail(line_,
                            std::string("cluster is missing '") +
                                names[s] + "'");
            }
        }
        return true;
    }

    bool
    parseBuses(const std::vector<std::string> &tokens, BusDesc &bus)
    {
        if (tokens.size() != 4 || tokens[2] != "latency") {
            return fail(line_,
                        "buses needs 'buses COUNT latency N'");
        }
        return parseInt(tokens[1], "bus count", 1, bus.count) &&
               parseInt(tokens[3], "bus latency", 1, bus.latency);
    }

    bool
    parseLatency(const std::vector<std::string> &tokens,
                 LatencyTable &lat)
    {
        if (tokens.size() != 3 &&
            (tokens.size() != 5 || tokens[3] != "occupancy")) {
            return fail(line_, "latency needs 'latency OPCODE N "
                               "[occupancy N]'");
        }
        std::optional<Opcode> op = tryOpcodeFromString(tokens[1]);
        if (!op) {
            return fail(line_,
                        "unknown opcode mnemonic '" + tokens[1] + "'");
        }
        OpTiming timing = lat.timing(*op);
        if (!parseInt(tokens[2], "latency", 1, timing.latency))
            return false;
        if (tokens.size() == 5 &&
            !parseInt(tokens[4], "occupancy", 1, timing.occupancy))
            return false;
        lat.setTiming(*op, timing);
        return true;
    }

    std::optional<MachineConfig>
    parse()
    {
        std::string name;
        std::vector<ClusterDesc> clusters;
        std::vector<BusDesc> buses;
        LatencyTable latencies;
        bool sawMachine = false;
        bool sawEnd = false;
        int endLine = 0;

        std::string text;
        while (std::getline(in_, text)) {
            ++line_;
            std::vector<std::string> tokens = tokenize(text);
            if (tokens.empty())
                continue;
            if (sawEnd) {
                fail(line_, "unexpected '" + tokens[0] +
                                "' after 'end'");
                return std::nullopt;
            }
            const std::string &directive = tokens[0];
            if (!sawMachine) {
                if (directive != "machine" || tokens.size() != 2) {
                    fail(line_,
                         "a description starts with 'machine NAME'");
                    return std::nullopt;
                }
                name = tokens[1];
                sawMachine = true;
                continue;
            }
            if (directive == "machine") {
                fail(line_, "duplicate 'machine' directive");
                return std::nullopt;
            } else if (directive == "cluster") {
                ClusterDesc cluster;
                if (!parseCluster(tokens, cluster))
                    return std::nullopt;
                for (const ClusterDesc &existing : clusters) {
                    if (existing.name == cluster.name) {
                        fail(line_, "duplicate cluster name '" +
                                        cluster.name + "'");
                        return std::nullopt;
                    }
                }
                clusters.push_back(cluster);
            } else if (directive == "buses") {
                BusDesc bus;
                if (!parseBuses(tokens, bus))
                    return std::nullopt;
                buses.push_back(bus);
            } else if (directive == "latency") {
                if (!parseLatency(tokens, latencies))
                    return std::nullopt;
            } else if (directive == "end") {
                if (tokens.size() != 1) {
                    fail(line_, "'end' takes no arguments");
                    return std::nullopt;
                }
                sawEnd = true;
                endLine = line_;
            } else {
                fail(line_,
                     "unknown directive '" + directive +
                         "' (cluster|buses|latency|end)");
                return std::nullopt;
            }
        }
        if (!sawMachine) {
            fail(0, "empty description: expected 'machine NAME'");
            return std::nullopt;
        }
        if (!sawEnd) {
            fail(line_, "missing 'end' directive");
            return std::nullopt;
        }

        // Whole-machine validation, anchored to the 'end' line. The
        // same invariants MachineConfig enforces fatally are reported
        // as diagnostics here.
        if (clusters.empty()) {
            fail(endLine, "machine needs at least one cluster");
            return std::nullopt;
        }
        for (const ClusterDesc &cluster : clusters) {
            if (cluster.issueWidth() < 1) {
                fail(endLine, "cluster '" + cluster.name +
                                  "' has no functional units");
                return std::nullopt;
            }
        }
        for (int k = 0; k < numFuClasses; ++k) {
            int total = 0;
            for (const ClusterDesc &cluster : clusters)
                total += cluster.fu[k];
            if (total < 1) {
                fail(endLine,
                     "machine has no " +
                         toString(static_cast<FuClass>(k)) +
                         " unit in any cluster");
                return std::nullopt;
            }
        }
        if (clusters.size() > 1 && buses.empty()) {
            fail(endLine, "clustered machines need at least one bus");
            return std::nullopt;
        }
        if (clusters.size() == 1 && !buses.empty()) {
            fail(endLine,
                 "a unified machine must not declare buses");
            return std::nullopt;
        }

        MachineConfig machine(name, std::move(clusters),
                              std::move(buses));
        machine.latencies() = latencies;
        return machine;
    }
};

} // namespace

std::string
MachineParseError::toString() const
{
    std::ostringstream oss;
    oss << (file.empty() ? "<machine>" : file) << ":" << line << ": "
        << message;
    return oss.str();
}

std::optional<MachineConfig>
parseMachineDesc(std::istream &in, const std::string &filename,
                 MachineParseError *error)
{
    DescParser parser(in, filename);
    return parser.run(error);
}

std::optional<MachineConfig>
parseMachineDescFile(const std::string &path, MachineParseError *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error) {
            error->file = path;
            error->line = 0;
            error->message = "cannot open machine description file";
        }
        return std::nullopt;
    }
    return parseMachineDesc(in, path, error);
}

MachineConfig
loadMachineFile(const std::string &path)
{
    MachineParseError error;
    std::optional<MachineConfig> machine =
        parseMachineDescFile(path, &error);
    if (!machine)
        GPSCHED_FATAL(error.toString());
    return *machine;
}

} // namespace gpsched
