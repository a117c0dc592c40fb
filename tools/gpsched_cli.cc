/**
 * @file
 * gpsched command-line front-end: read text-format DDGs (see
 * graph/textio.hh; a file may hold several `ddg ... end` blocks),
 * schedule them through the batch engine for one machine under one
 * or all schemes, and emit a JSON report with per-loop schedule
 * metrics and engine/cache statistics.
 *
 * Usage:
 *   gpsched_cli [options] <ddg-file>...
 *     --machine SPEC    legacy preset (unified|2cluster|4cluster,
 *                       shaped by --regs/--buses/--bus-latency), a
 *                       registry name (e.g. 4c-r64-b1), or a path to
 *                       a .machine description file (default
 *                       4cluster)
 *     --list-machines   print the registry names and exit
 *     --regs N          total registers (default 64; legacy presets)
 *     --buses N         inter-cluster buses (default 1; legacy)
 *     --bus-latency N   bus transfer latency (default 1; legacy)
 *     --scheme uracam|fixed|gp|all          scheme (default gp)
 *     --jobs N          engine workers; 0 = hardware (default 0)
 *     --repeat N        compile the batch N times (cache demo)
 *     --cache-dir PATH  persistent compile cache directory; results
 *                       are reused across runs (default: disabled)
 *     --keep-going      per-loop fault isolation: a malformed or
 *                       rejected loop becomes an error object in the
 *                       report instead of aborting the run; exit
 *                       status is nonzero iff any loop failed
 *     --simulate        check every compiled loop with both oracles
 *                       (sim::verifyCompiled) and add verdict/
 *                       replayed/simOk/achievedII/achievedIpc to each
 *                       loop row (simFault on a rejected replay);
 *                       exit status is nonzero iff a verdict is not
 *                       "pass"
 *     --json PATH       report path; '-' = stdout (default '-')
 *     --stats-json PATH unified metric-registry dump (engine/cache/
 *                       disk/pool/phase counters; see
 *                       docs/ARCHITECTURE.md "Telemetry")
 *     --trace PATH      Chrome trace-event file (one pid per engine,
 *                       one tid per worker; load in Perfetto or
 *                       chrome://tracing)
 *
 * Without --keep-going the first failing loop ends the run with a
 * fatal file:line diagnostic (the historical behavior).
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "engine/engine.hh"
#include "graph/textio.hh"
#include "machine/configs.hh"
#include "machine/registry.hh"
#include "sim/replay.hh"
#include "support/args.hh"
#include "support/compile_error.hh"
#include "support/json.hh"
#include "support/logging.hh"

using namespace gpsched;

namespace
{

struct CliOptions
{
    std::string machine = "4cluster";
    int regs = 64;
    int buses = 1;
    int busLatency = 1;
    bool legacyShapeFlags = false; ///< --regs/--buses/--bus-latency
    std::string scheme = "gp";
    int jobs = 0;
    int repeat = 1;
    std::string cacheDir;
    bool keepGoing = false;
    bool simulate = false;
    std::string jsonPath = "-";
    std::string statsJsonPath; ///< metric-registry dump; empty = off
    std::string tracePath;     ///< Chrome trace file; empty = off
    std::vector<std::string> files;
};

[[noreturn]] void
usage(const char *argv0, int status)
{
    std::ostream &os = status == 0 ? std::cout : std::cerr;
    os << "usage: " << argv0 << " [options] <ddg-file>...\n"
       << "  --machine SPEC   unified|2cluster|4cluster preset, a\n"
       << "                   registry name (see --list-machines) or\n"
       << "                   a .machine file path (default 4cluster)\n"
       << "  --list-machines  print registry machine names and exit\n"
       << "  --regs N         total registers (default 64; legacy\n"
       << "                   presets only)\n"
       << "  --buses N        inter-cluster buses (default 1; legacy)\n"
       << "  --bus-latency N  bus latency cycles (default 1; legacy)\n"
       << "  --scheme uracam|fixed|gp|all (default gp)\n"
       << "  --jobs N         engine workers, 0 = hardware (default 0)\n"
       << "  --repeat N       compile the batch N times (default 1)\n"
       << "  --cache-dir PATH persistent compile cache directory\n"
       << "                   (reused across runs; default off)\n"
       << "  --keep-going     report per-loop failures as JSON error\n"
       << "                   objects instead of aborting; exit 1\n"
       << "                   iff any loop failed\n"
       << "  --simulate       check compiled loops with the validator\n"
       << "                   and the simulator; adds verdict/simOk/\n"
       << "                   achievedII/achievedIpc per loop, exit 1\n"
       << "                   iff a verdict is not pass\n"
       << "  --json PATH      JSON report path, '-' = stdout\n"
       << "  --stats-json PATH  write the unified metric registry\n"
       << "                   (engine/disk/pool/phase) as JSON\n"
       << "  --trace PATH     write a Chrome trace-event file\n"
       << "                   (Perfetto-loadable)\n";
    std::exit(status);
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions options;
    auto needValue = [&](int &i) -> std::string {
        if (i + 1 >= argc) {
            std::cerr << argv[0] << ": " << argv[i]
                      << " needs a value\n";
            usage(argv[0], 2);
        }
        return argv[++i];
    };
    auto countValue = [&](int &i) {
        std::string flag = argv[i];
        return parseCount(argv[0], flag, needValue(i));
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--machine") {
            options.machine = needValue(i);
        } else if (arg == "--list-machines") {
            for (const std::string &name :
                 MachineRegistry::builtin().names())
                std::cout << name << "\n";
            std::exit(0);
        } else if (arg == "--regs") {
            options.regs = countValue(i);
            options.legacyShapeFlags = true;
        } else if (arg == "--buses") {
            options.buses = countValue(i);
            options.legacyShapeFlags = true;
        } else if (arg == "--bus-latency") {
            options.busLatency = countValue(i);
            options.legacyShapeFlags = true;
        } else if (arg == "--scheme")
            options.scheme = needValue(i);
        else if (arg == "--jobs")
            options.jobs = countValue(i);
        else if (arg == "--repeat")
            options.repeat = countValue(i);
        else if (arg == "--cache-dir")
            options.cacheDir = needValue(i);
        else if (arg == "--keep-going")
            options.keepGoing = true;
        else if (arg == "--simulate")
            options.simulate = true;
        else if (arg == "--json")
            options.jsonPath = needValue(i);
        else if (arg == "--stats-json")
            options.statsJsonPath = needValue(i);
        else if (arg == "--trace")
            options.tracePath = needValue(i);
        else if (arg == "--help" || arg == "-h")
            usage(argv[0], 0);
        else if (!arg.empty() && arg[0] == '-') {
            std::cerr << argv[0] << ": unknown option '" << arg
                      << "'\n";
            usage(argv[0], 2);
        } else {
            options.files.push_back(arg);
        }
    }
    if (options.files.empty()) {
        std::cerr << argv[0] << ": no input files\n";
        usage(argv[0], 2);
    }
    if (options.jobs < 0 || options.repeat < 1)
        GPSCHED_FATAL("--jobs must be >= 0 and --repeat >= 1");
    return options;
}

MachineConfig
machineFor(const CliOptions &options)
{
    // Legacy presets keep their shape flags.
    if (options.machine == "unified")
        return unifiedConfig(options.regs);
    if (options.machine == "2cluster")
        return twoClusterConfig(options.regs, options.busLatency,
                                options.buses);
    if (options.machine == "4cluster")
        return fourClusterConfig(options.regs, options.busLatency,
                                 options.buses);
    // Anything else is a registry name or a .machine file, whose
    // shape is fully self-described.
    if (options.legacyShapeFlags)
        GPSCHED_FATAL("--regs/--buses/--bus-latency only apply to "
                      "the unified|2cluster|4cluster presets, not "
                      "to '",
                      options.machine, "'");
    return MachineRegistry::builtin().resolve(options.machine);
}

std::vector<SchedulerKind>
schemesFor(const CliOptions &options)
{
    if (options.scheme == "all") {
        std::vector<SchedulerKind> all;
        for (const SchemeName &scheme : kSchemeNames)
            all.push_back(scheme.kind);
        return all;
    }
    if (std::optional<SchedulerKind> kind =
            parseSchemeFlag(options.scheme))
        return {*kind};
    GPSCHED_FATAL("unknown scheme '", options.scheme,
                  "' (uracam|fixed|gp|all)");
}

/** One input block and where it came from; either a parsed DDG or a
 *  parse diagnostic (--keep-going records the latter and goes on). */
struct InputLoop
{
    std::string file;
    Ddg ddg;
    std::optional<CompileError> parseError;

    bool parsed() const { return !parseError.has_value(); }
};

/**
 * Reads every `ddg ... end` block of every input file. A block that
 * fails to parse throws its CompileError unless @p keepGoing, in
 * which case it is recorded as a failed InputLoop and parsing
 * resumes at the next block.
 */
std::vector<InputLoop>
readInputs(const std::vector<std::string> &files, bool keepGoing)
{
    std::vector<InputLoop> loops;
    for (const std::string &path : files) {
        std::ifstream in(path);
        if (!in)
            GPSCHED_FATAL("cannot open DDG file '", path, "'");
        const std::size_t before = loops.size();
        auto onBlock = [&](Ddg ddg) {
            InputLoop input;
            input.file = path;
            input.ddg = std::move(ddg);
            loops.push_back(std::move(input));
        };
        auto onError = [&](const CompileError &error) {
            GPSCHED_WARN("skipping malformed DDG block in '", path,
                         "': ", error.what());
            InputLoop bad;
            bad.file = path;
            bad.parseError = error;
            loops.push_back(std::move(bad));
        };
        if (keepGoing)
            readDdgBlocks(in, onBlock, onError);
        else
            readDdgBlocks(in, onBlock);
        if (loops.size() == before)
            GPSCHED_FATAL("no DDGs found in '", path, "'");
    }
    return loops;
}

/** The report's error-object schema: kind, message, location. */
void
writeErrorObject(JsonWriter &json, const CompileError &error)
{
    json.beginObject("error");
    json.member("kind", toString(error.kind()));
    json.member("message", error.what());
    json.member("location", error.location());
    json.endObject();
}

void
writeReport(std::ostream &os, const CliOptions &options,
            const MachineConfig &machine,
            const std::vector<SchedulerKind> &schemes,
            const std::vector<InputLoop> &inputs,
            const std::vector<CompileResult> &results,
            const std::vector<std::optional<sim::Verdict>> &verdicts,
            const Engine &engine)
{
    JsonWriter json(os);
    json.beginObject();
    json.member("schemaVersion", 2);
    json.member("tool", "gpsched_cli");
    json.beginObject("machine");
    json.member("name", machine.name());
    json.member("clusters", machine.numClusters());
    json.member("homogeneous", machine.homogeneous());
    json.member("totalIssueWidth", machine.totalIssueWidth());
    json.member("totalRegs", machine.totalRegs());
    json.member("buses", machine.numBuses());
    json.beginArray("clusterConfigs");
    for (int c = 0; c < machine.numClusters(); ++c) {
        const ClusterDesc &cluster = machine.cluster(c);
        json.beginObject();
        json.member("name", cluster.name);
        json.member("int",
                    machine.fuInCluster(c, FuClass::Int));
        json.member("fp", machine.fuInCluster(c, FuClass::Fp));
        json.member("mem",
                    machine.fuInCluster(c, FuClass::Mem));
        json.member("regs", cluster.regs);
        json.endObject();
    }
    json.endArray();
    json.beginArray("busClasses");
    for (int i = 0; i < machine.numBusClasses(); ++i) {
        json.beginObject();
        json.member("count", machine.busClass(i).count);
        json.member("latency", machine.busClass(i).latency);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    json.beginArray("loops");
    // Engine results cover the parsed inputs only, scheme-major in
    // the same order the batch was built.
    std::size_t next = 0;
    for (const SchedulerKind kind : schemes) {
        for (const InputLoop &input : inputs) {
            json.beginObject();
            json.member("file", input.file);
            if (!input.parsed()) {
                json.member("name", input.parseError->loopName());
                json.member("scheme", toString(kind));
                writeErrorObject(json, *input.parseError);
                json.endObject();
                continue;
            }
            const CompileResult &result = results[next++];
            json.member("name", result.ok()
                                    ? result.loop.loopName
                                    : result.error->loopName());
            json.member("scheme", toString(kind));
            json.member("nodes", input.ddg.numNodes());
            json.member("edges", input.ddg.numEdges());
            json.member("tripCount", input.ddg.tripCount());
            // Per-row warm/cold inspectability: how this row was
            // obtained and how long the engine spent on it.
            json.member("source", compileSourceName(result.source));
            json.member("compileMs", result.compileMs);
            if (!result.ok()) {
                writeErrorObject(json, *result.error);
                json.endObject();
                continue;
            }
            const CompiledLoop &loop = result.loop;
            json.member("moduloScheduled", loop.moduloScheduled);
            json.member("mii", loop.mii);
            json.member("ii", loop.ii);
            json.member("scheduleLength", loop.scheduleLength);
            json.member("cycles", loop.cycles);
            json.member("ops", loop.ops);
            json.member("ipc", loop.ipc);
            json.member("busTransfers", loop.stats.busTransfers);
            json.member("memTransfers", loop.stats.memTransfers);
            json.member("spills", loop.stats.spills);
            json.member("partitionRuns", loop.partitionRuns);
            json.member("scheduleAttempts", loop.scheduleAttempts);
            // --simulate: the oracle verdict rides on the row. next
            // was already advanced past this result.
            if (verdicts[next - 1].has_value()) {
                const sim::Verdict &v = *verdicts[next - 1];
                const sim::SimResult &s = v.sim;
                json.member("verdict", sim::toString(v.kind));
                if (!v.ok())
                    json.member("verdictDetail", v.detail);
                json.member("replayed", s.replayed);
                json.member("simOk", s.simOk);
                json.member("achievedII", s.achievedII);
                json.member("simCycles", s.simCycles);
                json.member("achievedIpc", s.achievedIpc);
                if (s.fault.has_value()) {
                    json.beginObject("simFault");
                    json.member("kind",
                                sim::toString(s.fault->kind));
                    json.member("cycle", s.fault->cycle);
                    json.member("node",
                                static_cast<int>(s.fault->node));
                    json.member("detail", s.fault->detail);
                    json.endObject();
                }
            }
            json.endObject();
        }
    }
    json.endArray();
    json.beginObject("engine");
    json.member("repeat", options.repeat);
    json.member("keepGoing", options.keepGoing);
    json.member("simulate", options.simulate);
    writeEngineJson(json, engine);
    json.endObject();
    json.endObject();
}

int
run(int argc, char **argv)
{
    CliOptions options = parseArgs(argc, argv);
    MachineConfig machine = machineFor(options);
    std::vector<SchedulerKind> schemes = schemesFor(options);
    std::vector<InputLoop> inputs =
        readInputs(options.files, options.keepGoing);

    // Telemetry destinations outlive the engine (required: worker
    // threads write into them until the engine is destroyed).
    MetricRegistry registry;
    TraceSink trace;
    EngineOptions engineOptions;
    engineOptions.jobs = options.jobs;
    engineOptions.cacheDir = options.cacheDir;
    if (!options.statsJsonPath.empty()) {
        engineOptions.metrics = &registry;
        engineOptions.collectPhases = true;
    }
    if (!options.tracePath.empty()) {
        engineOptions.trace = &trace;
        engineOptions.collectPhases = true;
    }
    Engine engine(engineOptions);

    std::vector<EngineJob> batch;
    batch.reserve(schemes.size() * inputs.size());
    for (const SchedulerKind kind : schemes) {
        for (const InputLoop &input : inputs) {
            if (!input.parsed())
                continue;
            EngineJob job;
            job.loop = &input.ddg;
            job.machine = &machine;
            job.kind = kind;
            batch.push_back(job);
        }
    }

    std::vector<CompileResult> results;
    for (int r = 0; r < options.repeat; ++r)
        results = engine.compileBatch(batch);

    // --simulate: verify every successfully compiled loop; the
    // verdicts ride on the report rows (parallel to results, error
    // rows keep their error object untouched).
    std::vector<std::optional<sim::Verdict>> verdicts(results.size());
    bool verifyFailed = false;
    if (options.simulate) {
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (!results[i].ok())
                continue;
            verdicts[i] = sim::verifyCompiled(*batch[i].loop, machine,
                                              results[i].loop);
            if (!verdicts[i]->ok()) {
                verifyFailed = true;
                GPSCHED_WARN("loop '", results[i].loop.loopName,
                             "' failed verification: ",
                             sim::toString(verdicts[i]->kind), ": ",
                             verdicts[i]->detail);
            }
        }
    }

    bool anyFailed = verifyFailed;
    for (const InputLoop &input : inputs)
        anyFailed |= !input.parsed();
    for (const CompileResult &result : results) {
        if (!result.ok()) {
            anyFailed = true;
            // Without --keep-going the first compile failure ends
            // the run exactly like the historical fatal did.
            if (!options.keepGoing)
                throw *result.error;
        }
    }

    if (options.jsonPath == "-") {
        writeReport(std::cout, options, machine, schemes, inputs,
                    results, verdicts, engine);
    } else {
        std::ofstream out(options.jsonPath);
        if (!out)
            GPSCHED_FATAL("cannot open JSON report path '",
                          options.jsonPath, "'");
        writeReport(out, options, machine, schemes, inputs, results,
                    verdicts, engine);
    }

    if (!options.statsJsonPath.empty()) {
        engine.exportStats(registry);
        std::ofstream out(options.statsJsonPath);
        if (!out)
            GPSCHED_FATAL("cannot open stats path '",
                          options.statsJsonPath, "'");
        registry.writeJson(out);
    }
    if (!options.tracePath.empty()) {
        std::ofstream out(options.tracePath);
        if (!out)
            GPSCHED_FATAL("cannot open trace path '",
                          options.tracePath, "'");
        trace.writeJson(out);
    }
    return anyFailed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Per-loop failures that escape this far (a parse error without
    // --keep-going, or a compile rejection of a non-keep-going run)
    // end the process with the same diagnostic shape fatal() prints.
    try {
        return run(argc, argv);
    } catch (const CompileError &error) {
        std::cerr << "fatal: " << error.diagnostic() << "\n";
        return 1;
    }
}
