/**
 * @file
 * The gpsched front end: one executable whose first argument(s) pick
 * a subcommand from one table (kCommands, at the bottom):
 *
 *   compile     text DDGs (graph/textio.hh) through the batch engine
 *               for one machine and one or all schemes -> JSON report
 *   import      JSON loop dumps (workload/import.hh) -> .ddg text
 *   fuzz gen    a seeded corpus as multi-DDG text
 *   fuzz sweep  every corpus loop x scheme x machine held to the
 *               two-oracle contract; failures minimized to .ddg plus
 *               a reproducer line; exit 0 iff the corpus passed
 *   fuzz repro  re-run one reproducer; exit 0 iff it still fails
 *
 * `gpsched <command> --help` lists a command's flags. Without
 * --keep-going, compile and import stop at the first failing loop or
 * file with its file:line diagnostic.
 */

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hh"
#include "engine/engine.hh"
#include "engine/thread_pool.hh"
#include "graph/textio.hh"
#include "machine/configs.hh"
#include "machine/registry.hh"
#include "sim/replay.hh"
#include "support/args.hh"
#include "support/compile_error.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "workload/fuzz.hh"
#include "workload/import.hh"

namespace
{

using namespace gpsched;
using namespace gpsched::fuzz;

/** One subcommand invocation. */
struct CommandLine
{
    std::string argv0;             ///< the executable as invoked
    std::string prog;              ///< "<argv0> <subcommand>"
    std::vector<std::string> args; ///< arguments after the subcommand
};

// ---------------------------------------------------------------
// compile
// ---------------------------------------------------------------

struct CliOptions
{
    std::string machine = "4cluster";
    int regs = 64;
    int buses = 1;
    int busLatency = 1;
    bool legacyShapeFlags = false; ///< --regs/--buses/--bus-latency
    std::vector<SchedulerKind> schemes = {SchedulerKind::Gp};
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

/** --scheme's values: each scheme's flag name, plus "all". */
std::vector<std::pair<std::string, std::vector<SchedulerKind>>>
schemeChoices()
{
    std::vector<std::pair<std::string, std::vector<SchedulerKind>>>
        choices;
    std::vector<SchedulerKind> all;
    for (const SchemeName &scheme : kSchemeNames) {
        choices.push_back({scheme.flag, {scheme.kind}});
        all.push_back(scheme.kind);
    }
    choices.push_back({"all", all});
    return choices;
}

/** Parses the command line; exits 0 after --list-machines. */
CliOptions
parseArgs(const CommandLine &cmd)
{
    constexpr int maxCount = 1 << 20;
    CliOptions options;
    bool listMachines = false;
    ArgParser parser(cmd.prog, "<ddg-file>...");
    parser
        .option("--machine", "SPEC",
                "preset, registry name or .machine path (default "
                "4cluster)",
                options.machine)
        .flag("--list-machines", "print the registry names and exit",
              listMachines)
        .option("--regs", "N",
                "registers of unified|2cluster|4cluster (default 64)",
                options.regs, 0, maxCount)
        .option("--buses", "N", "buses of those presets (default 1)",
                options.buses, 0, maxCount)
        .option("--bus-latency", "N", "their bus latency (default 1)",
                options.busLatency, 0, maxCount)
        .choice("--scheme", "default gp", options.schemes,
                schemeChoices())
        .option("--jobs", "N", "engine workers, 0 = hardware (default)",
                options.jobs, 0, maxCount)
        .option("--repeat", "N", "compile the batch N times",
                options.repeat, 1, maxCount)
        .option("--cache-dir", "PATH", "persistent compile cache",
                options.cacheDir)
        .flag("--keep-going", "failed loops become JSON error objects",
              options.keepGoing)
        .flag("--simulate", "check each loop with both oracles",
              options.simulate)
        .option("--json", "PATH", "report path, '-' = stdout (default)",
                options.jsonPath)
        .option("--stats-json", "PATH", "write the metric registry",
                options.statsJsonPath)
        .option("--trace", "PATH", "write a Chrome trace-event file",
                options.tracePath);
    options.files = parser.parse(cmd.args);
    if (listMachines) {
        for (const std::string &name :
             MachineRegistry::builtin().names())
            std::cout << name << "\n";
        std::exit(0);
    }
    if (options.files.empty())
        parser.fail("no input files");
    options.legacyShapeFlags = parser.seen("--regs") ||
                               parser.seen("--buses") ||
                               parser.seen("--bus-latency");
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
    json.member("tool", "gpsched");
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
runCompile(const CommandLine &cmd)
{
    CliOptions options = parseArgs(cmd);
    MachineConfig machine = machineFor(options);
    const std::vector<SchedulerKind> &schemes = options.schemes;
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

// ---------------------------------------------------------------
// import
// ---------------------------------------------------------------

int
runImport(const CommandLine &cmd)
{
    std::string out = "-";
    bool keepGoing = false;
    ArgParser parser(cmd.prog, "input.json...");
    parser.option("--out", "PATH", "'-' = stdout (default)", out)
        .flag("--keep-going", "skip malformed files; exit 1 at the end",
              keepGoing);
    std::vector<std::string> files = parser.parse(cmd.args);
    if (files.empty())
        parser.fail("no input files");

    std::ofstream fileOut;
    if (out != "-") {
        fileOut.open(out);
        if (!fileOut)
            GPSCHED_FATAL("cannot write '", out, "'");
    }
    std::ostream &os = out == "-" ? std::cout : fileOut;

    LatencyTable lat;
    int imported = 0;
    int failed = 0;
    for (const std::string &path : files) {
        std::ifstream in(path);
        if (!in)
            GPSCHED_FATAL("cannot open '", path, "'");
        try {
            std::vector<Ddg> loops = importDdgJson(in, path, lat);
            for (const Ddg &g : loops) {
                os << "# imported from " << path << "\n";
                writeDdgText(os, g);
                ++imported;
            }
        } catch (const CompileError &error) {
            ++failed;
            if (!keepGoing) {
                std::cerr << cmd.prog << ": " << error.diagnostic()
                          << "\n";
                return 1;
            }
            std::cerr << cmd.prog << ": skipping '" << path
                      << "': " << error.diagnostic() << "\n";
        }
    }
    std::cerr << cmd.prog << ": imported " << imported << " loop(s), "
              << failed << " file(s) failed\n";
    return failed > 0 ? 1 : 0;
}

// ---------------------------------------------------------------
// fuzz: shared by its subcommands
// ---------------------------------------------------------------

constexpr int kMaxCount = 1 << 30;

/** --seed and --count, shared by gen and sweep. */
void
declareCorpus(ArgParser &parser, std::uint64_t &seed, int &count)
{
    seed = 0xf022c0de5eedULL;
    const char *env = std::getenv("GPSCHED_FUZZ_LOOPS");
    count = env && *env ? static_cast<int>(parser.integer(
                              "GPSCHED_FUZZ_LOOPS", env, 1, kMaxCount))
                        : 100;
    parser.option("--seed", "S", "corpus seed (default 0xf022c0de5eed)",
                  seed)
        .option("--count", "N", "loops (default $GPSCHED_FUZZ_LOOPS or 100)",
                count, 1, kMaxCount);
}

/** --corrupt's values: the injected schedule corruptions. */
const std::vector<std::pair<std::string, ScheduleCorruption>> &
corruptions()
{
    static const std::vector<std::pair<std::string, ScheduleCorruption>>
        table = {{"none", ScheduleCorruption::None},
                 {"cluster", ScheduleCorruption::ClusterOutOfRange},
                 {"cycles", ScheduleCorruption::CyclesOffByOne}};
    return table;
}

const char *
corruptFlag(ScheduleCorruption corruption)
{
    for (const auto &[flag, value] : corruptions()) {
        if (value == corruption)
            return flag.c_str();
    }
    GPSCHED_PANIC("bad ScheduleCorruption");
}

// ---------------------------------------------------------------
// fuzz gen
// ---------------------------------------------------------------

int
runFuzzGen(const CommandLine &cmd)
{
    ArgParser parser(cmd.prog);
    std::uint64_t seed = 0;
    int count = 0;
    std::string out = "-";
    declareCorpus(parser, seed, count);
    parser.option("--out", "PATH", "'-' = stdout (default)", out);
    parser.parse(cmd.args);
    LatencyTable lat;
    if (out == "-") {
        writeCorpus(std::cout, seed, count, lat);
        return 0;
    }
    std::ofstream os(out);
    if (!os)
        GPSCHED_FATAL("cannot write corpus to '", out, "'");
    writeCorpus(os, seed, count, lat);
    std::cerr << "wrote " << count << " loops (seed " << seed
              << ") to " << out << "\n";
    return 0;
}

// ---------------------------------------------------------------
// fuzz sweep
// ---------------------------------------------------------------

/** One failing case carried from the parallel sweep to the
 *  sequential minimization pass. */
struct SweepFailure
{
    FuzzCase fuzzCase;
    FuzzFailure first;
    std::size_t totalFailures = 0;
};

/** Case-insensitive-filesystem-safe artifact stem. */
std::string
artifactStem(const SweepFailure &f)
{
    std::string stem = f.fuzzCase.ddg.name() + "__" +
                       f.first.machine + "__" +
                       schemeFlag(f.first.scheme);
    for (char &c : stem) {
        if (!(std::isalnum(static_cast<unsigned char>(c)) ||
              c == '_' || c == '-'))
            c = '_';
    }
    return stem;
}

int
runFuzzSweep(const CommandLine &cmd)
{
    ArgParser parser(cmd.prog);
    std::uint64_t seed = 0;
    int count = 0;
    int jobs = ThreadPool::hardwareConcurrency();
    std::string machinesDir = GPSCHED_FUZZ_MACHINES_DIR;
    std::string failuresDir = "fuzz-failures";
    std::string corpusOut;
    ScheduleCorruption corruption = ScheduleCorruption::None;
    declareCorpus(parser, seed, count);
    parser
        .option("--smoke", "", "50 loops",
                [&count](const std::string &) { count = 50; })
        .option("--jobs", "J", "workers (default: hardware)", jobs, 1,
                kMaxCount)
        .option("--machines", "DIR",
                "the machine corpus (default: examples/machines)",
                machinesDir)
        .option("--failures", "DIR",
                "minimized failures and .repro lines (default "
                "fuzz-failures)",
                failuresDir)
        .option("--out", "PATH", "also write the corpus here", corpusOut)
        .choice("--corrupt", "corrupt each schedule (default none)",
                corruption, corruptions());
    parser.parse(cmd.args);

    LatencyTable lat;
    std::vector<FuzzMachine> machines = fuzzMachines(machinesDir);
    std::vector<MachineConfig> configs = fuzzConfigs(machines);

    if (!corpusOut.empty()) {
        std::ofstream os(corpusOut);
        if (!os)
            GPSCHED_FATAL("cannot write corpus to '", corpusOut, "'");
        writeCorpus(os, seed, count, lat);
    }

    std::mutex mu;
    long pairsCompiled = 0;
    long moduloScheduled = 0;
    std::vector<SweepFailure> failing;
    {
        ThreadPool pool(jobs);
        for (int i = 0; i < count; ++i) {
            pool.submit([&, i] {
                FuzzCase c = corpusCase(seed, i, lat);
                FuzzCaseResult r =
                    runFuzzCase(c.ddg, configs, corruption);
                std::lock_guard<std::mutex> lock(mu);
                pairsCompiled += r.pairsCompiled;
                moduloScheduled += r.moduloScheduled;
                if (!r.ok()) {
                    failing.push_back({std::move(c),
                                       r.failures.front(),
                                       r.failures.size()});
                }
            });
        }
        pool.wait();
    }
    std::sort(failing.begin(), failing.end(),
              [](const SweepFailure &a, const SweepFailure &b) {
                  return a.fuzzCase.index < b.fuzzCase.index;
              });

    std::cout << "gpsched fuzz sweep: seed " << seed << ", " << count
              << " loops x " << machines.size() << " machines x 3 "
              << "schemes (corruption " << corruptFlag(corruption)
              << ")\n"
              << "  pairs compiled: " << pairsCompiled << " ("
              << moduloScheduled << " modulo-scheduled)\n"
              << "  failing cases:  " << failing.size() << "\n";
    if (failing.empty())
        return 0;

    // Minimize and record. Cap the minimized set so one systemic
    // failure cannot turn the nightly sweep into an hours-long
    // minimization marathon; the cap is logged, never silent.
    const std::size_t maxMinimized = 10;
    namespace fs = std::filesystem;
    fs::create_directories(failuresDir);
    std::string tool = fs::absolute(cmd.argv0).string();
    std::size_t minimized = 0;
    for (const SweepFailure &f : failing) {
        if (minimized >= maxMinimized) {
            std::cout << "  (minimization capped at " << maxMinimized
                      << " cases; " << failing.size() - minimized
                      << " more recorded unminimized)\n";
            break;
        }
        ++minimized;
        const FuzzMachine *fm = nullptr;
        for (const FuzzMachine &m : machines) {
            if (m.config.name() == f.first.machine)
                fm = &m;
        }
        GPSCHED_ASSERT(fm, "failure names unknown machine ",
                       f.first.machine);
        auto stillFails = [&](const Ddg &g) {
            FuzzCaseResult r =
                runFuzzCase(g, {fm->config}, corruption);
            for (const FuzzFailure &rf : r.failures) {
                if (rf.scheme == f.first.scheme &&
                    rf.kind == f.first.kind)
                    return true;
            }
            return false;
        };
        MinimizeStats stats;
        Ddg reduced =
            minimizeDdg(f.fuzzCase.ddg, stillFails, &stats, 4000);

        std::string stem = artifactStem(f);
        fs::path minPath = fs::path(failuresDir) / (stem + ".min.ddg");
        fs::path origPath =
            fs::path(failuresDir) / (stem + ".orig.ddg");
        fs::path reproPath = fs::path(failuresDir) / (stem + ".repro");
        auto header = [&](std::ostream &os) {
            os << "# " << f.first.toString() << "\n"
               << "# case " << f.fuzzCase.index << " seed "
               << f.fuzzCase.seed << " shape "
               << toString(f.fuzzCase.shape) << " corruption "
               << corruptFlag(corruption) << "\n";
        };
        {
            std::ofstream os(origPath);
            header(os);
            writeDdgText(os, f.fuzzCase.ddg);
        }
        {
            std::ofstream os(minPath);
            header(os);
            os << "# minimized " << stats.nodesBefore << " -> "
               << stats.nodesAfter << " nodes, " << stats.edgesBefore
               << " -> " << stats.edgesAfter << " edges in "
               << stats.probes << " probes\n";
            writeDdgText(os, reduced);
        }
        {
            std::ofstream os(reproPath);
            os << tool << " fuzz repro --ddg "
               << fs::absolute(minPath).string() << " --machine "
               << fm->spec << " --scheme "
               << schemeFlag(f.first.scheme) << " --corrupt "
               << corruptFlag(corruption) << " --expect "
               << toString(f.first.kind) << "\n";
        }
        std::cout << "  FAIL " << f.first.toString() << "\n"
                  << "       (" << f.totalFailures
                  << " failing pair(s); minimized "
                  << stats.nodesBefore << " -> " << stats.nodesAfter
                  << " nodes; artifacts: " << minPath.string()
                  << ", " << reproPath.string() << ")\n";
    }
    return 1;
}

// ---------------------------------------------------------------
// fuzz repro
// ---------------------------------------------------------------

int
runFuzzRepro(const CommandLine &cmd)
{
    ArgParser parser(cmd.prog);
    std::string ddgPath;
    std::string machineSpec;
    SchedulerKind scheme = SchedulerKind::Gp;
    ScheduleCorruption corruption = ScheduleCorruption::None;
    FuzzVerdict expect = FuzzVerdict::Pass;
    std::vector<std::pair<std::string, SchedulerKind>> schemes;
    for (const SchemeName &name : kSchemeNames)
        schemes.push_back({name.flag, name.kind});
    std::vector<std::pair<std::string, FuzzVerdict>> verdicts;
    for (FuzzVerdict v :
         {FuzzVerdict::Pass, FuzzVerdict::CompileRejected,
          FuzzVerdict::OracleDisagree, FuzzVerdict::ScheduleRejected,
          FuzzVerdict::MetricMismatch})
        verdicts.push_back({toString(v), v});
    parser.option("--ddg", "FILE", "required", ddgPath)
        .option("--machine", "SPEC", "required", machineSpec)
        .choice("--scheme", "required", scheme, std::move(schemes))
        .choice("--corrupt", "corrupt each schedule (default none)",
                corruption, corruptions())
        .choice("--expect", "count only this verdict (default any)",
                expect, std::move(verdicts));
    parser.parse(cmd.args);
    for (const char *flag : {"--ddg", "--machine", "--scheme"}) {
        if (!parser.seen(flag))
            parser.fail(std::string(flag) + " is required");
    }
    const bool haveExpect = parser.seen("--expect");
    MachineConfig machine =
        MachineRegistry::builtin().resolve(machineSpec);

    std::ifstream in(ddgPath);
    if (!in)
        GPSCHED_FATAL("cannot open DDG file '", ddgPath, "'");
    std::vector<Ddg> loops;
    readDdgBlocks(in, [&](Ddg ddg) { loops.push_back(std::move(ddg)); });
    if (loops.empty())
        GPSCHED_FATAL("no DDGs found in '", ddgPath, "'");

    bool reproduced = false;
    for (const Ddg &g : loops) {
        FuzzCaseResult r = runFuzzCase(g, {machine}, corruption);
        for (const FuzzFailure &f : r.failures) {
            if (f.scheme != scheme)
                continue;
            if (haveExpect && f.kind != expect)
                continue;
            std::cout << "reproduced: " << f.toString() << "\n";
            reproduced = true;
        }
    }
    if (!reproduced) {
        std::cout << "not reproduced: " << ddgPath << " @ "
                  << machineSpec << "/" << schemeFlag(scheme)
                  << " compiles clean\n";
        return 1;
    }
    return 0;
}

// ---------------------------------------------------------------
// the command table
// ---------------------------------------------------------------

struct Command
{
    const char *name; ///< one or more words, e.g. "fuzz sweep"
    const char *summary;
    int (*run)(const CommandLine &);
};

constexpr Command kCommands[] = {
    {"compile", "schedule text DDGs; write a JSON report", runCompile},
    {"import", "convert JSON loop dumps to .ddg text", runImport},
    {"fuzz gen", "emit a seeded fuzz corpus as multi-DDG text",
     runFuzzGen},
    {"fuzz sweep", "check the corpus with both oracles; minimize failures",
     runFuzzSweep},
    {"fuzz repro", "re-run one reproducer; exit 0 iff it still fails",
     runFuzzRepro},
};

void
printCommands(std::ostream &os, const char *argv0)
{
    os << "usage: " << argv0 << " <command> [options]\n"
       << "commands:\n";
    for (const Command &command : kCommands) {
        std::string name = command.name;
        name.resize(12, ' ');
        os << "  " << name << command.summary << "\n";
    }
    os << "run '" << argv0 << " <command> --help' for its options\n";
}

/** Words of @p name; the argv prefix that selects the command. */
std::vector<std::string>
words(const char *name)
{
    std::istringstream in(name);
    std::vector<std::string> out;
    for (std::string word; in >> word;)
        out.push_back(word);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (!args.empty() && (args[0] == "--help" || args[0] == "-h")) {
        printCommands(std::cout, argv[0]);
        return 0;
    }
    for (const Command &command : kCommands) {
        std::vector<std::string> name = words(command.name);
        if (args.size() < name.size() ||
            !std::equal(name.begin(), name.end(), args.begin()))
            continue;
        CommandLine cmd;
        cmd.argv0 = argv[0];
        cmd.prog = cmd.argv0 + " " + command.name;
        cmd.args.assign(args.begin() + name.size(), args.end());
        // Per-loop failures that escape a command (a parse error or a
        // compile rejection without --keep-going) end the process
        // with the same diagnostic shape fatal() prints.
        try {
            return command.run(cmd);
        } catch (const CompileError &error) {
            std::cerr << "fatal: " << error.diagnostic() << "\n";
            return 1;
        }
    }
    if (args.empty())
        std::cerr << argv[0] << ": no command given\n";
    else
        std::cerr << argv[0] << ": unknown command '" << args[0]
                  << "'\n";
    printCommands(std::cerr, argv[0]);
    return 2;
}
