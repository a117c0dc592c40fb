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
 *               a reproducer line; one schedule digest per (machine,
 *               scheme); exit 0 iff the corpus passed
 *   fuzz repro  re-run one reproducer; exit 0 iff it still fails
 *
 * `gpsched <command> --help` lists a command's flags. Without
 * --keep-going, compile and import stop at the first failing loop or
 * file with its file:line diagnostic.
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/loop_key.hh"
#include "engine/report.hh"
#include "engine/thread_pool.hh"
#include "graph/textio.hh"
#include "machine/configs.hh"
#include "machine/registry.hh"
#include "support/args.hh"
#include "support/compile_error.hh"
#include "support/logging.hh"
#include "support/output.hh"
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

int
runCompile(const CommandLine &cmd)
{
    CliOptions options = parseArgs(cmd);
    CompileReport report(machineFor(options));
    report.schemes = options.schemes;
    report.inputs = readCompileInputs(options.files, options.keepGoing);
    report.repeat = options.repeat;
    report.keepGoing = options.keepGoing;
    report.simulate = options.simulate;

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
    compileAll(engine, report);

    writeOutput(options.jsonPath, [&](std::ostream &os) {
        writeCompileReport(os, report, engine);
    });
    if (!options.statsJsonPath.empty()) {
        engine.exportStats(registry);
        writeOutput(options.statsJsonPath,
                    [&](std::ostream &os) { registry.writeJson(os); });
    }
    if (!options.tracePath.empty())
        writeOutput(options.tracePath,
                    [&](std::ostream &os) { trace.writeJson(os); });
    return report.failed() ? 1 : 0;
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

    LatencyTable lat;
    int imported = 0;
    int failed = 0;
    writeOutput(out, [&](std::ostream &os) {
        for (const std::string &path : files) {
            std::ifstream in(path);
            if (!in)
                GPSCHED_FATAL("cannot open '", path, "'");
            try {
                for (const Ddg &g : importDdgJson(in, path, lat)) {
                    os << "# imported from " << path << "\n";
                    writeDdgText(os, g);
                    ++imported;
                }
            } catch (const CompileError &error) {
                ++failed;
                if (!keepGoing) {
                    std::cerr << cmd.prog << ": " << error.diagnostic()
                              << "\n";
                    return;
                }
                std::cerr << cmd.prog << ": skipping '" << path
                          << "': " << error.diagnostic() << "\n";
            }
        }
    });
    if (failed > 0 && !keepGoing)
        return 1; // stopped at the first bad file, already reported
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
std::vector<std::pair<std::string, ScheduleCorruption>>
corruptions()
{
    std::vector<std::pair<std::string, ScheduleCorruption>> table;
    for (ScheduleCorruption c :
         {ScheduleCorruption::None, ScheduleCorruption::ClusterOutOfRange,
          ScheduleCorruption::CyclesOffByOne})
        table.push_back({toString(c), c});
    return table;
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
    writeOutput(out, [&](std::ostream &os) {
        writeCorpus(os, seed, count, lat);
    });
    if (out != "-")
        std::cerr << "wrote " << count << " loops (seed " << seed
                  << ") to " << out << "\n";
    return 0;
}

// ---------------------------------------------------------------
// fuzz sweep
// ---------------------------------------------------------------

int
runFuzzSweep(const CommandLine &cmd)
{
    ArgParser parser(cmd.prog);
    SweepOptions options;
    options.jobs = ThreadPool::hardwareConcurrency();
    options.tool = cmd.argv0;
    std::string machinesDir = GPSCHED_FUZZ_MACHINES_DIR;
    std::string corpusOut;
    declareCorpus(parser, options.seed, options.count);
    parser
        .option("--smoke", "", "50 loops",
                [&options](const std::string &) { options.count = 50; })
        .option("--jobs", "J", "workers (default: hardware)", options.jobs,
                1, kMaxCount)
        .option("--machines", "DIR",
                "the machine corpus (default: examples/machines)",
                machinesDir)
        .option("--failures", "DIR",
                "minimized failures and .repro lines (default "
                "fuzz-failures)",
                options.failuresDir)
        .option("--out", "PATH", "also write the corpus here", corpusOut)
        .choice("--corrupt", "corrupt each schedule (default none)",
                options.corruption, corruptions());
    parser.parse(cmd.args);

    std::vector<FuzzMachine> machines = fuzzMachines(machinesDir);
    if (!corpusOut.empty()) {
        LatencyTable lat;
        writeOutput(corpusOut, [&](std::ostream &os) {
            writeCorpus(os, options.seed, options.count, lat);
        });
    }
    SweepSummary summary = runSweep(machines, options);

    std::cout << "gpsched fuzz sweep: seed " << options.seed << ", "
              << options.count << " loops x " << machines.size()
              << " machines x 3 schemes (corruption "
              << toString(options.corruption) << ")\n"
              << "  pairs compiled: " << summary.pairsCompiled << " ("
              << summary.moduloScheduled << " modulo-scheduled)\n"
              << "  failing cases:  " << summary.failures.size() << "\n";
    for (const PairDigest &d : summary.digests)
        std::cout << "  digest " << d.machine << " " << schemeFlag(d.scheme)
                  << " " << hexDigest(d.digest) << "\n";
    const std::size_t minimized =
        std::min(summary.failures.size(), kMaxMinimized);
    for (std::size_t i = 0; i < minimized; ++i) {
        const SweepFailure &f = summary.failures[i];
        std::cout << "  FAIL " << f.first().toString() << "\n"
                  << "       (" << f.failures.size()
                  << " failing pair(s); minimized " << f.stats.nodesBefore
                  << " -> " << f.stats.nodesAfter
                  << " nodes; artifacts: " << f.minPath << ", "
                  << f.reproPath << ")\n";
    }
    if (minimized < summary.failures.size())
        std::cout << "  (minimization capped at " << kMaxMinimized
                  << " cases; " << summary.failures.size() - minimized
                  << " more recorded unminimized)\n";
    return summary.ok() ? 0 : 1;
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

    bool reproduced = false;
    for (const CompileInput &input : readCompileInputs({ddgPath}, false)) {
        FuzzCaseResult r = runFuzzCase(input.ddg, {machine}, corruption);
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
