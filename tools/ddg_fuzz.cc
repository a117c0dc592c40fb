/**
 * @file
 * Differential fuzzing front-end over workload/fuzz.hh.
 *
 *   ddg_fuzz gen    — emit a seeded corpus as multi-DDG text
 *   ddg_fuzz sweep  — generate + compile every loop across all
 *                     schemes x the machine corpus, hold every record
 *                     to the two-oracle contract, auto-minimize any
 *                     failure and write reduced .ddg + reproducer
 *                     command lines to a failures directory
 *   ddg_fuzz repro  — re-run one emitted reproducer; exit 0 iff the
 *                     recorded failure still fires
 *
 * Exit status of `sweep` is 0 iff the whole corpus passed — which is
 * exactly what the nightly gate and the smoke CTest entry assert,
 * and what the --corrupt canary inverts to prove the harness can
 * actually fail.
 */

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/thread_pool.hh"
#include "graph/textio.hh"
#include "machine/registry.hh"
#include "support/compile_error.hh"
#include "support/logging.hh"
#include "workload/fuzz.hh"

#ifndef GPSCHED_FUZZ_MACHINES_DIR
#define GPSCHED_FUZZ_MACHINES_DIR ""
#endif

namespace
{

using namespace gpsched;
using namespace gpsched::fuzz;

void
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0 << " <command> [options]\n"
        << "commands:\n"
        << "  gen    --seed S --count N [--out PATH]\n"
        << "         emit the corpus as multi-DDG text ('-' = stdout)\n"
        << "  sweep  [--seed S] [--count N | --smoke] [--jobs J]\n"
        << "         [--machines DIR] [--failures DIR] [--out PATH]\n"
        << "         [--corrupt none|cluster|cycles]\n"
        << "         compile the corpus across all schemes and the\n"
        << "         machine list, check both oracles + exact metrics\n"
        << "         on every record, minimize and record failures;\n"
        << "         exit 1 iff any case failed\n"
        << "  repro  --ddg FILE --machine SPEC --scheme SCHEME\n"
        << "         [--corrupt C] [--expect VERDICT]\n"
        << "         re-run one reproducer; exit 0 iff it still fails\n"
        << "defaults: --count " << "$GPSCHED_FUZZ_LOOPS or 100"
        << ", --smoke = 50 loops,\n"
        << "          --machines " << GPSCHED_FUZZ_MACHINES_DIR << "\n";
    std::exit(2);
}

const char *gArgv0 = "ddg_fuzz";

std::string
needValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::cerr << gArgv0 << ": option " << argv[i]
                  << " needs a value\n";
        usage(gArgv0);
    }
    return argv[++i];
}

std::uint64_t
parseU64(const std::string &text, const char *what)
{
    try {
        std::size_t end = 0;
        std::uint64_t v = std::stoull(text, &end, 0);
        if (end == text.size())
            return v;
    } catch (const std::exception &) {
    }
    GPSCHED_FATAL("bad ", what, " '", text, "'");
}

int
parseCount(const std::string &text, const char *what)
{
    auto v = parseU64(text, what);
    if (v < 1 || v > (1u << 30))
        GPSCHED_FATAL(what, " out of range: ", v);
    return static_cast<int>(v);
}

/** GPSCHED_FUZZ_LOOPS env override, else @p fallback. */
int
envLoops(int fallback)
{
    const char *env = std::getenv("GPSCHED_FUZZ_LOOPS");
    if (!env || !*env)
        return fallback;
    return parseCount(env, "GPSCHED_FUZZ_LOOPS");
}

SchedulerKind
parseScheme(const std::string &text)
{
    if (std::optional<SchedulerKind> kind = parseSchemeFlag(text))
        return *kind;
    GPSCHED_FATAL("bad scheme '", text, "' (want uracam|fixed|gp)");
}

ScheduleCorruption
parseCorrupt(const std::string &text)
{
    if (text == "none")
        return ScheduleCorruption::None;
    if (text == "cluster")
        return ScheduleCorruption::ClusterOutOfRange;
    if (text == "cycles")
        return ScheduleCorruption::CyclesOffByOne;
    GPSCHED_FATAL("bad corruption '", text,
                  "' (want none|cluster|cycles)");
}

const char *
corruptFlag(ScheduleCorruption corruption)
{
    switch (corruption) {
      case ScheduleCorruption::None:
        return "none";
      case ScheduleCorruption::ClusterOutOfRange:
        return "cluster";
      case ScheduleCorruption::CyclesOffByOne:
        return "cycles";
      default:
        GPSCHED_PANIC("bad ScheduleCorruption");
    }
}

FuzzVerdict
parseVerdict(const std::string &text)
{
    for (FuzzVerdict v :
         {FuzzVerdict::Pass, FuzzVerdict::CompileRejected,
          FuzzVerdict::OracleDisagree, FuzzVerdict::ScheduleRejected,
          FuzzVerdict::MetricMismatch}) {
        if (text == toString(v))
            return v;
    }
    GPSCHED_FATAL("bad verdict '", text, "'");
}

// ---------------------------------------------------------------
// gen
// ---------------------------------------------------------------

int
runGen(int argc, char **argv)
{
    std::uint64_t seed = 0xf022c0de5eedULL;
    int count = envLoops(100);
    std::string out = "-";
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--seed")
            seed = parseU64(needValue(argc, argv, i), "--seed");
        else if (arg == "--count")
            count = parseCount(needValue(argc, argv, i), "--count");
        else if (arg == "--out")
            out = needValue(argc, argv, i);
        else
            usage(gArgv0);
    }
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
// sweep
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
runSweep(int argc, char **argv)
{
    std::uint64_t seed = 0xf022c0de5eedULL;
    int count = envLoops(100);
    int jobs = ThreadPool::hardwareConcurrency();
    std::string machinesDir = GPSCHED_FUZZ_MACHINES_DIR;
    std::string failuresDir = "fuzz-failures";
    std::string corpusOut;
    ScheduleCorruption corruption = ScheduleCorruption::None;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--seed")
            seed = parseU64(needValue(argc, argv, i), "--seed");
        else if (arg == "--count")
            count = parseCount(needValue(argc, argv, i), "--count");
        else if (arg == "--smoke")
            count = 50;
        else if (arg == "--jobs")
            jobs = parseCount(needValue(argc, argv, i), "--jobs");
        else if (arg == "--machines")
            machinesDir = needValue(argc, argv, i);
        else if (arg == "--failures")
            failuresDir = needValue(argc, argv, i);
        else if (arg == "--out")
            corpusOut = needValue(argc, argv, i);
        else if (arg == "--corrupt")
            corruption =
                parseCorrupt(needValue(argc, argv, i));
        else
            usage(gArgv0);
    }

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

    std::cout << "ddg_fuzz sweep: seed " << seed << ", " << count
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
    std::string tool = fs::absolute(gArgv0).string();
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
            os << tool << " repro --ddg "
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
// repro
// ---------------------------------------------------------------

int
runRepro(int argc, char **argv)
{
    std::string ddgPath;
    std::string machineSpec;
    std::string schemeText;
    ScheduleCorruption corruption = ScheduleCorruption::None;
    bool haveExpect = false;
    FuzzVerdict expect = FuzzVerdict::Pass;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--ddg")
            ddgPath = needValue(argc, argv, i);
        else if (arg == "--machine")
            machineSpec = needValue(argc, argv, i);
        else if (arg == "--scheme")
            schemeText = needValue(argc, argv, i);
        else if (arg == "--corrupt")
            corruption = parseCorrupt(needValue(argc, argv, i));
        else if (arg == "--expect") {
            expect = parseVerdict(needValue(argc, argv, i));
            haveExpect = true;
        } else
            usage(gArgv0);
    }
    if (ddgPath.empty() || machineSpec.empty() || schemeText.empty())
        usage(gArgv0);
    SchedulerKind scheme = parseScheme(schemeText);
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
                  << machineSpec << "/" << schemeText
                  << " compiles clean\n";
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    gArgv0 = argv[0];
    if (argc < 2)
        usage(argv[0]);
    std::string cmd = argv[1];
    if (cmd == "gen")
        return runGen(argc, argv);
    if (cmd == "sweep")
        return runSweep(argc, argv);
    if (cmd == "repro")
        return runRepro(argc, argv);
    usage(argv[0]);
}
