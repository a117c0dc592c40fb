/**
 * @file
 * Unit tests for the differential-fuzzing library
 * (workload/fuzz.hh): generator determinism and corpus prefix
 * stability, structural validity of every shape family, the
 * two-oracle harness on a clean corpus, corruption-canary detection,
 * the greedy minimizer's contract (shrinks while the predicate
 * holds, refuses non-failing input, honors the probe cap), and the
 * corpus sweep (canaries caught, failures minimized to at most a
 * quarter of their nodes and recorded as reproducible artifacts).
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "graph/textio.hh"
#include "machine/op.hh"
#include "machine/registry.hh"
#include "sched/validate.hh"
#include "sim/replay.hh"
#include "workload/fuzz.hh"

using namespace gpsched;
using namespace gpsched::fuzz;

namespace
{

constexpr std::uint64_t kSeed = 0xf022c0de5eedULL;
constexpr const char *kMachinesDir =
    GPSCHED_SOURCE_DIR "/examples/machines";

std::string
render(const Ddg &ddg)
{
    std::ostringstream os;
    writeDdgText(os, ddg);
    return os.str();
}

namespace fs = std::filesystem;

/** A sweep of the first @p count corpus cases with @p corruption,
 *  recording into a fresh directory unique to this process. */
SweepOptions
sweepOptions(int count, ScheduleCorruption corruption)
{
    SweepOptions options;
    options.seed = kSeed;
    options.count = count;
    options.jobs = 2;
    options.corruption = corruption;
    options.failuresDir = (fs::temp_directory_path() /
                           ("gpsched_sweep_" + std::to_string(::getpid())))
                              .string();
    options.tool = "gpsched";
    fs::remove_all(options.failuresDir);
    return options;
}

/** Lines of @p path starting with "node ". */
int
countNodes(const std::string &path)
{
    std::ifstream in(path);
    int n = 0;
    for (std::string line; std::getline(in, line);)
        n += line.rfind("node ", 0) == 0;
    return n;
}

std::size_t
countFiles(const std::string &dir)
{
    return static_cast<std::size_t>(std::distance(
        fs::directory_iterator(dir), fs::directory_iterator()));
}

} // namespace

// ---------------------------------------------------------------------
// Generator determinism: the seed is the whole story.
// ---------------------------------------------------------------------

TEST(Fuzz, GeneratorIsDeterministic)
{
    LatencyTable lat;
    for (std::uint64_t seed :
         {std::uint64_t(1), std::uint64_t(42), kSeed}) {
        FuzzCase a = corpusCase(seed, 3, lat);
        FuzzCase b = corpusCase(seed, 3, lat);
        EXPECT_EQ(a.seed, b.seed) << "seed " << seed;
        EXPECT_EQ(render(a.ddg), render(b.ddg)) << "seed " << seed;
    }
    // Different case seeds must not collapse to one graph (one index,
    // so one loop name, under eight corpus seeds).
    std::set<std::string> distinct;
    for (std::uint64_t seed = 0; seed < 8; ++seed)
        distinct.insert(render(corpusCase(seed, 0, lat).ddg));
    EXPECT_GT(distinct.size(), 1u);
}

TEST(Fuzz, CorpusSeedsArePrefixStable)
{
    auto longRun = corpusSeeds(kSeed, 20);
    auto shortRun = corpusSeeds(kSeed, 7);
    ASSERT_EQ(longRun.size(), 20u);
    ASSERT_EQ(shortRun.size(), 7u);
    for (int i = 0; i < 7; ++i)
        EXPECT_EQ(longRun[i], shortRun[i])
            << "growing the corpus must only append cases";

    // corpusCase agrees with the seed stream.
    LatencyTable lat;
    FuzzCase c = corpusCase(kSeed, 5, lat);
    EXPECT_EQ(c.seed, longRun[5]);
    EXPECT_EQ(c.index, 5);
}

TEST(Fuzz, WriteCorpusRoundTripsThroughTextio)
{
    LatencyTable lat;
    std::stringstream corpus;
    writeCorpus(corpus, kSeed, 6, lat);

    int loops = 0;
    while (corpus >> std::ws, corpus.peek() != EOF) {
        // Skip comment lines between blocks; readDdgText handles
        // comments itself, this just detects end-of-stream cleanly.
        if (corpus.peek() == '#') {
            std::string line;
            std::getline(corpus, line);
            continue;
        }
        Ddg ddg = readDdgText(corpus);
        FuzzCase expected = corpusCase(kSeed, loops, lat);
        EXPECT_EQ(ddg.numNodes(), expected.ddg.numNodes());
        EXPECT_EQ(ddg.numEdges(), expected.ddg.numEdges());
        EXPECT_EQ(ddg.tripCount(), expected.ddg.tripCount());
        ++loops;
    }
    EXPECT_EQ(loops, 6);
}

// ---------------------------------------------------------------------
// Shape coverage and structural validity.
// ---------------------------------------------------------------------

TEST(Fuzz, EveryShapeClassAppearsInACorpus)
{
    LatencyTable lat;
    std::set<ShapeClass> seen;
    for (int i = 0; i < 120; ++i)
        seen.insert(corpusCase(kSeed, i, lat).shape);
    EXPECT_EQ(seen.size(),
              static_cast<std::size_t>(ShapeClass::NumShapes))
        << "a shape family stopped being generated";
}

TEST(Fuzz, GeneratedLoopsAreStructurallyValid)
{
    LatencyTable lat;
    for (int i = 0; i < 40; ++i) {
        FuzzCase c = corpusCase(kSeed, i, lat);
        SCOPED_TRACE("case " + std::to_string(i) + " seed " +
                     std::to_string(c.seed) + " shape " +
                     toString(c.shape));
        ASSERT_GE(c.ddg.numNodes(), 1);
        EXPECT_GE(c.ddg.tripCount(), 1);
        for (EdgeId e = 0; e < c.ddg.numEdges(); ++e) {
            const DdgEdge &edge = c.ddg.edge(e);
            ASSERT_GE(edge.src, 0);
            ASSERT_LT(edge.src, c.ddg.numNodes());
            ASSERT_GE(edge.dst, 0);
            ASSERT_LT(edge.dst, c.ddg.numNodes());
            EXPECT_GE(edge.distance, 0);
            if (edge.src == edge.dst) {
                EXPECT_GE(edge.distance, 1);
            }
            if (edge.isFlow()) {
                // Flow edges leave defining ops and never promise
                // less latency than the op takes (the under-latency
                // guard would reject the loop otherwise).
                EXPECT_TRUE(
                    definesValue(c.ddg.node(edge.src).opcode));
                EXPECT_GE(edge.latency,
                          lat.latency(c.ddg.node(edge.src).opcode));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Machine list: presets stay addressable by registry name, corpus
// machines by file path — both resolvable from a repro line.
// ---------------------------------------------------------------------

TEST(Fuzz, MachineListCoversPresetsAndCorpus)
{
    auto machines = fuzzMachines(kMachinesDir);
    EXPECT_EQ(machines.size(), 13u);

    std::set<std::string> names;
    const MachineRegistry &registry = MachineRegistry::builtin();
    for (const FuzzMachine &m : machines) {
        names.insert(m.config.name());
        // Every spec string must re-resolve to the same machine.
        MachineConfig again = registry.resolve(m.spec);
        EXPECT_EQ(again.name(), m.config.name()) << m.spec;
    }
    EXPECT_EQ(names.size(), machines.size())
        << "machine names must be unique for failure reports";

    EXPECT_EQ(fuzzConfigs(machines).size(), machines.size());
    EXPECT_EQ(fuzzMachines("").size(), 3u)
        << "empty dir must still yield the Table-1 presets";
}

// ---------------------------------------------------------------------
// The differential harness: a clean corpus passes (the canaries are
// the FuzzSweep cases below).
// ---------------------------------------------------------------------

TEST(Fuzz, CleanCorpusPassesTheTwoOracleContract)
{
    LatencyTable lat;
    auto configs = fuzzConfigs(fuzzMachines(""));
    int pairs = 0;
    for (int i = 0; i < 8; ++i) {
        FuzzCase c = corpusCase(kSeed, i, lat);
        FuzzCaseResult r = runFuzzCase(c.ddg, configs);
        for (const FuzzFailure &f : r.failures)
            ADD_FAILURE() << "case " << i << " seed " << c.seed
                          << ": " << f.toString();
        pairs += r.pairsCompiled;
    }
    EXPECT_GT(pairs, 0);
}

TEST(Fuzz, ListScheduledRecordsGetTheSimulatorHalfOnly)
{
    LatencyTable lat;
    auto configs = fuzzConfigs(fuzzMachines(kMachinesDir));

    // The first list-scheduling fallback in the pinned corpus.
    std::optional<Ddg> ddg;
    std::optional<MachineConfig> machine;
    CompiledLoop loop;
    for (int i = 0; i < 50 && !ddg; ++i) {
        FuzzCase c = corpusCase(kSeed, i, lat);
        for (const MachineConfig &m : configs) {
            loop = LoopCompiler(m, SchedulerKind::Gp).compile(c.ddg);
            if (!loop.moduloScheduled) {
                ddg = c.ddg;
                machine = m;
                break;
            }
        }
    }
    ASSERT_TRUE(ddg.has_value()) << "no list-scheduled record found";

    // No placements: the validator rejects the record on shape
    // alone, so a contract that ran it would never pass a fallback.
    EXPECT_FALSE(validateSchedule(*ddg, *machine, loop).valid);
    sim::Verdict verdict = sim::verifyCompiled(*ddg, *machine, loop);
    EXPECT_TRUE(verdict.ok()) << verdict.detail;
    EXPECT_FALSE(verdict.sim.replayed);

    // The simulator half still holds the record to its claims.
    corruptLoop(loop, ScheduleCorruption::CyclesOffByOne);
    verdict = sim::verifyCompiled(*ddg, *machine, loop);
    EXPECT_EQ(verdict.kind, sim::VerdictKind::MetricMismatch)
        << verdict.detail;
}

// ---------------------------------------------------------------------
// Minimizer contract.
// ---------------------------------------------------------------------

TEST(Fuzz, MinimizerShrinksWhilePredicateHolds)
{
    LatencyTable lat;
    // Find a roomy case so there is something to delete.
    Ddg big("none");
    for (int i = 0; i < 40; ++i) {
        FuzzCase c = corpusCase(kSeed, i, lat);
        bool hasStore = false;
        for (NodeId n = 0; n < c.ddg.numNodes(); ++n)
            hasStore |= c.ddg.node(n).opcode == Opcode::Store;
        if (hasStore && c.ddg.numNodes() >= 12) {
            big = c.ddg;
            break;
        }
    }
    ASSERT_GE(big.numNodes(), 12);

    auto hasStore = [](const Ddg &d) {
        for (NodeId n = 0; n < d.numNodes(); ++n)
            if (d.node(n).opcode == Opcode::Store)
                return true;
        return false;
    };

    MinimizeStats stats;
    Ddg reduced = minimizeDdg(big, hasStore, &stats);
    EXPECT_TRUE(hasStore(reduced))
        << "the result must itself satisfy the failure predicate";
    EXPECT_EQ(reduced.numNodes(), 1)
        << "a single store satisfies the predicate; greedy deletion "
           "should reach it";
    EXPECT_EQ(reduced.numEdges(), 0);
    EXPECT_EQ(stats.nodesBefore, big.numNodes());
    EXPECT_EQ(stats.nodesAfter, reduced.numNodes());
    EXPECT_GT(stats.probes, 0);
}

TEST(Fuzz, MinimizerReturnsInputWhenPredicateRejectsIt)
{
    LatencyTable lat;
    Ddg ddg = corpusCase(kSeed, 0, lat).ddg;
    MinimizeStats stats;
    Ddg out = minimizeDdg(
        ddg, [](const Ddg &) { return false; }, &stats);
    EXPECT_EQ(out.numNodes(), ddg.numNodes());
    EXPECT_EQ(out.numEdges(), ddg.numEdges());
    EXPECT_EQ(stats.probes, 1)
        << "a non-failing input takes exactly the initial probe";
}

TEST(Fuzz, MinimizerHonorsTheProbeCap)
{
    LatencyTable lat;
    Ddg ddg = corpusCase(kSeed, 0, lat).ddg;
    ASSERT_GE(ddg.numNodes(), 4);
    MinimizeStats stats;
    minimizeDdg(
        ddg, [](const Ddg &) { return true; }, &stats,
        /*maxProbes=*/3);
    EXPECT_LE(stats.probes, 3);
}

// ---------------------------------------------------------------------
// The corpus sweep behind `gpsched fuzz sweep`.
// ---------------------------------------------------------------------

TEST(FuzzSweep, CanariesAreCaughtMinimizedAndRecorded)
{
    const std::vector<FuzzMachine> machines = fuzzMachines(kMachinesDir);
    for (auto [corruption, verdict] :
         {std::pair{ScheduleCorruption::ClusterOutOfRange,
                    FuzzVerdict::ScheduleRejected},
          std::pair{ScheduleCorruption::CyclesOffByOne,
                    FuzzVerdict::MetricMismatch}}) {
        SCOPED_TRACE(toString(corruption));
        SweepOptions options = sweepOptions(6, corruption);
        SweepSummary summary = runSweep(machines, options);
        ASSERT_FALSE(summary.ok()) << "the canary slipped past both oracles";
        ASSERT_LE(summary.failures.size(), kMaxMinimized);
        EXPECT_EQ(countFiles(options.failuresDir), 3 * summary.failures.size())
            << "one .orig.ddg, .min.ddg and .repro per minimized case";

        long caught = 0;
        for (const SweepFailure &f : summary.failures) {
            SCOPED_TRACE(f.first().toString());
            for (const FuzzFailure &pair : f.failures)
                EXPECT_EQ(pair.kind, verdict) << pair.toString();
            caught += static_cast<long>(f.failures.size());
            // Both loops are on disk, the minimized one at most a
            // quarter of the original's nodes.
            const int orig = countNodes(f.origPath);
            EXPECT_EQ(orig, f.fuzzCase.ddg.numNodes());
            EXPECT_EQ(countNodes(f.minPath), f.stats.nodesAfter);
            EXPECT_GE(f.stats.nodesAfter, 1);
            EXPECT_LE(f.stats.nodesAfter, orig / 4);

            // The .repro line re-runs the minimized loop on the failing
            // machine and scheme, expecting the same verdict.
            auto m = std::find_if(machines.begin(), machines.end(),
                                  [&](const FuzzMachine &fm) {
                                      return fm.config.name() ==
                                             f.first().machine;
                                  });
            ASSERT_NE(m, machines.end());
            std::ifstream in(f.reproPath);
            std::string repro;
            std::getline(in, repro);
            EXPECT_EQ(repro, fs::absolute("gpsched").string() +
                                 " fuzz repro --ddg " +
                                 fs::absolute(f.minPath).string() +
                                 " --machine " + m->spec + " --scheme " +
                                 schemeFlag(f.first().scheme) + " --corrupt " +
                                 toString(corruption) + " --expect " +
                                 toString(verdict));
        }
        // Every record carries a cycle claim, so the off-by-one one
        // must fail every compiled pair.
        if (corruption == ScheduleCorruption::CyclesOffByOne) {
            EXPECT_EQ(caught, summary.pairsCompiled);
        }
        fs::remove_all(options.failuresDir);
    }
}

TEST(FuzzSweep, MinimizationIsCapped)
{
    SweepOptions options =
        sweepOptions(14, ScheduleCorruption::ClusterOutOfRange);
    SweepSummary summary = runSweep(fuzzMachines(""), options);
    ASSERT_GT(summary.failures.size(), kMaxMinimized);
    EXPECT_EQ(countFiles(options.failuresDir), 3 * kMaxMinimized);
    EXPECT_TRUE(summary.failures[kMaxMinimized].minPath.empty());
    fs::remove_all(options.failuresDir);
}

TEST(FuzzSweep, DigestsIgnoreWorkerCountButNotTheCorpus)
{
    // One digest per (machine, scheme), folded in corpus order: the
    // worker count cannot change it, a different corpus must.
    const std::vector<FuzzMachine> machines = fuzzMachines("");
    SweepOptions options = sweepOptions(8, ScheduleCorruption::None);
    options.jobs = 1;
    SweepSummary serial = runSweep(machines, options);
    options.jobs = 3;
    SweepSummary parallel = runSweep(machines, options);
    options.count = 7;
    SweepSummary shorter = runSweep(machines, options);

    ASSERT_EQ(serial.digests.size(), machines.size() * 3);
    for (std::size_t i = 0; i < serial.digests.size(); ++i) {
        EXPECT_EQ(serial.digests[i].machine, parallel.digests[i].machine);
        EXPECT_EQ(serial.digests[i].scheme, parallel.digests[i].scheme);
        EXPECT_EQ(serial.digests[i].digest, parallel.digests[i].digest);
        EXPECT_NE(serial.digests[i].digest, shorter.digests[i].digest);
    }
}
