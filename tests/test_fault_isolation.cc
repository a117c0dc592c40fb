/**
 * @file
 * The PR's acceptance bar for per-loop fault isolation: a 100-loop
 * batch seeded with malformed loops — edge-latency mismatches that
 * fail inside the engine plus parse-stage failures rejected before
 * batching — must complete without killing the process, attach a
 * diagnostic to exactly the bad loops, and produce bit-identical
 * schedules for every good loop whether compiled at jobs=1, jobs=8,
 * or in a clean batch that never contained the bad loops at all.
 * The `gpsched compile` front end's half, parse-stage failures and
 * the report rows, is pinned through engine/report.hh. Run under
 * TSan in the nightly sweep.
 */

#include <cstddef>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.hh"
#include "engine/report.hh"
#include "machine/configs.hh"
#include "support/compile_error.hh"
#include "testing/fixtures.hh"
#include "workload/loop_shapes.hh"

using namespace gpsched;
using namespace gpsched::testing;

namespace
{

/** Bad loop: flow edge promises latency 1, FMul needs 4. */
Ddg
latencyMismatchLoop(const std::string &name)
{
    Ddg ddg(name);
    NodeId mul = ddg.addNode(Opcode::FMul);
    NodeId add = ddg.addNode(Opcode::FAdd);
    ddg.addEdge(mul, add, 1, 0, DepKind::Flow);
    ddg.setTripCount(10);
    return ddg;
}

/** 100 loops; the indices in @p badAt are latency-mismatch loops,
 *  the rest cycle through the workload kernel generators with
 *  varying shapes so the batch is structurally diverse. */
std::vector<Ddg>
hundredLoopBatch(const std::set<std::size_t> &badAt)
{
    LatencyTable lat;
    std::vector<Ddg> loops;
    for (std::size_t i = 0; i < 100; ++i) {
        std::string name = "loop" + std::to_string(i);
        if (badAt.count(i)) {
            loops.push_back(latencyMismatchLoop(name));
            continue;
        }
        int shape = static_cast<int>(i % 4);
        int size = 2 + static_cast<int>(i % 5);
        std::int64_t trip = 20 + static_cast<std::int64_t>(i);
        switch (shape) {
          case 0:
            loops.push_back(stencilKernel(name, lat, size, trip));
            break;
          case 1:
            loops.push_back(reductionKernel(name, lat, size, trip));
            break;
          case 2:
            loops.push_back(recurrenceKernel(name, lat, size, trip));
            break;
          default:
            loops.push_back(streamKernel(name, lat, size, 2, trip));
            break;
        }
    }
    return loops;
}

/** Everything of a CompiledLoop except wall-clock bookkeeping. */
std::string
fingerprint(const CompiledLoop &loop)
{
    std::ostringstream os;
    os << loop.moduloScheduled << "|" << loop.mii << "|" << loop.ii
       << "|" << loop.scheduleLength << "|" << loop.cycles << "|"
       << loop.ops << "|" << loop.ipc << "|"
       << loop.stats.busTransfers << "|" << loop.stats.memTransfers
       << "|" << loop.stats.spills << "|" << loop.partitionRuns
       << "|" << loop.scheduleAttempts;
    for (const OpPlacement &placement : loop.placements)
        os << "," << placement.cluster << "@" << placement.cycle;
    return os.str();
}

std::vector<CompileResult>
compileAt(int jobs, const std::vector<Ddg> &loops,
          const MachineConfig &machine, std::uint64_t *failed)
{
    EngineOptions options;
    options.jobs = jobs;
    Engine engine(options);
    std::vector<EngineJob> batch;
    batch.reserve(loops.size());
    for (const Ddg &ddg : loops)
        batch.push_back(
            EngineJob{&ddg, &machine, SchedulerKind::Gp, {}});
    std::vector<CompileResult> results = engine.compileBatch(batch);
    if (failed)
        *failed = engine.metrics().counterValue("engine.failed");
    return results;
}

} // namespace

TEST(FaultIsolation, HundredLoopBatchSurvivesItsBadLoops)
{
    const std::set<std::size_t> badAt = {13, 47, 88};
    std::vector<Ddg> loops = hundredLoopBatch(badAt);
    MachineConfig m = fourClusterConfig(32, 1);

    std::uint64_t failedSerial = 0, failedParallel = 0;
    std::vector<CompileResult> serial =
        compileAt(1, loops, m, &failedSerial);
    std::vector<CompileResult> parallel =
        compileAt(8, loops, m, &failedParallel);

    ASSERT_EQ(serial.size(), loops.size());
    ASSERT_EQ(parallel.size(), loops.size());
    EXPECT_EQ(failedSerial, badAt.size());
    EXPECT_EQ(failedParallel, badAt.size());

    // A clean batch that never contained the saboteurs: the good
    // loops' schedules must be bit-identical to it in both runs.
    std::vector<Ddg> clean;
    std::vector<std::size_t> cleanIndex(loops.size(), SIZE_MAX);
    for (std::size_t i = 0; i < loops.size(); ++i) {
        if (!badAt.count(i)) {
            cleanIndex[i] = clean.size();
            clean.push_back(loops[i]);
        }
    }
    std::vector<CompiledLoop> reference =
        unwrapAll(compileAt(4, clean, m, nullptr));
    ASSERT_EQ(reference.size(), clean.size());

    for (std::size_t i = 0; i < loops.size(); ++i) {
        if (badAt.count(i)) {
            // Diagnostics for exactly the bad loops, attributed to
            // the right loop, with kind and file:line location.
            for (const std::vector<CompileResult> *run :
                 {&serial, &parallel}) {
                const CompileResult &result = (*run)[i];
                ASSERT_FALSE(result.ok()) << "index " << i;
                EXPECT_EQ(result.error->kind(),
                          CompileErrorKind::InvalidInput);
                EXPECT_EQ(result.error->loopName(),
                          loops[i].name());
                EXPECT_NE(std::string(result.error->what())
                              .find("promises latency"),
                          std::string::npos);
                EXPECT_NE(result.error->location().find(".cc:"),
                          std::string::npos);
            }
            continue;
        }
        ASSERT_TRUE(serial[i].ok()) << "index " << i;
        ASSERT_TRUE(parallel[i].ok()) << "index " << i;
        const std::string expected =
            fingerprint(reference[cleanIndex[i]]);
        EXPECT_EQ(fingerprint(serial[i].loop), expected)
            << "jobs=1 diverged at index " << i;
        EXPECT_EQ(fingerprint(parallel[i].loop), expected)
            << "jobs=8 diverged at index " << i;
    }
}

// ---------------------------------------------------------------------
// The parse stage and the report: `gpsched compile` through the
// library (engine/report.hh) — parse failures become typed error rows,
// the surviving loops compile and carry their verdicts.
// ---------------------------------------------------------------------

namespace
{

const std::string kSample = GPSCHED_SOURCE_DIR "/tools/sample_loop.ddg";
const std::string kMixed = GPSCHED_SOURCE_DIR "/tools/mixed_loops.ddg";

/** Occurrences of @p needle in @p text. */
int
occurrences(const std::string &text, const std::string &needle)
{
    int n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size()))
        ++n;
    return n;
}

/** A simulated all-scheme batch of @p file on the CLI's default
 *  machine. */
CompileReport
simulatedReport(const std::string &file, bool keepGoing)
{
    CompileReport report(fourClusterConfig(64));
    report.schemes = {SchedulerKind::Uracam, SchedulerKind::FixedPartition,
                      SchedulerKind::Gp};
    report.inputs = readCompileInputs({file}, keepGoing);
    report.keepGoing = keepGoing;
    report.simulate = true;
    return report;
}

} // namespace

TEST(CompileReport, EveryCompiledRowCarriesItsVerdict)
{
    CompileReport report = simulatedReport(kSample, false);
    report.repeat = 2;
    Engine engine(oneJobOptions());
    compileAll(engine, report);
    ASSERT_EQ(report.results.size(), 6u); // 2 loops x 3 schemes
    EXPECT_FALSE(report.failed());

    std::ostringstream json;
    writeCompileReport(json, report, engine);
    EXPECT_EQ(occurrences(json.str(), "\"schemaVersion\": 2"), 1);
    EXPECT_EQ(occurrences(json.str(), "\"file\": "), 6);
    EXPECT_EQ(occurrences(json.str(), "\"verdict\": \"pass\""), 6);
    EXPECT_EQ(occurrences(json.str(), "\"simOk\": true"), 6);
    EXPECT_EQ(occurrences(json.str(), "\"repeat\": 2"), 1);
    EXPECT_EQ(occurrences(json.str(), "\"error\""), 0);
}

TEST(CompileReport, ParseAndCompileFailuresBecomeErrorRows)
{
    CompileReport report = simulatedReport(kMixed, true);
    ASSERT_EQ(report.inputs.size(), 4u);
    const CompileInput &broken = report.inputs[1];
    ASSERT_FALSE(broken.parsed());
    EXPECT_EQ(broken.parseError->kind(), CompileErrorKind::Parse);
    EXPECT_EQ(broken.parseError->loopName(), "broken_parse");
    Engine engine(oneJobOptions());
    compileAll(engine, report);
    EXPECT_TRUE(report.failed());

    // Per scheme: good_one and good_two compile and pass both oracles,
    // broken_parse fails to parse, the engine rejects stale_latency.
    std::ostringstream json;
    writeCompileReport(json, report, engine);
    EXPECT_EQ(occurrences(json.str(), "\"file\": "), 12);
    EXPECT_EQ(occurrences(json.str(), "\"error\": {"), 6);
    EXPECT_EQ(occurrences(json.str(), "\"kind\": \"parse\""), 3);
    EXPECT_EQ(occurrences(json.str(), "\"kind\": \"invalid-input\""), 3);
    EXPECT_EQ(occurrences(json.str(), "\"verdict\": "), 6);
    EXPECT_EQ(occurrences(json.str(), "\"verdict\": \"pass\""), 6);
    EXPECT_EQ(occurrences(json.str(), "\"keepGoing\": true"), 1);
}

TEST(CompileReport, WithoutKeepGoingTheFirstCompileFailureThrows)
{
    CompileReport report = simulatedReport(kMixed, true);
    report.inputs.erase(report.inputs.begin() + 1); // the parse failure
    report.keepGoing = false;
    Engine engine(oneJobOptions());
    EXPECT_THROW(compileAll(engine, report), CompileError);
}
