/**
 * @file
 * The parallel compilation engine: thread pool semantics, loop
 * fingerprinting, JSON writer output,
 * and the engine facade's two headline guarantees — bit-identical
 * results regardless of worker count, and >90% cache hit rate when
 * a suite is recompiled.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include <gtest/gtest.h>

#include "core/pipeline.hh"
#include "engine/engine.hh"
#include "engine/loop_key.hh"
#include "engine/thread_pool.hh"
#include "machine/configs.hh"
#include "serialize/record.hh"
#include "support/json.hh"
#include "support/telemetry.hh"
#include "testing/fixtures.hh"
#include "workload/specfp.hh"

using namespace gpsched;
using gpsched::testing::compileOne;

// --- thread pool ---------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, InlinePoolRunsOnSubmittingThread)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.numThreads(), 0);
    std::thread::id here = std::this_thread::get_id();
    std::thread::id ran;
    pool.submit([&ran] { ran = std::this_thread::get_id(); });
    EXPECT_EQ(ran, here);
    pool.wait(); // no-op, must not hang
}

TEST(ThreadPool, WaitIsReusableAcrossBatches)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    for (int batch = 0; batch < 3; ++batch) {
        for (int i = 0; i < 10; ++i)
            pool.submit([&counter] { ++counter; });
        pool.wait();
        EXPECT_EQ(counter.load(), 10 * (batch + 1));
    }
}

TEST(ThreadPool, DestructorDrainsOutstandingWork)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&counter] { ++counter; });
        // No wait(): the destructor must finish the queue.
    }
    EXPECT_EQ(counter.load(), 50);
}

// --- thread pool fault isolation -----------------------------------

TEST(ThreadPool, WorkerExceptionIsContainedAndRethrownFromWait)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    for (int i = 0; i < 20; ++i) {
        pool.submit([&counter, i] {
            ++counter;
            if (i == 7)
                throw std::runtime_error("task 7 failed");
        });
    }
    // Every task still runs — one throwing task must not kill the
    // worker, wedge the queue, or reach std::terminate.
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(counter.load(), 20);

    // The error is consumed, not sticky: the pool stays usable.
    pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 21);
}

TEST(ThreadPool, InlinePoolDefersExceptionToWaitWithoutLeaking)
{
    ThreadPool pool(0);
    std::atomic<int> counter{0};
    // submit() itself must contain the throw (no leak out of the
    // submitting call) and must leave the unfinished counter
    // balanced so wait() cannot deadlock.
    pool.submit([] { throw std::runtime_error("inline failure"); });
    pool.submit([&counter] { ++counter; });
    EXPECT_EQ(counter.load(), 1);
    EXPECT_THROW(pool.wait(), std::runtime_error);
    pool.wait(); // error consumed above; must return, not hang
}

TEST(ThreadPool, WaitRethrowsOnlyTheFirstErrorOfABatch)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 16; ++i) {
        pool.submit([&counter] {
            ++counter;
            throw std::runtime_error("every task fails");
        });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(counter.load(), 16);
    pool.wait(); // later errors of the batch were dropped
}

TEST(ThreadPool, DestructorDiscardsAPendingException)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 10; ++i) {
            pool.submit([&counter, i] {
                ++counter;
                if (i % 3 == 0)
                    throw std::runtime_error("boom");
            });
        }
        // No wait(): the destructor must drain the queue and swallow
        // the stored exception rather than terminate.
    }
    EXPECT_EQ(counter.load(), 10);
}

// --- loop fingerprint ----------------------------------------------

namespace
{

LoopCompilerOptions
defaultOptions()
{
    return LoopCompilerOptions{};
}

} // namespace

TEST(LoopKey, StructurallyIdenticalLoopsShareAKey)
{
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(64, 1);
    Ddg a = gpsched::testing::diamondLoop(lat);
    Ddg b = gpsched::testing::diamondLoop(lat); // same shape, fresh object
    LoopKey ka =
        makeLoopKey(a, m, SchedulerKind::Gp, defaultOptions());
    LoopKey kb =
        makeLoopKey(b, m, SchedulerKind::Gp, defaultOptions());
    EXPECT_EQ(ka, kb);
    EXPECT_EQ(ka.digest, fnv1a64(ka.canonical));
}

TEST(LoopKey, NamesAndLabelsDoNotAffectTheKey)
{
    LatencyTable lat;
    MachineConfig m = twoClusterConfig(32, 1);
    Ddg a("alpha");
    a.addNode(Opcode::IAlu, "x");
    Ddg b("beta");
    b.addNode(Opcode::IAlu, "completely_different_label");
    EXPECT_EQ(makeLoopKey(a, m, SchedulerKind::Gp, defaultOptions()),
              makeLoopKey(b, m, SchedulerKind::Gp, defaultOptions()));
}

TEST(LoopKey, EverySchedulingInputChangesTheKey)
{
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(64, 1);
    Ddg base = gpsched::testing::diamondLoop(lat);
    LoopKey reference =
        makeLoopKey(base, m, SchedulerKind::Gp, defaultOptions());

    // The scheme kind and every option field, one row each: flipping
    // one value away from the default must change the key, and no
    // two rows may share one.
    struct Row
    {
        const char *input;
        SchedulerKind kind;
        void (*flip)(LoopCompilerOptions &);
    };
    const Row rows[] = {
        {"scheme kind", SchedulerKind::Uracam,
         [](LoopCompilerOptions &) {}},
        {"repartition", SchedulerKind::Gp,
         [](LoopCompilerOptions &o) {
             o.repartition = RepartitionPolicy::Always;
         }},
        {"transferCost", SchedulerKind::Gp,
         [](LoopCompilerOptions &o) {
             o.transferCost = TransferCostPolicy::FastestFirst;
         }},
        {"partitioner.matching", SchedulerKind::Gp,
         [](LoopCompilerOptions &o) {
             o.partitioner.matching = MatchingPolicy::RandomMaximal;
         }},
        {"partitioner.edgeWeights.useDelayTerm", SchedulerKind::Gp,
         [](LoopCompilerOptions &o) {
             o.partitioner.edgeWeights.useDelayTerm = false;
         }},
        {"partitioner.edgeWeights.useSlackTerm", SchedulerKind::Gp,
         [](LoopCompilerOptions &o) {
             o.partitioner.edgeWeights.useSlackTerm = false;
         }},
        {"partitioner.registerAware", SchedulerKind::Gp,
         [](LoopCompilerOptions &o) {
             o.partitioner.registerAware = true;
         }},
    };
    std::set<std::string> canonical{reference.canonical};
    for (const Row &row : rows) {
        LoopCompilerOptions options = defaultOptions();
        row.flip(options);
        LoopKey key = makeLoopKey(base, m, row.kind, options);
        EXPECT_NE(reference.canonical, key.canonical) << row.input;
        EXPECT_TRUE(canonical.insert(key.canonical).second)
            << row.input << " aliases another row";
    }

    // Trip count.
    Ddg retripped = gpsched::testing::diamondLoop(lat);
    retripped.setTripCount(base.tripCount() + 1);
    EXPECT_NE(reference, makeLoopKey(retripped, m, SchedulerKind::Gp,
                                     defaultOptions()));

    // Machine: registers, bus latency, latency table.
    EXPECT_NE(reference,
              makeLoopKey(base, fourClusterConfig(32, 1),
                          SchedulerKind::Gp, defaultOptions()));
    EXPECT_NE(reference,
              makeLoopKey(base, fourClusterConfig(64, 2),
                          SchedulerKind::Gp, defaultOptions()));
    MachineConfig slowMul = fourClusterConfig(64, 1);
    OpTiming t = slowMul.latencies().timing(Opcode::FMul);
    ++t.latency;
    slowMul.latencies().setTiming(Opcode::FMul, t);
    EXPECT_NE(reference, makeLoopKey(base, slowMul, SchedulerKind::Gp,
                                     defaultOptions()));

    // Edge structure: extra edge, different latency.
    Ddg extraEdge = gpsched::testing::diamondLoop(lat);
    extraEdge.addEdge(0, 4, 1, 0, DepKind::Order);
    EXPECT_NE(reference, makeLoopKey(extraEdge, m, SchedulerKind::Gp,
                                     defaultOptions()));
}

namespace
{

/** Load -> FMul -> Store, the product carried one iteration. */
Ddg
pinnedLoop(std::int64_t trip_count)
{
    Ddg g("pinned");
    NodeId ld = g.addNode(Opcode::Load);
    NodeId mul = g.addNode(Opcode::FMul);
    NodeId st = g.addNode(Opcode::Store);
    g.addEdge(ld, mul, 2, 0, DepKind::Flow);
    g.addEdge(mul, st, 4, 0, DepKind::Flow);
    g.addEdge(mul, mul, 4, 1, DepKind::Flow);
    g.setTripCount(trip_count);
    return g;
}

std::string
hexBytes(const std::string &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    for (unsigned char byte : bytes) {
        out += digits[byte >> 4];
        out += digits[byte & 0xf];
    }
    return out;
}

} // namespace

TEST(LoopKey, EncodingIsPinned)
{
    // One byte per field (zigzag LEB128: value v < 64 is 2v) except
    // the trip count, 100 -> c8 01. Any change to these bytes must
    // bump keySchemaVersion (serialize/record.hh), or a cache written
    // by the old encoding would be read under the new one.
    const std::string expected =
        "06" "c801" "0c080e"               // n=3, trip 100, opcodes
        "06" "0002040000" "0204080000"     // e=3, two edges
        "0202080200"                       //   and the carried one
        "04" "04040420" "04040420"         // C=2: FUs and regs
        "02" "0202"                        // B=1: count, latency
        "0202" "0402" "0c0c" "0602" "0802" // latency table
        "1818" "0402" "0202" "0202" "0202"
        "0402" "0202" "0402"
        "04" "02" "02" "00" "02" "02" "00"; // kind and options
    LoopKey key = makeLoopKey(pinnedLoop(100), twoClusterConfig(32, 1),
                              SchedulerKind::Gp, defaultOptions());
    EXPECT_EQ(hexBytes(key.canonical), expected);
    EXPECT_EQ(hexDigest(key.digest), "5755d1b5561dcc94");
    EXPECT_EQ(keySchemaVersion, 4u);
}

TEST(LoopKey, VarintBoundariesGiveDistinctKeys)
{
    // Values either side of the zigzag varint's one-, two- and
    // three-byte boundaries (63/64, 8191/8192) and of plain LEB128's
    // (127/128, 16383/16384). No field can hold a negative value:
    // Ddg and LatencyTable reject them.
    const MachineConfig m = twoClusterConfig(32, 1);
    auto key = [&](std::int64_t trip) {
        return makeLoopKey(pinnedLoop(trip), m, SchedulerKind::Gp,
                           defaultOptions());
    };
    std::set<std::string> canonical;
    for (std::int64_t trip : {63, 64, 127, 128, 8191, 8192, 16383, 16384})
        EXPECT_TRUE(canonical.insert(key(trip).canonical).second)
            << "trip count " << trip << " aliases another";
    // The trip count's varint gains a byte exactly at 64 and 8192.
    auto size = [&](std::int64_t trip) {
        return key(trip).canonical.size();
    };
    EXPECT_EQ(size(64), size(63) + 1);
    EXPECT_EQ(size(128), size(127));
    EXPECT_EQ(size(8192), size(8191) + 1);
    EXPECT_EQ(size(16384), size(16383));
}

TEST(LoopKey, DigestCollisionsDoNotConfuseKeys)
{
    // Two distinct keys forced into the same bucket by an identical
    // digest: the canonical string must disambiguate.
    LoopKey a{"first", fnv1a64("first")};
    LoopKey b{"second", a.digest};
    EXPECT_NE(a, b);
    std::unordered_map<LoopKey, int> table;
    table.emplace(a, 1);
    table.emplace(b, 2);
    EXPECT_EQ(table.size(), 2u);
    EXPECT_EQ(table.at(a), 1);
    EXPECT_EQ(table.at(b), 2);
}

// --- JSON writer ---------------------------------------------------

TEST(JsonWriter, ProducesBalancedEscapedDocument)
{
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    json.member("name", "quote\" backslash\\ tab\t");
    json.member("count", 3);
    json.member("ratio", 0.25);
    json.member("flag", true);
    json.beginArray("items");
    json.element(1);
    json.element("two");
    json.endArray();
    json.beginObject("empty");
    json.endObject();
    json.endObject();

    std::string text = os.str();
    EXPECT_EQ(text.substr(text.size() - 2), "}\n");
    EXPECT_NE(text.find("\"quote\\\" backslash\\\\ tab\\t\""),
              std::string::npos);
    EXPECT_NE(text.find("\"count\": 3"), std::string::npos);
    EXPECT_NE(text.find("\"ratio\": 0.25"), std::string::npos);
    EXPECT_NE(text.find("\"flag\": true"), std::string::npos);
    EXPECT_NE(text.find("\"two\""), std::string::npos);
    EXPECT_NE(text.find("\"empty\": {}"), std::string::npos);
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull)
{
    EXPECT_EQ(JsonWriter::number(
                  std::numeric_limits<double>::quiet_NaN()),
              "null");
    EXPECT_EQ(
        JsonWriter::number(std::numeric_limits<double>::infinity()),
        "null");
}

// --- engine facade -------------------------------------------------

TEST(Engine, BatchPreservesSubmissionOrder)
{
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(64, 1);
    Ddg chain = gpsched::testing::chainLoop(6, lat);
    Ddg diamond = gpsched::testing::diamondLoop(lat);
    Ddg rec = gpsched::testing::recurrenceLoop(lat);

    EngineOptions options;
    options.jobs = 4;
    Engine engine(options);
    std::vector<EngineJob> batch = {
        EngineJob{&chain, &m, SchedulerKind::Gp, {}},
        EngineJob{&diamond, &m, SchedulerKind::Gp, {}},
        EngineJob{&rec, &m, SchedulerKind::Gp, {}},
    };
    std::vector<CompiledLoop> results =
        gpsched::testing::unwrapAll(engine.compileBatch(batch));
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].loopName, chain.name());
    EXPECT_EQ(results[1].loopName, diamond.name());
    EXPECT_EQ(results[2].loopName, rec.name());
}

TEST(Engine, CacheHitPatchesTheRequestedLoopName)
{
    LatencyTable lat;
    MachineConfig m = twoClusterConfig(32, 1);
    Ddg a("alpha");
    Ddg b("beta");
    for (Ddg *ddg : {&a, &b}) {
        NodeId x = ddg->addNode(Opcode::Load);
        NodeId y = ddg->addNode(Opcode::FAdd);
        ddg->addEdge(x, y, lat.latency(Opcode::Load));
    }

    Engine engine;
    CompiledLoop first = gpsched::testing::unwrapOne(
        compileOne(engine, EngineJob{&a, &m, SchedulerKind::Gp, {}}));
    CompiledLoop second = gpsched::testing::unwrapOne(
        compileOne(engine, EngineJob{&b, &m, SchedulerKind::Gp, {}}));
    EXPECT_EQ(first.loopName, "alpha");
    EXPECT_EQ(second.loopName, "beta");
    EXPECT_EQ(second.ii, first.ii);
    EXPECT_EQ(engine.metrics().counterValue("engine.cacheHits"), 1u);
}

TEST(Engine, OneJobEngineRunsInlineAndMemoizes)
{
    Engine engine(gpsched::testing::oneJobOptions());
    EXPECT_EQ(engine.jobs(), 1);
    LatencyTable lat;
    MachineConfig m = twoClusterConfig(32, 1);
    Ddg loop = gpsched::testing::diamondLoop(lat);
    EngineJob job{&loop, &m, SchedulerKind::Gp, {}};
    CompileResult first = compileOne(engine, job);
    CompileResult second = compileOne(engine, job);
    EXPECT_EQ(first.source, CompileSource::Compiled);
    EXPECT_EQ(second.source, CompileSource::Memory);
    EXPECT_EQ(scheduleDigest(first.loop), scheduleDigest(second.loop));
    EXPECT_EQ(engine.metrics().counterValue("engine.cacheHits"), 1u);
    EXPECT_EQ(engine.metrics().counterValue("engine.jobsSubmitted"),
              2u);
}

/**
 * A graph computes its SCC decomposition on first use and shares it
 * with every later reader (Ddg::sccs()). Here 4 workers start on
 * graphs that have none yet, with each loop's six jobs (2 machines
 * x 3 schemes) side by side in the batch, so several workers race
 * on each loop's first use. Every schedule must equal the 1-worker
 * run's. CI's nightly TSan step runs this test.
 */
TEST(Engine, ConcurrentFirstUseOfSharedSccsMatchesSerial)
{
    LatencyTable lat;
    std::vector<Program> suite = specFp95Suite(lat);
    suite.resize(3);
    const MachineConfig machines[] = {twoClusterConfig(32, 1),
                                      fourClusterConfig(32, 1)};

    auto digestAt = [&](int jobs) {
        // A copied graph starts without a decomposition.
        std::vector<Program> fresh = suite;
        std::vector<EngineJob> batch;
        for (const Program &program : fresh) {
            for (const Ddg &loop : program.loops) {
                for (const MachineConfig &m : machines) {
                    for (SchedulerKind kind :
                         {SchedulerKind::Uracam,
                          SchedulerKind::FixedPartition,
                          SchedulerKind::Gp})
                        batch.push_back(EngineJob{&loop, &m, kind, {}});
                }
            }
        }
        EngineOptions options;
        options.jobs = jobs;
        Engine engine(options);
        std::uint64_t digest = 0;
        for (const CompiledLoop &loop : gpsched::testing::unwrapAll(
                 engine.compileBatch(batch)))
            digest = scheduleDigest(loop, digest);
        return digest;
    };
    EXPECT_EQ(digestAt(4), digestAt(1));
}

/**
 * Within one batch the URACAM, Fixed and GP jobs of one loop on one
 * machine share a LoopPrelude: each compile still opens its Mii
 * phase, but the partitioner runs once, at the MII, and each record
 * equals the one a one-job batch compiles on a fresh graph (Fixed
 * and GP each still count the MII partition in partitionRuns).
 */
TEST(Engine, SchemesOfOneLoopShareOneMiiPartition)
{
    LatencyTable lat;
    const Ddg loop = gpsched::testing::diamondLoop(lat);
    const MachineConfig m = twoClusterConfig(32, 1);
    const SchedulerKind kinds[] = {SchedulerKind::Uracam,
                                   SchedulerKind::FixedPartition,
                                   SchedulerKind::Gp};
    std::vector<EngineJob> batch;
    for (SchedulerKind kind : kinds)
        batch.push_back(EngineJob{&loop, &m, kind, {}});

    EngineOptions options = gpsched::testing::oneJobOptions();
    options.collectPhases = true;
    Engine engine(options);
    std::vector<CompiledLoop> shared =
        gpsched::testing::unwrapAll(engine.compileBatch(batch));
    const CompileTrace phases = engine.phaseTotals();
    EXPECT_EQ(phases.phase(CompilePhase::Mii).count, 3u);
    EXPECT_EQ(phases.phase(CompilePhase::Coarsen).count, 1u);
    EXPECT_EQ(phases.phase(CompilePhase::InitialPartition).count, 1u);
    ASSERT_EQ(shared.size(), 3u);
    EXPECT_EQ(shared[0].partitionRuns, 0);
    EXPECT_EQ(shared[1].partitionRuns, 1);
    EXPECT_EQ(shared[2].partitionRuns, 1);

    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Ddg fresh = loop; // a copy computes its own analyses
        Engine alone(gpsched::testing::oneJobOptions());
        CompiledLoop one = gpsched::testing::unwrapOne(
            compileOne(alone, EngineJob{&fresh, &m, kinds[i], {}}));
        EXPECT_EQ(scheduleDigest(shared[i]), scheduleDigest(one))
            << toString(kinds[i]);
    }
}

/**
 * Of two structurally identical jobs, the one first to reach the
 * result table compiles, so the owners vary with the submission
 * order (and, with workers, with timing). The partitions a batch
 * runs must not: identical loops share one prelude, so the MII
 * partition runs once in either order below, although with the
 * first order the Fixed owner compiles loop a and the GP owner
 * loop b.
 */
TEST(Engine, IdenticalLoopsShareOnePreludeWhateverTheOrder)
{
    LatencyTable lat;
    const Ddg a = gpsched::testing::diamondLoop(lat);
    const Ddg b = a;
    const MachineConfig m = twoClusterConfig(32, 1);
    const EngineJob aFixed{&a, &m, SchedulerKind::FixedPartition, {}};
    const EngineJob aGp{&a, &m, SchedulerKind::Gp, {}};
    const EngineJob bFixed{&b, &m, SchedulerKind::FixedPartition, {}};
    const EngineJob bGp{&b, &m, SchedulerKind::Gp, {}};

    for (const std::vector<EngineJob> &batch :
         {std::vector<EngineJob>{aFixed, bGp, aGp, bFixed},
          std::vector<EngineJob>{aFixed, aGp, bFixed, bGp}}) {
        EngineOptions options = gpsched::testing::oneJobOptions();
        options.collectPhases = true;
        Engine engine(options);
        std::vector<CompiledLoop> loops =
            gpsched::testing::unwrapAll(engine.compileBatch(batch));
        EXPECT_EQ(engine.metrics().counterValue("engine.cacheMisses"),
                  2u);
        EXPECT_EQ(engine.phaseTotals()
                      .phase(CompilePhase::Coarsen)
                      .count,
                  1u);
        for (const CompiledLoop &loop : loops)
            EXPECT_EQ(loop.partitionRuns, 1);
    }
}

/**
 * The racing first uses of a batch's preludes and of the graphs'
 * analyses (Ddg::iiAnalysis() and the rest of the graph's slot):
 * 4 workers start on fresh graphs whose Fixed and GP jobs for each
 * machine sit side by side, so two workers ask for each prelude's
 * MII and MII partition at once while others ask for the same
 * loop's per-II analyses. Every schedule must equal the 1-worker
 * run's. CI's nightly TSan step runs this test.
 */
TEST(Engine, ConcurrentFirstUseOfSharedPreludesMatchesSerial)
{
    LatencyTable lat;
    std::vector<Program> suite = specFp95Suite(lat);
    suite.resize(3);
    const MachineConfig machines[] = {twoClusterConfig(32, 1),
                                      fourClusterConfig(32, 2)};

    auto digestAt = [&](int jobs) {
        std::vector<Program> fresh = suite;
        std::vector<EngineJob> batch;
        for (const Program &program : fresh) {
            for (const Ddg &loop : program.loops) {
                for (const MachineConfig &m : machines) {
                    for (SchedulerKind kind :
                         {SchedulerKind::FixedPartition,
                          SchedulerKind::Gp})
                        batch.push_back(EngineJob{&loop, &m, kind, {}});
                }
            }
        }
        EngineOptions options;
        options.jobs = jobs;
        Engine engine(options);
        std::uint64_t digest = 0;
        for (const CompiledLoop &loop : gpsched::testing::unwrapAll(
                 engine.compileBatch(batch)))
            digest = scheduleDigest(loop, digest);
        return digest;
    };
    EXPECT_EQ(digestAt(4), digestAt(1));
}

/**
 * The determinism regression: the full synthetic SPECfp95 suite
 * compiled with jobs=1 and jobs=8 must produce bit-identical
 * compiled records (scheduleDigest: metrics, placements, transfers)
 * under all three schemes.
 */
TEST(Engine, SuiteResultsAreIdenticalAcrossWorkerCounts)
{
    LatencyTable lat;
    std::vector<Program> suite = specFp95Suite(lat);
    MachineConfig m = fourClusterConfig(32, 1);

    for (SchedulerKind kind :
         {SchedulerKind::Uracam, SchedulerKind::FixedPartition,
          SchedulerKind::Gp}) {
        EngineOptions serial;
        serial.jobs = 1;
        Engine engineSerial(serial);
        SuiteResult one = compileSuite(engineSerial, suite, m, kind);

        EngineOptions parallel;
        parallel.jobs = 8;
        Engine engineParallel(parallel);
        SuiteResult eight =
            compileSuite(engineParallel, suite, m, kind);

        EXPECT_EQ(scheduleDigest(one), scheduleDigest(eight))
            << "scheme " << toString(kind);
    }
}

/** Engine-routed compilation must match the legacy serial pipeline. */
TEST(Engine, MatchesLegacySerialPipeline)
{
    LatencyTable lat;
    std::vector<Program> suite = specFp95Suite(lat);
    suite.resize(3);
    MachineConfig m = twoClusterConfig(32, 1);

    SuiteResult legacy =
        compileSuite(suite, m, SchedulerKind::Gp);
    EngineOptions options;
    options.jobs = 4;
    Engine engine(options);
    SuiteResult batched =
        compileSuite(engine, suite, m, SchedulerKind::Gp);
    EXPECT_EQ(scheduleDigest(legacy), scheduleDigest(batched));
}

/** Recompiling the same suite must be served almost fully by cache. */
TEST(Engine, SuiteRerunExceedsNinetyPercentHitRate)
{
    LatencyTable lat;
    std::vector<Program> suite = specFp95Suite(lat);
    MachineConfig m = fourClusterConfig(64, 1);

    EngineOptions options;
    options.jobs = 4;
    Engine engine(options);
    MetricRegistry::Counter &jobs =
        engine.metrics().counter("engine.jobsSubmitted");
    MetricRegistry::Counter &hits =
        engine.metrics().counter("engine.cacheHits");
    SuiteResult first =
        compileSuite(engine, suite, m, SchedulerKind::Gp);
    std::uint64_t coldJobs = jobs.value();
    std::uint64_t coldHits = hits.value();
    SuiteResult second =
        compileSuite(engine, suite, m, SchedulerKind::Gp);

    std::uint64_t rerunJobs = jobs.value() - coldJobs;
    std::uint64_t rerunHits = hits.value() - coldHits;
    ASSERT_GT(rerunJobs, 0u);
    // Every job of the rerun is a hit; the acceptance bar is 90%.
    EXPECT_EQ(rerunHits, rerunJobs);
    EXPECT_GT(static_cast<double>(rerunHits) /
                  static_cast<double>(rerunJobs),
              0.9);
    EXPECT_EQ(scheduleDigest(first), scheduleDigest(second));
}

/**
 * The deterministic stand-in for a speedup bound: N tasks that each
 * wait until all N have started can only finish if N workers run
 * them at once, and the per-worker task counters then show every
 * worker took exactly one. The wait's timeout is a deadlock guard
 * only; it never decides the verdict on a healthy pool.
 */
TEST(ThreadPool, EveryWorkerRunsATaskConcurrently)
{
    constexpr int workers = 4;
    MetricRegistry registry;
    PoolTelemetry telemetry;
    telemetry.metrics = &registry;
    std::mutex mutex;
    std::condition_variable allStarted;
    int started = 0;
    std::atomic<int> stuck{0};
    {
        ThreadPool pool(workers, telemetry);
        for (int t = 0; t < workers; ++t) {
            pool.submit([&] {
                std::unique_lock<std::mutex> lock(mutex);
                ++started;
                allStarted.notify_all();
                if (!allStarted.wait_for(lock, std::chrono::minutes(2),
                                         [&] {
                                             return started == workers;
                                         }))
                    ++stuck;
            });
        }
        pool.wait();
    }
    ASSERT_EQ(stuck.load(), 0) << "only " << started << " of "
                               << workers << " tasks ran at once";
    std::uint64_t total = 0;
    for (int w = 0; w < workers; ++w) {
        std::uint64_t tasks =
            registry.counter("pool.worker." + std::to_string(w) +
                             ".tasks")
                .value();
        EXPECT_EQ(tasks, 1u) << "worker " << w;
        total += tasks;
    }
    EXPECT_EQ(total, static_cast<std::uint64_t>(workers));
}

/**
 * Wall-clock acceptance, disabled in tier-1 because its verdict
 * depends on what else the machine runs (CI's skip audit runs it
 * explicitly): on a >= 4-core machine, compiling the full suite with
 * jobs=hardware_concurrency must be >= 3x faster than jobs=1.
 * Every run compiles a fresh copy of the suite (no SCCs computed
 * yet) on a fresh engine (an empty result table), so both sides do
 * identical work, and each side takes its best of three runs to
 * shrug off scheduler noise. Skipped on smaller machines, where the
 * bound cannot hold.
 */
TEST(Engine, DISABLED_ParallelSpeedupOnMultiCore)
{
    int hw = ThreadPool::hardwareConcurrency();
    if (hw < 4)
        GTEST_SKIP() << "needs >= 4 cores, have " << hw;

    LatencyTable lat;
    std::vector<Program> suite = specFp95Suite(lat);
    MachineConfig m = fourClusterConfig(32, 1);

    auto bestSeconds = [&](int jobs) {
        EngineOptions options;
        options.jobs = jobs;
        double best = std::numeric_limits<double>::max();
        for (int rep = 0; rep < 3; ++rep) {
            std::vector<Program> fresh = suite;
            Engine engine(options);
            auto start = std::chrono::steady_clock::now();
            compileSuite(engine, fresh, m, SchedulerKind::Gp);
            std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - start;
            best = std::min(best, elapsed.count());
        }
        return best;
    };

    double serial = bestSeconds(1);
    double parallel = bestSeconds(hw);
    ASSERT_GT(parallel, 0.0);
    EXPECT_GE(serial / parallel, 3.0)
        << "serial " << serial << "s, parallel " << parallel << "s";
}

// --- engine fault isolation ----------------------------------------

namespace
{

/**
 * A loop the engine must reject: its flow edge promises latency 1
 * while FMul takes longer on every config used here, so computeMii
 * throws CompileError(InvalidInput). Built with raw addNode/addEdge
 * precisely because DdgBuilder would fill in the correct latency.
 */
Ddg
latencyMismatchLoop(const std::string &name)
{
    Ddg ddg(name);
    NodeId x = ddg.addNode(Opcode::FMul);
    NodeId y = ddg.addNode(Opcode::FAdd);
    ddg.addEdge(x, y, 1, 0, DepKind::Flow);
    ddg.setTripCount(10);
    return ddg;
}

} // namespace

/**
 * The coalescing error path, run under TSan in CI: structurally
 * identical bad loops submitted concurrently share one in-flight
 * compile; the owner's CompileError must reach every coalesced
 * duplicate (patched to the duplicate's own loop name), the owner
 * must erase its table entry, and the failure must never be
 * cached — a retry recompiles (no negative caching).
 */
TEST(Engine, CoalescedDuplicatesObserveTheOwnersError)
{
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(64, 1);
    std::vector<Ddg> loops;
    for (int i = 0; i < 16; ++i)
        loops.push_back(
            latencyMismatchLoop("bad" + std::to_string(i)));

    EngineOptions options;
    options.jobs = 8;
    Engine engine(options);
    std::vector<EngineJob> batch;
    for (const Ddg &ddg : loops)
        batch.push_back(EngineJob{&ddg, &m, SchedulerKind::Gp, {}});
    std::vector<CompileResult> results = engine.compileBatch(batch);

    ASSERT_EQ(results.size(), batch.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_FALSE(results[i].ok()) << "job " << i;
        EXPECT_EQ(results[i].error->kind(),
                  CompileErrorKind::InvalidInput);
        EXPECT_EQ(results[i].error->loopName(), loops[i].name());
        EXPECT_NE(std::string(results[i].error->what())
                      .find("promises latency"),
                  std::string::npos);
    }

    auto count = [&](const char *name) {
        return engine.metrics().counterValue(name);
    };
    EXPECT_EQ(count("engine.failed"), batch.size());
    EXPECT_EQ(count("engine.cacheHits"), 0u);
    EXPECT_EQ(count("engine.coalesced") + count("engine.cacheMisses"),
              count("engine.jobsSubmitted"));

    // No negative caching: resubmitting misses and recompiles —
    // never serves the failure (or a stale success) from cache.
    const std::uint64_t misses = count("engine.cacheMisses");
    std::vector<CompileResult> retry = engine.compileBatch(batch);
    for (const CompileResult &result : retry)
        EXPECT_FALSE(result.ok());
    EXPECT_EQ(count("engine.cacheHits"), 0u);
    EXPECT_GT(count("engine.cacheMisses"), misses);
    EXPECT_EQ(count("engine.failed"), 2 * batch.size());
}

/** One bad loop must not poison the rest of a mixed batch. */
TEST(Engine, MixedBatchIsolatesTheFailure)
{
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(64, 1);
    Ddg good = gpsched::testing::diamondLoop(lat);
    Ddg bad = latencyMismatchLoop("bad");
    Ddg alsoGood = gpsched::testing::chainLoop(6, lat);

    EngineOptions options;
    options.jobs = 4;
    Engine engine(options);
    std::vector<EngineJob> batch = {
        EngineJob{&good, &m, SchedulerKind::Gp, {}},
        EngineJob{&bad, &m, SchedulerKind::Gp, {}},
        EngineJob{&alsoGood, &m, SchedulerKind::Gp, {}},
    };
    std::vector<CompileResult> results = engine.compileBatch(batch);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok());
    ASSERT_FALSE(results[1].ok());
    EXPECT_EQ(results[1].error->loopName(), "bad");
    EXPECT_TRUE(results[2].ok());
    EXPECT_EQ(engine.metrics().counterValue("engine.failed"), 1u);

    // Diagnostics carry a file:line location for triage.
    EXPECT_NE(results[1].error->location().find(".cc:"),
              std::string::npos);

    // The failed key leaves no entry behind: only the two good keys
    // stay in the result table.
    MetricRegistry exported;
    engine.exportStats(exported);
    EXPECT_EQ(exported.gauge("engine.cacheSize").value(), 2);
}

/**
 * A CompileError raised by a prelude's MII reaches every job that
 * shares the prelude, each under its own job's loop name, while a
 * job of another machine (another prelude) still compiles.
 */
TEST(Engine, PreludeErrorReachesEveryJobSharingIt)
{
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(64, 1);
    Ddg bad = latencyMismatchLoop("bad");
    Ddg good = gpsched::testing::diamondLoop(lat);

    EngineOptions options;
    options.jobs = 4;
    Engine engine(options);
    std::vector<EngineJob> batch = {
        EngineJob{&bad, &m, SchedulerKind::Uracam, {}},
        EngineJob{&bad, &m, SchedulerKind::FixedPartition, {}},
        EngineJob{&good, &m, SchedulerKind::Gp, {}},
        EngineJob{&bad, &m, SchedulerKind::Gp, {}},
    };
    std::vector<CompileResult> results = engine.compileBatch(batch);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_TRUE(results[2].ok());
    for (std::size_t i : {0u, 1u, 3u}) {
        ASSERT_FALSE(results[i].ok()) << "job " << i;
        EXPECT_EQ(results[i].error->kind(),
                  CompileErrorKind::InvalidInput);
        EXPECT_EQ(results[i].error->loopName(), "bad");
        EXPECT_EQ(std::string(results[i].error->what()),
                  std::string(results[0].error->what()));
        EXPECT_NE(std::string(results[i].error->what())
                      .find("promises latency"),
                  std::string::npos);
    }
    EXPECT_EQ(engine.metrics().counterValue("engine.failed"), 3u);
    EXPECT_EQ(engine.metrics().counterValue("engine.cacheMisses"), 4u);
}

// --- the engine's counter store -------------------------------------

/** A caller's registry holds the live counters: no export needed. */
TEST(EngineMetrics, CallerRegistrySeesCountersWithoutExport)
{
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(64, 1);
    Ddg diamond = gpsched::testing::diamondLoop(lat);
    Ddg chain = gpsched::testing::chainLoop(6, lat);

    MetricRegistry registry;
    EngineOptions options;
    options.jobs = 2;
    options.metrics = &registry;
    Engine engine(options);
    EXPECT_EQ(&engine.metrics(), &registry);
    std::vector<EngineJob> batch;
    for (int i = 0; i < 4; ++i) {
        batch.push_back(EngineJob{&diamond, &m, SchedulerKind::Gp, {}});
        batch.push_back(EngineJob{&chain, &m, SchedulerKind::Gp, {}});
    }
    gpsched::testing::unwrapAll(engine.compileBatch(batch));

    auto count = [&](const char *name) {
        return registry.counter(name).value();
    };
    EXPECT_EQ(count("engine.jobsSubmitted"), batch.size());
    EXPECT_EQ(count("engine.cacheMisses"), 2u);
    EXPECT_EQ(count("engine.cacheHits") + count("engine.coalesced"),
              batch.size() - 2);
    EXPECT_EQ(count("engine.failed"), 0u);

    // Exporting into the counting registry changes no counter.
    engine.exportStats(registry);
    engine.exportStats(registry);
    EXPECT_EQ(count("engine.jobsSubmitted"), batch.size());
    EXPECT_EQ(count("engine.cacheMisses"), 2u);
    // The table holds one entry per distinct key.
    EXPECT_EQ(registry.gauge("engine.cacheSize").value(), 2);
}

/** Without a caller registry the counters still count, into the
 *  engine's own registry, and pool telemetry stays off. */
TEST(EngineMetrics, OwnRegistryCountsWithoutPoolTelemetry)
{
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(64, 1);
    Ddg loop = gpsched::testing::diamondLoop(lat);

    EngineOptions options;
    options.jobs = 2;
    Engine engine(options);
    std::vector<EngineJob> batch(4, EngineJob{&loop, &m,
                                              SchedulerKind::Gp, {}});
    gpsched::testing::unwrapAll(engine.compileBatch(batch));

    EXPECT_EQ(engine.metrics().counterValue("engine.jobsSubmitted"),
              4u);
    EXPECT_EQ(engine.metrics().counterValue("engine.cacheMisses"), 1u);
    std::ostringstream dump;
    engine.metrics().writeJson(dump);
    EXPECT_EQ(dump.str().find("pool."), std::string::npos)
        << dump.str();
}
