/**
 * @file
 * The telemetry subsystem: phase spans and the ambient context, the
 * metric registry and its JSON dump, the Chrome trace sink, and the
 * engine integration — per-result provenance (source/compileMs),
 * phase totals, stats export, trace integrity under a threaded
 * engine, and the headline guarantee that telemetry never changes a
 * schedule.
 */

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "engine/engine.hh"
#include "machine/configs.hh"
#include "support/telemetry.hh"
#include "support/trace.hh"
#include "testing/fixtures.hh"

namespace fs = std::filesystem;

using namespace gpsched;
using gpsched::testing::compileOne;

namespace
{

/** Fresh empty cache directory unique to this test and process. */
std::string
freshCacheDir(const std::string &tag)
{
    fs::path dir = fs::temp_directory_path() /
                   ("gpsched_" + tag + "_" +
                    std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** Spin until the thread CPU clock has visibly advanced. */
void
burnCpu()
{
    std::uint64_t start = threadCpuNanos();
    volatile double sink = 0.0;
    while (threadCpuNanos() - start < 100 * 1000)
        sink = sink + 1.0;
}

} // namespace

// --- phase taxonomy -------------------------------------------------

TEST(CompilePhase, NamesAreStable)
{
    // These strings are JSON schema: renaming one breaks every
    // downstream consumer of the phases blocks.
    EXPECT_STREQ(compilePhaseName(CompilePhase::Mii), "mii");
    EXPECT_STREQ(compilePhaseName(CompilePhase::Coarsen), "coarsen");
    EXPECT_STREQ(compilePhaseName(CompilePhase::InitialPartition),
                 "initialPartition");
    EXPECT_STREQ(compilePhaseName(CompilePhase::Refine), "refine");
    EXPECT_STREQ(compilePhaseName(CompilePhase::ModuloSchedule),
                 "moduloSchedule");
    EXPECT_STREQ(compilePhaseName(CompilePhase::TransferPlanning),
                 "transferPlanning");
    EXPECT_STREQ(compilePhaseName(CompilePhase::ListSchedule),
                 "listSchedule");
}

TEST(CompilePhase, OnlyTransferPlanningIsTotalsOnly)
{
    for (std::size_t i = 0; i < kNumCompilePhases; ++i) {
        auto phase = static_cast<CompilePhase>(i);
        EXPECT_EQ(compilePhaseTraced(phase),
                  phase != CompilePhase::TransferPlanning);
    }
}

TEST(CompileTrace, MergeAccumulatesAndEmptyReflectsContent)
{
    CompileTrace a;
    EXPECT_TRUE(a.empty());
    a.phase(CompilePhase::Coarsen).wallNanos = 10;
    a.phase(CompilePhase::Coarsen).count = 1;
    a.wallNanos = 25;
    a.compiles = 1;
    EXPECT_FALSE(a.empty());

    CompileTrace b;
    b.phase(CompilePhase::Coarsen).wallNanos = 5;
    b.phase(CompilePhase::Coarsen).count = 2;
    b.phase(CompilePhase::Refine).cpuNanos = 7;
    b.compiles = 3;

    a.merge(b);
    EXPECT_EQ(a.phase(CompilePhase::Coarsen).wallNanos, 15u);
    EXPECT_EQ(a.phase(CompilePhase::Coarsen).count, 3u);
    EXPECT_EQ(a.phase(CompilePhase::Refine).cpuNanos, 7u);
    EXPECT_EQ(a.compiles, 4u);
}

// --- phase spans and the ambient context ----------------------------

TEST(PhaseScope, NoContextIsANoop)
{
    telemetryContext() = TelemetryContext{};
    {
        GPSCHED_PHASE_SPAN(Coarsen);
        burnCpu();
    }
    EXPECT_EQ(telemetryContext().trace, nullptr);
}

TEST(PhaseScope, AccumulatesIntoAmbientTrace)
{
    CompileTrace trace;
    TelemetryContext ctx;
    ctx.trace = &trace;
    ScopedTelemetryContext scoped(ctx);
    {
        GPSCHED_PHASE_SPAN(Refine);
        burnCpu();
    }
    {
        GPSCHED_PHASE_SPAN(Refine);
        burnCpu();
    }
    const PhaseTotals &refine = trace.phase(CompilePhase::Refine);
    EXPECT_EQ(refine.count, 2u);
    EXPECT_GT(refine.wallNanos, 0u);
    EXPECT_GT(refine.cpuNanos, 0u);
    EXPECT_EQ(trace.phase(CompilePhase::Coarsen).count, 0u);
}

TEST(PhaseScope, ScopedContextRestoresOnExit)
{
    CompileTrace outer;
    TelemetryContext outerCtx;
    outerCtx.trace = &outer;
    ScopedTelemetryContext outerScope(outerCtx);
    {
        CompileTrace inner;
        TelemetryContext innerCtx;
        innerCtx.trace = &inner;
        ScopedTelemetryContext innerScope(innerCtx);
        GPSCHED_PHASE_SPAN(Mii);
    }
    EXPECT_EQ(telemetryContext().trace, &outer);
    {
        GPSCHED_PHASE_SPAN(Mii);
    }
    EXPECT_EQ(outer.phase(CompilePhase::Mii).count, 1u);
}

TEST(PhaseScope, TracedPhasesEmitChromeEvents)
{
    TraceSink sink;
    TelemetryContext ctx;
    ctx.sink = &sink;
    ctx.pid = 42;
    ScopedTelemetryContext scoped(ctx);
    {
        GPSCHED_PHASE_SPAN(Coarsen);
    }
    {
        // Totals-only phase: never a Chrome event.
        GPSCHED_PHASE_SPAN(TransferPlanning);
    }
    std::vector<TraceEvent> events = sink.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "coarsen");
    EXPECT_EQ(events[0].cat, "phase");
    EXPECT_EQ(events[0].ph, 'X');
    EXPECT_EQ(events[0].pid, 42u);
}

// --- metric registry ------------------------------------------------

TEST(MetricRegistry, HandlesAreStableAndShared)
{
    MetricRegistry registry;
    MetricRegistry::Counter &c1 = registry.counter("engine.jobs");
    c1.add(3);
    MetricRegistry::Counter &c2 = registry.counter("engine.jobs");
    EXPECT_EQ(&c1, &c2);
    EXPECT_EQ(c2.value(), 3u);

    registry.gauge("pool.queueDepth").set(-2);
    EXPECT_EQ(registry.gauge("pool.queueDepth").value(), -2);

    Histogram &h1 = registry.histogram("pool.wait", 1.0, 2.0, 8);
    h1.add(5.0);
    EXPECT_EQ(registry.histogram("pool.wait").count(), 1u);
}

TEST(MetricRegistry, JsonDumpIsSortedAndComplete)
{
    MetricRegistry registry;
    registry.counter("b.count").add(2);
    registry.counter("a.count").add(1);
    registry.gauge("depth").set(4);
    Histogram &h = registry.histogram("wait", 1.0, 2.0, 4);
    h.add(3.0);
    h.add(100.0); // overflow bucket -> "+Inf" bound

    std::ostringstream os;
    registry.writeJson(os);
    std::string out = os.str();

    EXPECT_NE(out.find("\"counters\""), std::string::npos);
    EXPECT_NE(out.find("\"a.count\": 1"), std::string::npos);
    EXPECT_NE(out.find("\"b.count\": 2"), std::string::npos);
    EXPECT_LT(out.find("\"a.count\""), out.find("\"b.count\""));
    EXPECT_NE(out.find("\"depth\": 4"), std::string::npos);
    EXPECT_NE(out.find("\"histograms\""), std::string::npos);
    EXPECT_NE(out.find("\"+Inf\""), std::string::npos);
    EXPECT_NE(out.find("\"p95\""), std::string::npos);
}

// --- engine integration ---------------------------------------------

namespace
{

/** Every phase total of @p a equals @p b's. */
void
expectSameTotals(const CompileTrace &a, const CompileTrace &b)
{
    EXPECT_EQ(a.compiles, b.compiles);
    EXPECT_EQ(a.wallNanos, b.wallNanos);
    EXPECT_EQ(a.cpuNanos, b.cpuNanos);
    for (std::size_t i = 0; i < kNumCompilePhases; ++i) {
        EXPECT_EQ(a.phases[i].count, b.phases[i].count) << i;
        EXPECT_EQ(a.phases[i].wallNanos, b.phases[i].wallNanos) << i;
        EXPECT_EQ(a.phases[i].cpuNanos, b.phases[i].cpuNanos) << i;
    }
}

} // namespace

TEST(EngineTelemetry, CollectPhasesAddsOneCompilePerFreshCompile)
{
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(32, 1);
    Ddg diamond = gpsched::testing::diamondLoop(lat);
    Ddg recurrence = gpsched::testing::recurrenceLoop(lat);

    EngineOptions options;
    options.jobs = 1;
    options.collectPhases = true;
    Engine engine(options);
    EXPECT_TRUE(engine.phaseTotals().empty());

    CompileResult fresh =
        compileOne(engine, EngineJob{&diamond, &m, SchedulerKind::Gp, {}});
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(fresh.source, CompileSource::Compiled);
    CompileTrace first = engine.phaseTotals();
    EXPECT_EQ(first.compiles, 1u);
    EXPECT_GE(first.phase(CompilePhase::ModuloSchedule).count, 1u);
    EXPECT_GE(first.phase(CompilePhase::Mii).count, 1u);
    EXPECT_GE(first.phase(CompilePhase::Coarsen).count, 1u);

    // A memory hit did no new work: the totals do not move.
    CompileResult hit =
        compileOne(engine, EngineJob{&diamond, &m, SchedulerKind::Gp, {}});
    ASSERT_TRUE(hit.ok());
    EXPECT_EQ(hit.source, CompileSource::Memory);
    expectSameTotals(engine.phaseTotals(), first);

    // A second fresh compile adds exactly one more.
    CompileResult other =
        compileOne(engine, EngineJob{&recurrence, &m, SchedulerKind::Gp, {}});
    ASSERT_TRUE(other.ok());
    EXPECT_EQ(other.source, CompileSource::Compiled);
    CompileTrace second = engine.phaseTotals();
    EXPECT_EQ(second.compiles, 2u);
    EXPECT_GT(second.phase(CompilePhase::Mii).count,
              first.phase(CompilePhase::Mii).count);
}

TEST(EngineTelemetry, PhasesOffLeavesTotalsEmpty)
{
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(32, 1);
    Ddg loop = gpsched::testing::diamondLoop(lat);

    Engine engine; // defaults: no metrics, no trace, no phases
    CompileResult result =
        compileOne(engine, EngineJob{&loop, &m, SchedulerKind::Gp, {}});
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(engine.phaseTotals().empty());
}

TEST(EngineTelemetry, PhasesOffReachTheCallersContext)
{
    // A one-job engine without phase collection compiles on the
    // calling thread, so the caller's ambient context sees every
    // phase span, and a collecting engine shadows it with its own.
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(32, 1);
    Ddg loop = gpsched::testing::diamondLoop(lat);

    CompileTrace ambient;
    TelemetryContext ctx;
    ctx.trace = &ambient;
    ScopedTelemetryContext scoped(ctx);

    Engine serial(gpsched::testing::oneJobOptions());
    ASSERT_TRUE(compileOne(serial, EngineJob{&loop, &m, SchedulerKind::Gp, {}})
                    .ok());
    EXPECT_TRUE(serial.phaseTotals().empty());
    EXPECT_GE(ambient.phase(CompilePhase::Mii).count, 1u);
    EXPECT_GE(ambient.phase(CompilePhase::ModuloSchedule).count, 1u);

    CompileTrace before = ambient;
    EngineOptions options = gpsched::testing::oneJobOptions();
    options.collectPhases = true;
    Engine collecting(options);
    ASSERT_TRUE(compileOne(collecting,
                           EngineJob{&loop, &m, SchedulerKind::Gp, {}})
                    .ok());
    EXPECT_EQ(collecting.phaseTotals().compiles, 1u);
    expectSameTotals(ambient, before);
}

TEST(EngineTelemetry, CompileMsIsAlwaysMeasured)
{
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(32, 1);
    Ddg loop = gpsched::testing::recurrenceLoop(lat);

    Engine engine; // telemetry off; compileMs must still be real
    CompileResult result =
        compileOne(engine, EngineJob{&loop, &m, SchedulerKind::Gp, {}});
    ASSERT_TRUE(result.ok());
    EXPECT_GT(result.compileMs, 0.0);
}

TEST(EngineTelemetry, SourceTracksMemoryDiskAndCoalesced)
{
    std::string dir = freshCacheDir("telemetry_source");
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(32, 1);
    Ddg loop = gpsched::testing::diamondLoop(lat);
    EngineJob job{&loop, &m, SchedulerKind::Gp, {}};

    {
        EngineOptions options;
        options.jobs = 1;
        options.cacheDir = dir;
        Engine cold(options);
        EXPECT_EQ(compileOne(cold, job).source,
                  CompileSource::Compiled);
        EXPECT_EQ(compileOne(cold, job).source, CompileSource::Memory);
    }
    {
        // Fresh process-equivalent: empty memory cache, same disk.
        EngineOptions options;
        options.jobs = 1;
        options.cacheDir = dir;
        Engine warm(options);
        EXPECT_EQ(compileOne(warm, job).source, CompileSource::Disk);
        EXPECT_EQ(compileOne(warm, job).source, CompileSource::Memory);
    }

    // Identical jobs in one threaded batch: exactly one compiles;
    // every duplicate is served by the cache or coalesced onto the
    // in-flight owner.
    EngineOptions threadedOptions;
    threadedOptions.jobs = 4;
    Engine threaded(threadedOptions);
    std::vector<EngineJob> batch(16, job);
    std::vector<CompileResult> results =
        threaded.compileBatch(batch);
    int compiled = 0;
    for (const CompileResult &result : results) {
        ASSERT_TRUE(result.ok());
        compiled += result.source == CompileSource::Compiled;
        EXPECT_TRUE(result.source == CompileSource::Compiled ||
                    result.source == CompileSource::Memory ||
                    result.source == CompileSource::Coalesced);
    }
    EXPECT_EQ(compiled, 1);

    fs::remove_all(dir);
}

TEST(EngineTelemetry, ExportStatsMirrorsCountersAndPhases)
{
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(32, 1);
    Ddg a = gpsched::testing::diamondLoop(lat);
    Ddg b = gpsched::testing::recurrenceLoop(lat);

    EngineOptions options;
    options.jobs = 1;
    options.collectPhases = true;
    Engine engine(options);
    compileOne(engine, EngineJob{&a, &m, SchedulerKind::Gp, {}});
    compileOne(engine, EngineJob{&b, &m, SchedulerKind::Gp, {}});
    compileOne(engine, EngineJob{&a, &m, SchedulerKind::Gp, {}});

    MetricRegistry registry;
    engine.exportStats(registry);
    EXPECT_EQ(registry.counter("engine.jobsSubmitted").value(), 3u);
    EXPECT_EQ(registry.counter("engine.cacheHits").value(), 1u);
    EXPECT_EQ(registry.counter("engine.cacheMisses").value(), 2u);
    EXPECT_EQ(registry.counter("phase.compile.count").value(), 2u);
    EXPECT_GT(
        registry.counter("phase.moduloSchedule.wallMicros").value(),
        0u);

    // Exports are snapshots: a second export must not double-count.
    engine.exportStats(registry);
    EXPECT_EQ(registry.counter("engine.jobsSubmitted").value(), 3u);
    EXPECT_EQ(registry.counter("phase.compile.count").value(), 2u);
}

TEST(EngineTelemetry, TelemetryNeverChangesSchedules)
{
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(32, 1);
    std::vector<Ddg> loops;
    loops.push_back(gpsched::testing::chainLoop(6, lat));
    loops.push_back(gpsched::testing::diamondLoop(lat));
    loops.push_back(gpsched::testing::recurrenceLoop(lat));
    loops.push_back(gpsched::testing::memHeavyLoop(4, lat));

    auto compileAll = [&](const EngineOptions &options) {
        Engine engine(options);
        std::vector<EngineJob> batch;
        for (const Ddg &loop : loops)
            for (SchedulerKind kind :
                 {SchedulerKind::Uracam, SchedulerKind::Gp})
                batch.push_back(EngineJob{&loop, &m, kind, {}});
        return gpsched::testing::unwrapAll(
            engine.compileBatch(batch));
    };

    EngineOptions plain;
    plain.jobs = 1;
    std::vector<CompiledLoop> baseline = compileAll(plain);

    MetricRegistry registry;
    TraceSink sink;
    EngineOptions instrumented;
    instrumented.jobs = 4;
    instrumented.metrics = &registry;
    instrumented.trace = &sink;
    instrumented.collectPhases = true;
    std::vector<CompiledLoop> traced = compileAll(instrumented);

    ASSERT_EQ(baseline.size(), traced.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
        const CompiledLoop &a = baseline[i];
        const CompiledLoop &b = traced[i];
        std::string context = "loop " + a.loopName;
        EXPECT_EQ(a.moduloScheduled, b.moduloScheduled) << context;
        EXPECT_EQ(a.mii, b.mii) << context;
        EXPECT_EQ(a.ii, b.ii) << context;
        EXPECT_EQ(a.scheduleLength, b.scheduleLength) << context;
        EXPECT_EQ(a.cycles, b.cycles) << context;
        EXPECT_EQ(a.ops, b.ops) << context;
        EXPECT_EQ(a.placements, b.placements) << context;
        EXPECT_EQ(a.transfers, b.transfers) << context;
        EXPECT_EQ(a.spills, b.spills) << context;
        EXPECT_EQ(a.partition, b.partition) << context;
    }
    EXPECT_FALSE(sink.snapshot().empty());
}

// --- trace integrity under a threaded engine ------------------------

namespace
{

struct Span
{
    std::string name;
    std::string cat;
    std::uint64_t start;
    std::uint64_t end;
};

/** Per-(pid, tid) X spans sorted by start time. */
std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<Span>>
spansByThread(const std::vector<TraceEvent> &events)
{
    std::map<std::pair<std::uint32_t, std::uint32_t>,
             std::vector<Span>>
        out;
    for (const TraceEvent &event : events) {
        if (event.ph != 'X')
            continue;
        out[{event.pid, event.tid}].push_back(
            Span{event.name, event.cat, event.tsNanos,
                 event.tsNanos + event.durNanos});
    }
    // Ties broken widest-first so an enclosing span sorts before a
    // nested span that starts on the same nanosecond.
    for (auto &entry : out)
        std::sort(entry.second.begin(), entry.second.end(),
                  [](const Span &a, const Span &b) {
                      if (a.start != b.start)
                          return a.start < b.start;
                      return a.end > b.end;
                  });
    return out;
}

} // namespace

TEST(EngineTelemetry, ThreadedTraceHasNestedDisjointSpans)
{
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(32, 1);
    // Distinct chain lengths: 24 unique keys, no coalescing, so
    // every job produces a compile span on some worker tid.
    std::vector<Ddg> loops;
    for (int n = 2; n <= 25; ++n)
        loops.push_back(gpsched::testing::chainLoop(n, lat));

    TraceSink sink;
    EngineOptions options;
    options.jobs = 8;
    options.trace = &sink;
    Engine engine(options);
    std::vector<EngineJob> batch;
    for (const Ddg &loop : loops)
        batch.push_back(EngineJob{&loop, &m, SchedulerKind::Gp, {}});
    for (const CompileResult &result : engine.compileBatch(batch))
        ASSERT_TRUE(result.ok());

    std::vector<TraceEvent> events = sink.snapshot();
    std::size_t compileSpans = 0;

    for (const auto &entry : spansByThread(events)) {
        const std::vector<Span> &spans = entry.second;
        // X spans on one tid either nest or are disjoint; a span
        // must never straddle its predecessor's end.
        std::vector<const Span *> stack;
        for (const Span &span : spans) {
            while (!stack.empty() && stack.back()->end <= span.start)
                stack.pop_back();
            if (!stack.empty()) {
                EXPECT_LE(span.end, stack.back()->end)
                    << span.name << " straddles "
                    << stack.back()->name;
            }

            if (span.cat == "phase") {
                // Every phase span sits inside a compile span, and
                // TransferPlanning never appears at all.
                ASSERT_FALSE(stack.empty()) << span.name;
                bool inCompile = false;
                for (const Span *open : stack)
                    inCompile |= open->name == "compile";
                EXPECT_TRUE(inCompile) << span.name;
                EXPECT_NE(span.name, "transferPlanning");
            }
            stack.push_back(&span);
        }

        // Per compile span, directly nested phase time cannot exceed
        // the span itself.
        for (const Span &compile : spans) {
            if (compile.name != "compile")
                continue;
            ++compileSpans;
            std::uint64_t phaseNanos = 0;
            for (const Span &span : spans) {
                if (span.cat == "phase" &&
                    span.start >= compile.start &&
                    span.end <= compile.end)
                    phaseNanos += span.end - span.start;
            }
            EXPECT_LE(phaseNanos, compile.end - compile.start);
        }
    }
    EXPECT_EQ(compileSpans, loops.size());

    // Queue-wait async pairs balance per id.
    std::map<std::uint64_t, int> balance;
    for (const TraceEvent &event : events) {
        if (event.ph == 'b')
            ++balance[event.id];
        else if (event.ph == 'e')
            --balance[event.id];
    }
    for (const auto &entry : balance)
        EXPECT_EQ(entry.second, 0) << "async id " << entry.first;

    // The export is loadable, sorted JSON (check_trace.py's job for
    // CLI traces; here we only pin that it renders non-trivially).
    std::ostringstream os;
    sink.writeJson(os);
    EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(os.str().find("\"compile\""), std::string::npos);
}
