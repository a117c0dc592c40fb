#include "common.hh"

#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>

#include "core/metrics.hh"
#include "machine/configs.hh"
#include "machine/registry.hh"
#include "serialize/record.hh"
#include "sim/replay.hh"
#include "support/args.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/output.hh"
#include "support/table.hh"
#include "workload/specfp.hh"

namespace gpsched::bench
{

EngineOptions
BenchOptions::engineOptions() const
{
    EngineOptions options;
    options.jobs = jobs;
    options.cacheDir = cacheDir;
    // Every bench report carries a phase-breakdown block, so a run
    // shows where compile time goes. Observation-only: schedules are
    // unaffected (pinned by test_telemetry).
    options.collectPhases = true;
    return options;
}

BenchOptions
parseBenchArgs(int argc, char **argv,
               const std::function<void(ArgParser &)> &declareExtra)
{
    constexpr int maxCount = 1 << 20;
    BenchOptions options;
    ArgParser parser(argv[0]);
    parser.flag("--smoke", "tiny workload for CTest", options.smoke)
        .option("--jobs", "N", "engine workers, 0 = hardware (default 1)",
                options.jobs, 0, maxCount)
        .option("--json", "PATH", "JSON report, '-' = stdout",
                options.jsonPath)
        .option("--machines", "LIST",
                "comma-separated registry names or .machine paths",
                [&](const std::string &list) {
                    std::istringstream entries(list);
                    for (std::string entry;
                         std::getline(entries, entry, ',');) {
                        if (!entry.empty())
                            options.machines.push_back(entry);
                    }
                    if (options.machines.empty())
                        parser.fail("--machines got an empty list");
                })
        .option("--cache-dir", "PATH", "persistent compile cache",
                options.cacheDir)
        .flag("--replay", "check every compiled loop with both oracles",
              options.replay);
    if (declareExtra)
        declareExtra(parser);
    parser.parse({argv + 1, argv + argc});
    return options;
}

std::vector<MachineConfig>
benchMachines(const BenchOptions &options,
              const std::vector<MachineConfig> &fallback)
{
    if (options.machines.empty())
        return fallback;
    std::vector<MachineConfig> machines;
    machines.reserve(options.machines.size());
    const MachineRegistry &registry = MachineRegistry::builtin();
    for (const std::string &spec : options.machines)
        machines.push_back(registry.resolve(spec));
    return machines;
}

void
withJsonStream(const BenchOptions &options,
               const std::function<void(std::ostream &)> &emit)
{
    if (!options.jsonPath.empty())
        writeOutput(options.jsonPath, emit);
}

std::vector<Program>
benchSuite(const LatencyTable &lat, const BenchOptions &options)
{
    std::vector<Program> suite = specFp95Suite(lat);
    if (!options.smoke)
        return suite;
    // Keep the first two programs with at most two loops each: still
    // end-to-end through partitioner and scheduler, but milliseconds.
    constexpr std::size_t maxPrograms = 2;
    constexpr std::size_t maxLoops = 2;
    if (suite.size() > maxPrograms)
        suite.resize(maxPrograms);
    for (Program &prog : suite) {
        if (prog.loops.size() > maxLoops)
            prog.loops.resize(maxLoops);
    }
    return suite;
}

void
replaySuiteOrDie(bool enabled, const std::vector<Program> &suite,
                 const SuiteResult &result,
                 const MachineConfig &machine,
                 const std::string &what)
{
    if (!enabled)
        return;
    sim::ReplayReport report =
        sim::replaySuite(suite, result, machine);
    std::cout << "  replay [" << what << "]: " << report.summary()
              << "\n";
    if (!report.ok()) {
        const sim::ReplayMismatch &m = report.mismatches.front();
        GPSCHED_FATAL("replay gate failed on '", what, "': ",
                      report.mismatches.size(), " mismatches; first ",
                      m.program, "/", m.loop, ": ", m.detail);
    }
}

FigurePanel
runPanel(Engine &engine, const std::vector<Program> &suite,
         const MachineConfig &clustered, const std::string &title,
         const LoopCompilerOptions &options, bool replay)
{
    FigurePanel panel;
    panel.title = title;

    MachineConfig unified = unifiedConfig(clustered.totalRegs());
    SuiteResult u = compileSuite(engine, suite, unified,
                                 SchedulerKind::Uracam, options);
    SuiteResult ur = compileSuite(engine, suite, clustered,
                                  SchedulerKind::Uracam, options);
    SuiteResult fx = compileSuite(engine, suite, clustered,
                                  SchedulerKind::FixedPartition,
                                  options);
    SuiteResult gp = compileSuite(engine, suite, clustered,
                                  SchedulerKind::Gp, options);
    replaySuiteOrDie(replay, suite, u, unified, title + " unified");
    replaySuiteOrDie(replay, suite, ur, clustered, title + " URACAM");
    replaySuiteOrDie(replay, suite, fx, clustered, title + " Fixed");
    replaySuiteOrDie(replay, suite, gp, clustered, title + " GP");

    for (std::size_t i = 0; i < suite.size(); ++i) {
        FigureRow row;
        row.program = suite[i].name;
        row.unified = u.programs[i].ipc;
        row.uracam = ur.programs[i].ipc;
        row.fixed = fx.programs[i].ipc;
        row.gp = gp.programs[i].ipc;
        panel.rows.push_back(row);
    }
    FigureRow avg;
    avg.program = "average";
    avg.unified = u.meanIpc;
    avg.uracam = ur.meanIpc;
    avg.fixed = fx.meanIpc;
    avg.gp = gp.meanIpc;
    panel.rows.push_back(avg);
    panel.digests = {{"unified", scheduleDigest(u)},
                     {"uracam", scheduleDigest(ur)},
                     {"fixed", scheduleDigest(fx)},
                     {"gp", scheduleDigest(gp)}};

    std::uint64_t skipped = u.failedLoops + ur.failedLoops +
                            fx.failedLoops + gp.failedLoops;
    if (skipped > 0) {
        GPSCHED_WARN("panel '", title, "': ", skipped,
                     " loop compiles failed and were skipped; "
                     "figures cover the surviving loops only");
    }
    return panel;
}

void
printPanel(const FigurePanel &panel)
{
    TextTable table({"program", "unified", "URACAM", "Fixed", "GP"});
    for (const FigureRow &row : panel.rows) {
        if (row.program == "average")
            table.addSeparator();
        table.addRow({row.program, TextTable::num(row.unified),
                      TextTable::num(row.uracam),
                      TextTable::num(row.fixed),
                      TextTable::num(row.gp)});
    }
    table.print(std::cout, panel.title);

    const FigureRow &avg = panel.rows.back();
    std::cout << "  GP vs URACAM: "
              << TextTable::num(ipcGainPercent(avg.gp, avg.uracam), 1)
              << "%   GP vs Fixed: "
              << TextTable::num(ipcGainPercent(avg.gp, avg.fixed), 1)
              << "%   GP vs unified: "
              << TextTable::num(ipcGainPercent(avg.gp, avg.unified),
                                1)
              << "%\n\n";
}

void
writePanelsJson(std::ostream &os, const std::string &benchName,
                const std::vector<FigurePanel> &panels,
                const Engine &engine)
{
    JsonWriter json(os);
    json.beginObject();
    json.member("schemaVersion", 2);
    json.member("bench", benchName);
    json.beginArray("panels");
    for (const FigurePanel &panel : panels) {
        json.beginObject();
        json.member("title", panel.title);
        json.beginArray("rows");
        for (const FigureRow &row : panel.rows) {
            json.beginObject();
            json.member("program", row.program);
            json.member("unified", row.unified);
            json.member("uracam", row.uracam);
            json.member("fixed", row.fixed);
            json.member("gp", row.gp);
            json.endObject();
        }
        json.endArray();
        json.beginObject("digests");
        for (const auto &[scheme, digest] : panel.digests)
            json.member(scheme, hexDigest(digest));
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.beginObject("engine");
    writeEngineJson(json, engine);
    json.endObject();
    json.endObject();
}

void
emitPanelsJson(const BenchOptions &options,
               const std::string &benchName,
               const std::vector<FigurePanel> &panels,
               const Engine &engine)
{
    withJsonStream(options, [&](std::ostream &os) {
        writePanelsJson(os, benchName, panels, engine);
    });
}

void
MetricTable::addRow(std::vector<std::string> row_labels,
                    std::vector<double> row_values)
{
    GPSCHED_ASSERT(row_labels.size() == labelColumns.size() &&
                       row_values.size() == valueColumns.size(),
                   "metric row arity mismatch in table '", title,
                   "'");
    rows.push_back(
        MetricRow{std::move(row_labels), std::move(row_values)});
}

void
writeMetricTablesJson(std::ostream &os, const std::string &benchName,
                      const std::vector<MetricTable> &tables,
                      const Engine *engine)
{
    JsonWriter json(os);
    json.beginObject();
    json.member("schemaVersion", 1);
    json.member("bench", benchName);
    json.beginArray("tables");
    for (const MetricTable &table : tables) {
        json.beginObject();
        json.member("title", table.title);
        json.beginArray("labelColumns");
        for (const std::string &column : table.labelColumns)
            json.element(column);
        json.endArray();
        json.beginArray("valueColumns");
        for (const std::string &column : table.valueColumns)
            json.element(column);
        json.endArray();
        json.beginArray("rows");
        for (const MetricRow &row : table.rows) {
            json.beginObject();
            json.beginArray("labels");
            for (const std::string &label : row.labels)
                json.element(label);
            json.endArray();
            json.beginArray("values");
            for (double value : row.values)
                json.element(value);
            json.endArray();
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();
    if (engine) {
        json.beginObject("engine");
        writeEngineJson(json, *engine);
        json.endObject();
    }
    json.endObject();
}

void
emitMetricTablesJson(const BenchOptions &options,
                     const std::string &benchName,
                     const std::vector<MetricTable> &tables,
                     const Engine *engine)
{
    withJsonStream(options, [&](std::ostream &os) {
        writeMetricTablesJson(os, benchName, tables, engine);
    });
}

} // namespace gpsched::bench
