/**
 * @file
 * Regenerates paper Table 2: average CPU time required to compute
 * the schedule of the whole benchmark suite, per algorithm and
 * machine configuration. Times are averaged over several repetitions
 * because a single suite pass is fast on modern hardware.
 */

#include <fstream>
#include <iostream>

#include "common.hh"

#include "core/pipeline.hh"
#include "machine/configs.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/table.hh"
#include "support/telemetry.hh"
#include "support/timer.hh"
#include "workload/specfp.hh"

using namespace gpsched;
using namespace gpsched::bench;

namespace
{

/**
 * CPU seconds for one full-suite compilation, measured around the
 * whole run: per-loop timer reads quantize to scheduler ticks on
 * some kernels, so summing them would be mostly noise.
 *
 * Phase spans are collected via the ambient telemetry context: the
 * serial pipeline compiles inline on this thread, so installing a
 * trace here attributes every GPSCHED_PHASE_SPAN of the run into
 * @p phases (summed over all reps).
 */
double
averageSeconds(const std::vector<Program> &suite,
               const MachineConfig &m, SchedulerKind kind, int reps,
               CompileTrace &phases)
{
    TelemetryContext ctx;
    ctx.trace = &phases;
    ScopedTelemetryContext scoped(ctx);
    CpuTimer timer;
    timer.start();
    for (int r = 0; r < reps; ++r) {
        SuiteResult result = compileSuite(suite, m, kind);
        if (result.programs.empty())
            std::cerr << "";
    }
    return timer.elapsedSeconds() / reps;
}

struct MeasuredCase
{
    std::string name;
    double uracamSeconds = 0.0;
    double fixedSeconds = 0.0;
    double gpSeconds = 0.0;
    CompileTrace uracamPhases;
    CompileTrace fixedPhases;
    CompileTrace gpPhases;
};

void
writeJson(std::ostream &os, const std::vector<MeasuredCase> &rows,
          int reps)
{
    JsonWriter json(os);
    json.beginObject();
    json.member("schemaVersion", 1);
    json.member("bench", "table2_sched_time");
    json.member("reps", reps);
    json.beginArray("rows");
    for (const MeasuredCase &row : rows) {
        json.beginObject();
        json.member("configuration", row.name);
        json.member("uracamSeconds", row.uracamSeconds);
        json.member("fixedSeconds", row.fixedSeconds);
        json.member("gpSeconds", row.gpSeconds);
        json.member("uracamOverGp", row.gpSeconds > 0
                                        ? row.uracamSeconds /
                                              row.gpSeconds
                                        : 0.0);
        // Per-scheme phase breakdowns (summed over all reps), the
        // per-phase resolution behind the whole-suite seconds above.
        writeCompileTracePhases(json, "uracamPhases",
                                row.uracamPhases);
        writeCompileTracePhases(json, "fixedPhases", row.fixedPhases);
        writeCompileTracePhases(json, "gpPhases", row.gpPhases);
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions options = parseBenchArgs(argc, argv);
    LatencyTable lat;
    auto suite = benchSuite(lat, options);
    const int reps = options.reps(10);

    // Measurements stay serial regardless of --jobs: the Table-2
    // metric is scheduling CPU time of one compiler instance, which
    // concurrency and caching would only distort.
    TextTable table({"configuration", "URACAM (s)", "Fixed (s)",
                     "GP (s)", "URACAM/GP"});
    std::vector<MachineConfig> machines = benchMachines(
        options,
        {twoClusterConfig(32, 1), twoClusterConfig(64, 1),
         fourClusterConfig(32, 1), fourClusterConfig(64, 1),
         fourClusterConfig(32, 2), fourClusterConfig(64, 2)});
    std::vector<MeasuredCase> measured;
    for (const MachineConfig &m : machines) {
        MeasuredCase row;
        row.name = m.name();
        row.uracamSeconds =
            averageSeconds(suite, m, SchedulerKind::Uracam, reps,
                           row.uracamPhases);
        row.fixedSeconds = averageSeconds(
            suite, m, SchedulerKind::FixedPartition, reps,
            row.fixedPhases);
        row.gpSeconds = averageSeconds(suite, m, SchedulerKind::Gp,
                                       reps, row.gpPhases);
        table.addRow({row.name, TextTable::num(row.uracamSeconds, 3),
                      TextTable::num(row.fixedSeconds, 3),
                      TextTable::num(row.gpSeconds, 3),
                      TextTable::num(row.gpSeconds > 0
                                         ? row.uracamSeconds /
                                               row.gpSeconds
                                         : 0.0,
                                     2)});
        measured.push_back(row);
    }
    withJsonStream(options, [&](std::ostream &os) {
        writeJson(os, measured, reps);
    });
    table.print(std::cout,
                "Table 2: average CPU seconds to schedule the suite "
                "(mean of " +
                    std::to_string(reps) + " runs)");
    std::cout
        << "  Paper: URACAM is 2-7x slower than GP/Fixed. The\n"
           "  committed per-layer compile costs are in\n"
           "  perfbench/baseline/; docs/ARCHITECTURE.md explains\n"
           "  where the compile time goes.\n";
    return 0;
}
