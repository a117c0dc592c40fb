/**
 * @file
 * Ablation B (DESIGN.md): the Figure-1 re-partition decision. The
 * paper concludes that selectively recomputing the partition (only
 * when IIbus > II) is the most effective scheme; this harness
 * compares Never / Selective / Always on suite IPC and on the work
 * each policy does: partitioner runs and II attempts summed over
 * the suite (deterministic, unlike a timer).
 */

#include <iostream>
#include <string>

#include "common.hh"

#include "core/pipeline.hh"
#include "machine/configs.hh"
#include "support/table.hh"
#include "workload/specfp.hh"

using namespace gpsched;
using namespace gpsched::bench;

int
main(int argc, char **argv)
{
    BenchOptions options = parseBenchArgs(argc, argv);
    LatencyTable lat;
    auto suite = benchSuite(lat, options);
    Engine engine(options.engineOptions());

    TextTable table({"configuration", "policy", "mean IPC",
                     "partition runs", "II attempts"});
    MetricTable metrics;
    metrics.title = "Ablation B: GP re-partition policy";
    metrics.labelColumns = {"configuration", "policy"};
    metrics.valueColumns = {"meanIpc", "partitionRuns",
                            "scheduleAttempts"};
    std::vector<MachineConfig> machines = benchMachines(
        options, {twoClusterConfig(32, 1), fourClusterConfig(32, 1),
                  fourClusterConfig(32, 2)});
    struct Policy
    {
        const char *name;
        RepartitionPolicy policy;
    };
    std::vector<Policy> policies = {
        {"never", RepartitionPolicy::Never},
        {"selective", RepartitionPolicy::Selective},
        {"always", RepartitionPolicy::Always},
    };
    bool first = true;
    for (const MachineConfig &m : machines) {
        if (!first)
            table.addSeparator();
        first = false;
        for (const Policy &p : policies) {
            LoopCompilerOptions compilerOptions;
            compilerOptions.repartition = p.policy;
            SuiteResult r = compileSuite(engine, suite, m,
                                         SchedulerKind::Gp,
                                         compilerOptions);
            long runs = 0;
            long attempts = 0;
            for (const ProgramResult &program : r.programs) {
                for (const CompiledLoop &loop : program.loops) {
                    runs += loop.partitionRuns;
                    attempts += loop.scheduleAttempts;
                }
            }
            table.addRow({m.name(), p.name,
                          TextTable::num(r.meanIpc),
                          std::to_string(runs),
                          std::to_string(attempts)});
            metrics.addRow({m.name(), p.name},
                           {r.meanIpc, static_cast<double>(runs),
                            static_cast<double>(attempts)});
        }
    }
    table.print(std::cout,
                "Ablation B: GP re-partition policy (paper: "
                "selective wins)");
    emitMetricTablesJson(options, "ablation_repartition", {metrics},
                         &engine);
    return 0;
}
