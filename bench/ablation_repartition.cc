/**
 * @file
 * Ablation B (DESIGN.md): the Figure-1 re-partition decision. The
 * paper concludes that selectively recomputing the partition (only
 * when IIbus > II) is the most effective scheme; this harness
 * compares Never / Selective / Always on suite IPC and scheduling
 * time.
 */

#include <iostream>

#include "common.hh"

#include "core/pipeline.hh"
#include "machine/configs.hh"
#include "support/table.hh"
#include "support/timer.hh"
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
                     "sched (s)"});
    MetricTable metrics;
    metrics.title = "Ablation B: GP re-partition policy";
    metrics.labelColumns = {"configuration", "policy"};
    metrics.valueColumns = {"meanIpc", "schedSeconds"};
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
            // Whole-suite CPU time, measured the way
            // table2_sched_time measures it.
            CpuTimer timer;
            timer.start();
            SuiteResult r = compileSuite(engine, suite, m,
                                         SchedulerKind::Gp,
                                         compilerOptions);
            double seconds = timer.elapsedSeconds();
            table.addRow({m.name(), p.name,
                          TextTable::num(r.meanIpc),
                          TextTable::num(seconds, 3)});
            metrics.addRow({m.name(), p.name}, {r.meanIpc, seconds});
        }
    }
    table.print(std::cout,
                "Ablation B: GP re-partition policy (paper: "
                "selective wins)");
    emitMetricTablesJson(options, "ablation_repartition", {metrics},
                         &engine);
    return 0;
}
