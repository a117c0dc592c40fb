/**
 * @file
 * Heterogeneous-scenario corpus sweep: every `.machine` file under
 * examples/machines/ (or an explicit --machines list) is compiled
 * with the synthetic SPECfp95 suite under all three schemes, twice —
 * once with the legacy fastest-first bus selection and once with the
 * slack-aware transfer cost model — so the golden report
 * (tests/golden/bench_corpus.json) pins heterogeneous machines per
 * machine, not just the Table-1 presets.
 *
 * Tables emitted (text and, with --json, MetricTable records):
 *
 *  - "Corpus sweep": one row per (machine, transfer policy) with the
 *    mean IPC of URACAM / Fixed / GP and the GP-over-Fixed gain;
 *  - "Transfer policy delta": one row per machine comparing GP's
 *    mean IPC under both policies (slackGainPct > 0 means the
 *    slack-aware cost model won) plus a trailing corpus-mean row.
 *    Per-machine rows come first so a regression on one machine can
 *    never hide inside the corpus mean.
 *
 * --gate-policy exits non-zero unless, over the swept machines with
 * more than one bus class, slack-aware GP matches-or-beats
 * fastest-first GP on at least two machine-means and strictly beats
 * it on at least one (the acceptance gate of the cost model; also
 * asserted machine-by-machine in tests/test_transfer_policy.cc).
 * Note the contract precisely: this gate bounds nothing on the
 * remaining machines — the policy is a heuristic and may lose there
 * (empirically well under 0.1% on the shipped corpus). Any change to
 * a per-machine row is instead caught by the golden_bench_corpus
 * case, which compares the whole JSON report with its golden.
 */

#include <iostream>
#include <string>
#include <vector>

#include "common.hh"

#include "core/pipeline.hh"
#include "machine/registry.hh"
#include "support/table.hh"
#include "workload/specfp.hh"

using namespace gpsched;
using namespace gpsched::bench;

namespace
{

/** Corpus = every .machine file under the shipped directory, sorted
 *  by filename so rows and JSON are stable across filesystems (the
 *  same discovery the property tests use). */
std::vector<MachineConfig>
corpusMachines()
{
    return MachineRegistry::builtin().resolveDirectory(
        GPSCHED_CORPUS_DIR);
}

struct SchemeMeans
{
    double uracam = 0.0;
    double fixed = 0.0;
    double gp = 0.0;
};

const char *
policyName(TransferCostPolicy policy)
{
    return policy == TransferCostPolicy::FastestFirst ? "fastest"
                                                      : "slack";
}

SchemeMeans
sweep(Engine &engine, const std::vector<Program> &suite,
      const MachineConfig &m, TransferCostPolicy policy, bool replay)
{
    LoopCompilerOptions options;
    options.transferCost = policy;
    SchemeMeans means;
    SuiteResult ur = compileSuite(engine, suite, m,
                                  SchedulerKind::Uracam, options);
    SuiteResult fx = compileSuite(
        engine, suite, m, SchedulerKind::FixedPartition, options);
    SuiteResult gp =
        compileSuite(engine, suite, m, SchedulerKind::Gp, options);
    const std::string tag =
        m.name() + "/" + policyName(policy) + " ";
    replaySuiteOrDie(replay, suite, ur, m, tag + "URACAM");
    replaySuiteOrDie(replay, suite, fx, m, tag + "Fixed");
    replaySuiteOrDie(replay, suite, gp, m, tag + "GP");
    means.uracam = ur.meanIpc;
    means.fixed = fx.meanIpc;
    means.gp = gp.meanIpc;
    return means;
}

} // namespace

int
main(int argc, char **argv)
{
    bool gate_policy = false;
    BenchOptions options =
        parseBenchArgs(argc, argv, [&](ArgParser &parser) {
            parser.flag("--gate-policy",
                        "fail unless the slack-aware cost model wins",
                        gate_policy);
        });
    LatencyTable lat;
    auto suite = benchSuite(lat, options);
    Engine engine(options.engineOptions());

    std::vector<MachineConfig> machines =
        benchMachines(options, corpusMachines());

    TextTable sweep_table({"machine", "policy", "URACAM", "Fixed",
                           "GP", "GP/Fixed"});
    MetricTable sweep_metrics;
    sweep_metrics.title = "Corpus sweep";
    sweep_metrics.labelColumns = {"machine", "transferPolicy"};
    sweep_metrics.valueColumns = {"uracamIpc", "fixedIpc", "gpIpc",
                                  "gpOverFixedPct"};

    TextTable delta_table({"machine", "busClasses", "GP fastest",
                           "GP slack", "slack gain"});
    MetricTable delta_metrics;
    delta_metrics.title = "Transfer policy delta";
    delta_metrics.labelColumns = {"machine"};
    delta_metrics.valueColumns = {"busClasses", "gpFastestIpc",
                                  "gpSlackIpc", "slackGainPct"};

    int multi_class_machines = 0;
    int slack_no_worse = 0;
    int slack_strictly_better = 0;
    double fastest_sum = 0.0, slack_sum = 0.0;

    bool first = true;
    for (const MachineConfig &m : machines) {
        if (!first) {
            sweep_table.addSeparator();
        }
        first = false;
        double gp_by_policy[2] = {0.0, 0.0};
        for (TransferCostPolicy policy :
             {TransferCostPolicy::FastestFirst,
              TransferCostPolicy::SlackAware}) {
            SchemeMeans means =
                sweep(engine, suite, m, policy, options.replay);
            double gain =
                means.fixed > 0.0
                    ? 100.0 * (means.gp / means.fixed - 1.0)
                    : 0.0;
            sweep_table.addRow(
                {m.name(), policyName(policy),
                 TextTable::num(means.uracam),
                 TextTable::num(means.fixed),
                 TextTable::num(means.gp),
                 TextTable::num(gain, 1) + "%"});
            sweep_metrics.addRow({m.name(), policyName(policy)},
                                 {means.uracam, means.fixed, means.gp,
                                  gain});
            gp_by_policy[policy == TransferCostPolicy::SlackAware] =
                means.gp;
        }

        double fastest = gp_by_policy[0], slack = gp_by_policy[1];
        double slack_gain =
            fastest > 0.0 ? 100.0 * (slack / fastest - 1.0) : 0.0;
        delta_table.addRow(
            {m.name(), std::to_string(m.numBusClasses()),
             TextTable::num(fastest), TextTable::num(slack),
             TextTable::num(slack_gain, 2) + "%"});
        delta_metrics.addRow(
            {m.name()},
            {static_cast<double>(m.numBusClasses()), fastest, slack,
             slack_gain});
        fastest_sum += fastest;
        slack_sum += slack;
        if (m.numBusClasses() > 1) {
            ++multi_class_machines;
            if (slack >= fastest)
                ++slack_no_worse;
            if (slack > fastest)
                ++slack_strictly_better;
        }
    }

    if (!machines.empty()) {
        const double n = static_cast<double>(machines.size());
        double fastest_mean = fastest_sum / n;
        double slack_mean = slack_sum / n;
        double gain = fastest_mean > 0.0
                          ? 100.0 * (slack_mean / fastest_mean - 1.0)
                          : 0.0;
        delta_table.addSeparator();
        delta_table.addRow({"corpus-mean", "-",
                            TextTable::num(fastest_mean),
                            TextTable::num(slack_mean),
                            TextTable::num(gain, 2) + "%"});
        delta_metrics.addRow({"corpus-mean"},
                             {0.0, fastest_mean, slack_mean, gain});
    }

    sweep_table.print(std::cout,
                      "Corpus sweep (schemes x transfer policies)");
    delta_table.print(
        std::cout,
        "Transfer policy delta (GP, slack-aware vs fastest-first)");
    emitMetricTablesJson(options, "bench_corpus",
                         {sweep_metrics, delta_metrics}, &engine);

    if (gate_policy) {
        if (multi_class_machines == 0) {
            std::cerr << "--gate-policy: no multi-bus-class machine "
                         "in the sweep\n";
            return 1;
        }
        if (slack_no_worse < 2 || slack_strictly_better == 0) {
            std::cerr << "--gate-policy: slack-aware GP must be >= "
                         "fastest-first on at least two multi-class "
                         "machines (got "
                      << slack_no_worse << "/" << multi_class_machines
                      << ") and strictly better on at least one ("
                      << slack_strictly_better << ")\n";
            return 1;
        }
        std::cout << "--gate-policy OK: " << slack_no_worse << "/"
                  << multi_class_machines
                  << " machines no worse, "
                  << slack_strictly_better << " strictly better\n";
    }
    return 0;
}
