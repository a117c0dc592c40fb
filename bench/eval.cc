/**
 * @file
 * The evaluation program: one table of experiments (kExperiments,
 * at the bottom), each regenerating a paper figure or table or
 * running an ablation over the synthetic SPECfp95 suite. A row's
 * name is the "bench" field of its JSON report and the name of its
 * golden under tests/golden/.
 *
 *   eval NAME... | --all  [--smoke] [--jobs N] [--json PATH]
 *                         [--machines LIST] [--cache-dir PATH]
 *                         [--replay] [--gate-policy]
 *
 * Every flag applies to each row run: --smoke shrinks the suite to
 * two programs of two loops, --jobs sets the batch engine's workers
 * (0 = hardware concurrency), --machines (registry names or
 * .machine paths) replaces the row's default machine list,
 * --cache-dir adds the persistent compile cache and --replay
 * re-executes every compiled loop through the simulator, dying on
 * any disagreement with the estimator. --json writes the report of
 * exactly one row ('-' = stdout). --gate-policy is bench_corpus's
 * acceptance gate. An unknown name exits 2 and lists the rows.
 */

#include <algorithm>
#include <array>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "engine/engine.hh"
#include "graph/unroll.hh"
#include "machine/configs.hh"
#include "machine/registry.hh"
#include "report.hh"
#include "serialize/record.hh"
#include "sim/replay.hh"
#include "support/args.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/output.hh"
#include "support/telemetry.hh"
#include "support/trace.hh"
#include "workload/specfp.hh"

using namespace gpsched;
using namespace gpsched::bench;

namespace
{

/** The command line's settings, shared by every row run. */
struct BenchOptions
{
    bool smoke = false;
    int jobs = 1;
    std::string jsonPath;
    std::vector<std::string> machines;
    std::string cacheDir;
    bool replay = false;
    bool gatePolicy = false;

    /** Where tables and --replay lines go: stderr when the JSON
     *  report takes stdout, so that stream stays pure JSON. */
    std::ostream &
    text() const
    {
        return jsonPath == "-" ? std::cerr : std::cout;
    }
};

/**
 * The suite workload: the full synthetic SPECfp95 suite, or in
 * smoke mode its first two programs with at most two loops each
 * (still end to end through partitioner and scheduler, but
 * milliseconds).
 */
std::vector<Program>
benchSuite(bool smoke)
{
    std::vector<Program> suite = specFp95Suite(LatencyTable{});
    if (!smoke)
        return suite;
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

EngineOptions
engineOptions(const BenchOptions &options)
{
    EngineOptions engine;
    engine.jobs = options.jobs;
    engine.cacheDir = options.cacheDir;
    // Every report carries a phase-breakdown block, so a run shows
    // where compile time goes. Observation-only: schedules are
    // unaffected (pinned by test_telemetry).
    engine.collectPhases = true;
    return engine;
}

/** What one row's run function works with. */
struct Run
{
    const BenchOptions &options;
    const std::vector<Program> suite;
    Engine engine;
    const std::vector<MachineConfig> machines;
    /** Whether @ref machines is the row's default list (no
     *  --machines), so figure titles may name the paper's panels. */
    const bool defaultMachines;

    /**
     * Compiles @p suite (default: the row's suite) on @p m as one
     * engine batch; under --replay every compiled loop is re-executed
     * through the simulator first, fatal on any mismatch.
     */
    SuiteResult
    compile(const MachineConfig &m, SchedulerKind kind,
            const LoopCompilerOptions &compiler = {},
            const std::vector<Program> *suite_override = nullptr)
    {
        const std::vector<Program> &programs =
            suite_override ? *suite_override : suite;
        SuiteResult result =
            compileSuite(engine, programs, m, kind, compiler);
        if (options.replay) {
            const std::string what = m.name() + " " + toString(kind);
            sim::ReplayReport replay =
                sim::replaySuite(programs, result, m);
            options.text() << "  replay [" << what
                           << "]: " << replay.summary() << "\n";
            if (!replay.ok()) {
                const sim::ReplayMismatch &bad =
                    replay.mismatches.front();
                GPSCHED_FATAL("replay gate failed on '", what, "': ",
                              replay.mismatches.size(),
                              " mismatches; first ", bad.program, "/",
                              bad.loop, ": ", bad.detail);
            }
        }
        return result;
    }
};

/** Relative gain of @p x over @p base in percent; 0 without a base. */
double
gainPct(double x, double base)
{
    return base > 0.0 ? 100.0 * (x / base - 1.0) : 0.0;
}

// ---------------------------------------------------------------
// Figures 2 and 3, and the two-bus check
// ---------------------------------------------------------------

/**
 * One Figure-2/3 panel: the suite on the unified baseline with the
 * same total registers, then URACAM / Fixed / GP on @p clustered.
 */
FigurePanel
runPanel(Run &run, const MachineConfig &clustered, std::string title)
{
    MachineConfig unified = unifiedConfig(clustered.totalRegs());
    SuiteResult u = run.compile(unified, SchedulerKind::Uracam);
    SuiteResult ur = run.compile(clustered, SchedulerKind::Uracam);
    SuiteResult fx =
        run.compile(clustered, SchedulerKind::FixedPartition);
    SuiteResult gp = run.compile(clustered, SchedulerKind::Gp);

    FigurePanel panel;
    panel.title = std::move(title);
    for (std::size_t i = 0; i < run.suite.size(); ++i) {
        panel.rows.push_back({run.suite[i].name, u.programs[i].ipc,
                              ur.programs[i].ipc, fx.programs[i].ipc,
                              gp.programs[i].ipc});
    }
    panel.rows.push_back(
        {"average", u.meanIpc, ur.meanIpc, fx.meanIpc, gp.meanIpc});
    panel.digests = {{"unified", scheduleDigest(u)},
                     {"uracam", scheduleDigest(ur)},
                     {"fixed", scheduleDigest(fx)},
                     {"gp", scheduleDigest(gp)}};

    std::uint64_t skipped = u.failedLoops + ur.failedLoops +
                            fx.failedLoops + gp.failedLoops;
    if (skipped > 0) {
        GPSCHED_WARN("panel '", panel.title, "': ", skipped,
                     " loop compiles failed and were skipped; "
                     "figures cover the surviving loops only");
    }
    return panel;
}

/**
 * One panel per machine, titled after the paper's panel
 * (@p panelName names it for a default machine) or, for a --machines
 * entry, after the machine.
 */
Report
figure(Run &run, std::string (*panelName)(const MachineConfig &))
{
    Report report;
    for (const MachineConfig &m : run.machines) {
        std::string title =
            run.defaultMachines
                ? panelName(m) + ": IPC, " +
                      std::to_string(m.numClusters()) + "-cluster, " +
                      std::to_string(m.numBuses()) + " bus (latency " +
                      std::to_string(m.busClass(0).latency) + "), " +
                      std::to_string(m.totalRegs()) + " registers"
                : "IPC on " + m.summary();
        report.panels.push_back(runPanel(run, m, std::move(title)));
    }
    return report;
}

Report
fig2(Run &run)
{
    return figure(run, [](const MachineConfig &m) {
        return std::string(m.numClusters() == 2 ? "Figure 2(a)"
                                                : "Figure 2(b)");
    });
}

Report
fig3(Run &run)
{
    return figure(run, [](const MachineConfig &) {
        return std::string("Figure 3");
    });
}

/** Mean IPC of URACAM, Fixed and GP on one machine. */
struct SchemeMeans
{
    double uracam = 0.0;
    double fixed = 0.0;
    double gp = 0.0;
};

SchemeMeans
schemeMeans(Run &run, const MachineConfig &m,
            const LoopCompilerOptions &compiler = {})
{
    return {run.compile(m, SchedulerKind::Uracam, compiler).meanIpc,
            run.compile(m, SchedulerKind::FixedPartition, compiler)
                .meanIpc,
            run.compile(m, SchedulerKind::Gp, compiler).meanIpc};
}

/** @p m with every bus class's count multiplied by @p factor. */
MachineConfig
withScaledBuses(const MachineConfig &m, int factor)
{
    std::vector<BusDesc> buses;
    for (int i = 0; i < m.numBusClasses(); ++i) {
        BusDesc bus = m.busClass(i);
        bus.count *= factor;
        buses.push_back(bus);
    }
    return m.withBusClasses(std::move(buses),
                            m.name() + "-x" + std::to_string(factor));
}

/** Section 4.1: "results for two buses follow a similar trend". */
Report
figBuses(Run &run)
{
    MetricTable table("Two-bus check", {"configuration"},
                      {"buses", "uracamIpc", "fixedIpc", "gpIpc",
                       "gpOverUracamPct"});
    for (const MachineConfig &base : run.machines) {
        if (base.unified()) {
            std::cerr << "skipping unified machine '" << base.name()
                      << "': no buses to double\n";
            continue;
        }
        for (int factor : {1, 2}) {
            MachineConfig m =
                factor == 1 ? base : withScaledBuses(base, factor);
            SchemeMeans means = schemeMeans(run, m);
            table.addRow({m.name()},
                         {static_cast<double>(m.numBuses()),
                          means.uracam, means.fixed, means.gp,
                          gainPct(means.gp, means.uracam)});
        }
    }
    return std::vector{table};
}

// ---------------------------------------------------------------
// Tables 1 and 2
// ---------------------------------------------------------------

/** Per-cluster FU counts as one cell: "2" when uniform, "3,1,..."
 *  when clusters differ. */
std::string
fuCell(const MachineConfig &m, FuClass cls)
{
    if (m.homogeneous())
        return std::to_string(m.fuPerCluster(cls));
    std::string cell;
    for (int c = 0; c < m.numClusters(); ++c)
        cell += (c > 0 ? "," : "") + std::to_string(m.fuInCluster(c, cls));
    return cell;
}

/** Bus classes as one cell: "1@1" (count@latency) per class. */
std::string
busCell(const MachineConfig &m)
{
    if (m.numBusClasses() == 0)
        return "-";
    std::string cell;
    for (int i = 0; i < m.numBusClasses(); ++i) {
        cell += (i > 0 ? "+" : "") +
                std::to_string(m.busClass(i).count) + "@" +
                std::to_string(m.busClass(i).latency);
    }
    return cell;
}

Report
table1(Run &run)
{
    MetricTable configs("Table 1: clustered VLIW configurations",
                        {"configuration", "fuMix", "buses"},
                        {"clusters", "issue", "regs", "busCount"});
    for (const MachineConfig &m : run.machines) {
        configs.addRow({m.name(),
                        fuCell(m, FuClass::Int) + "/" +
                            fuCell(m, FuClass::Fp) + "/" +
                            fuCell(m, FuClass::Mem),
                        busCell(m)},
                       {static_cast<double>(m.numClusters()),
                        static_cast<double>(m.totalIssueWidth()),
                        static_cast<double>(m.totalRegs()),
                        static_cast<double>(m.numBuses())});
    }
    MetricTable latencies("Table 1 (cont.): operation latencies",
                          {"operation"}, {"latency", "occupancy"});
    LatencyTable lat;
    for (Opcode op :
         {Opcode::IAlu, Opcode::IMul, Opcode::IDiv, Opcode::FAdd,
          Opcode::FMul, Opcode::FDiv, Opcode::Load, Opcode::Store}) {
        latencies.addRow({toString(op)},
                         {static_cast<double>(lat.latency(op)),
                          static_cast<double>(lat.occupancy(op))});
    }
    Report report(std::vector{configs, latencies});
    report.engineStats = false;
    return report;
}

/**
 * Table 2: CPU seconds per full-suite compilation, averaged over
 * repetitions. Every loop is compiled by one LoopCompiler on this
 * thread, bypassing the engine whatever --jobs says: the metric is
 * the scheduling time of one compiler instance, which concurrency
 * and the result cache (loops of one shape compile once) would only
 * distort. A loop the compiler rejects is skipped, as compileSuite
 * skips it. Every repetition of every scheme compiles a fresh copy
 * of the suite, made before its clock starts: a graph keeps the
 * analyses it computed (RecMII, SMS sets, per-II orders), so
 * compiling the same graphs again would charge them to whichever
 * scheme ran first. The thread CPU clock read before and after each
 * repetition covers every compile — per-loop reads would quantize
 * to scheduler ticks on some kernels — and the ambient telemetry
 * context attributes every phase span of the run to the scheme's
 * phase sums. The JSON report has its own shape: the table's rows
 * plus those phase sums.
 */
Report
table2(Run &run)
{
    constexpr SchedulerKind schemes[3] = {SchedulerKind::Uracam,
                                          SchedulerKind::FixedPartition,
                                          SchedulerKind::Gp};
    const int reps = run.options.smoke ? 1 : 10;
    MetricTable table("Table 2: average CPU seconds to schedule the "
                      "suite (mean of " +
                          std::to_string(reps) + " runs)",
                      {"configuration"},
                      {"uracamSeconds", "fixedSeconds", "gpSeconds",
                       "uracamOverGp"});
    std::vector<std::array<CompileTrace, 3>> phases;
    for (const MachineConfig &m : run.machines) {
        std::array<CompileTrace, 3> &traces = phases.emplace_back();
        double seconds[3];
        for (int s = 0; s < 3; ++s) {
            TelemetryContext ctx;
            ctx.trace = &traces[s];
            ScopedTelemetryContext scoped(ctx);
            LoopCompiler compiler(m, schemes[s]);
            std::uint64_t cpu = 0;
            for (int r = 0; r < reps; ++r) {
                const std::vector<Program> fresh = run.suite;
                std::uint64_t cpu0 = threadCpuNanos();
                for (const Program &program : fresh) {
                    for (const Ddg &loop : program.loops) {
                        try {
                            compiler.compile(loop);
                        } catch (const CompileError &error) {
                            GPSCHED_WARN("skipping loop '", loop.name(),
                                         "' of program '", program.name,
                                         "': ", error.what());
                        }
                    }
                }
                cpu += threadCpuNanos() - cpu0;
            }
            seconds[s] = static_cast<double>(cpu) * 1e-9 / reps;
        }
        table.addRow({m.name()},
                     {seconds[0], seconds[1], seconds[2],
                      seconds[2] > 0 ? seconds[0] / seconds[2] : 0.0});
    }
    Report report(std::vector{table});
    report.json = [table, phases = std::move(phases),
                   reps](std::ostream &os) {
        JsonWriter json(os);
        json.beginObject();
        json.member("schemaVersion", 1);
        json.member("bench", "table2_sched_time");
        json.member("reps", reps);
        json.beginArray("rows");
        for (std::size_t i = 0; i < table.rows.size(); ++i) {
            json.beginObject();
            json.member("configuration", table.rows[i].labels[0]);
            for (std::size_t c = 0; c < table.valueColumns.size(); ++c)
                json.member(table.valueColumns[c],
                            table.rows[i].values[c]);
            const char *keys[3] = {"uracamPhases", "fixedPhases",
                                   "gpPhases"};
            for (int s = 0; s < 3; ++s)
                writeCompileTracePhases(json, keys[s], phases[i][s]);
            json.endObject();
        }
        json.endArray();
        json.endObject();
    };
    return report;
}

// ---------------------------------------------------------------
// The heterogeneous corpus sweep
// ---------------------------------------------------------------

const char *
policyName(TransferCostPolicy policy)
{
    return policy == TransferCostPolicy::FastestFirst ? "fastest"
                                                      : "slack";
}

/**
 * Every `.machine` file of examples/machines/ (sorted by file name)
 * under URACAM / Fixed / GP, once with fastest-first bus selection
 * and once with the slack-aware transfer cost model.
 *
 * "Corpus sweep" has one row per (machine, policy); "Transfer policy
 * delta" compares GP under both policies per machine
 * (slackGainPct > 0: slack-aware won), then a corpus-mean row, so a
 * regression on one machine never hides inside the mean.
 *
 * --gate-policy fails the run unless, over the machines with more
 * than one bus class, slack-aware GP matches or beats fastest-first
 * GP on at least two and strictly beats it on at least one. The gate
 * bounds nothing on the other machines (the policy is a heuristic
 * and may lose there); golden_bench_corpus catches any change to a
 * per-machine row.
 */
Report
benchCorpus(Run &run)
{
    MetricTable sweep("Corpus sweep", {"machine", "transferPolicy"},
                      {"uracamIpc", "fixedIpc", "gpIpc",
                       "gpOverFixedPct"});
    MetricTable delta("Transfer policy delta", {"machine"},
                      {"busClasses", "gpFastestIpc", "gpSlackIpc",
                       "slackGainPct"});
    int multi_class = 0;
    int slack_no_worse = 0;
    int slack_better = 0;
    double fastest_sum = 0.0, slack_sum = 0.0;
    for (const MachineConfig &m : run.machines) {
        double gp[2] = {0.0, 0.0};
        for (TransferCostPolicy policy :
             {TransferCostPolicy::FastestFirst,
              TransferCostPolicy::SlackAware}) {
            LoopCompilerOptions compiler;
            compiler.transferCost = policy;
            SchemeMeans means = schemeMeans(run, m, compiler);
            sweep.addRow({m.name(), policyName(policy)},
                         {means.uracam, means.fixed, means.gp,
                          gainPct(means.gp, means.fixed)});
            gp[policy == TransferCostPolicy::SlackAware] = means.gp;
        }
        delta.addRow({m.name()},
                     {static_cast<double>(m.numBusClasses()), gp[0],
                      gp[1], gainPct(gp[1], gp[0])});
        fastest_sum += gp[0];
        slack_sum += gp[1];
        if (m.numBusClasses() > 1) {
            ++multi_class;
            slack_no_worse += gp[1] >= gp[0];
            slack_better += gp[1] > gp[0];
        }
    }
    if (!run.machines.empty()) {
        const double n = static_cast<double>(run.machines.size());
        delta.addRow({"corpus-mean"},
                     {0.0, fastest_sum / n, slack_sum / n,
                      gainPct(slack_sum / n, fastest_sum / n)});
    }
    Report report(std::vector{sweep, delta});
    if (!run.options.gatePolicy)
        return report;
    if (slack_no_worse < 2 || slack_better == 0) {
        std::cerr << "--gate-policy: slack-aware GP must be >= "
                     "fastest-first on at least two multi-bus-class "
                     "machines (got "
                  << slack_no_worse << "/" << multi_class
                  << ") and strictly better on at least one ("
                  << slack_better << ")\n";
        report.status = 1;
    } else {
        run.options.text()
            << "--gate-policy OK: " << slack_no_worse << "/"
            << multi_class << " machines no worse, " << slack_better
            << " strictly better\n";
    }
    return report;
}

// ---------------------------------------------------------------
// Ablations: GP mean IPC under option variants
// ---------------------------------------------------------------

/** One row per machine: GP mean IPC under each of @p variants. */
MetricTable
gpIpcByVariant(Run &run, std::string title,
               std::vector<std::string> columns,
               const std::vector<LoopCompilerOptions> &variants)
{
    MetricTable table(std::move(title), {"configuration"},
                      std::move(columns));
    for (const MachineConfig &m : run.machines) {
        std::vector<double> ipc;
        for (const LoopCompilerOptions &variant : variants)
            ipc.push_back(
                run.compile(m, SchedulerKind::Gp, variant).meanIpc);
        table.addRow({m.name()}, std::move(ipc));
    }
    return table;
}

/** Section 3.2.1: the edge weight's delay and slack terms. */
Report
ablationEdgeWeights(Run &run)
{
    std::vector<LoopCompilerOptions> variants;
    for (auto [delay, slack] : {std::pair{true, true}, {true, false},
                                {false, true}, {false, false}}) {
        LoopCompilerOptions &o = variants.emplace_back();
        o.partitioner.edgeWeights.useDelayTerm = delay;
        o.partitioner.edgeWeights.useSlackTerm = slack;
    }
    return std::vector{gpIpcByVariant(
        run, "Ablation A: GP mean IPC vs edge-weight terms",
        {"delaySlackIpc", "delayOnlyIpc", "slackOnlyIpc", "neitherIpc"},
        variants)};
}

/** The paper's maximum-weight matching is substituted by greedy
 *  heavy-edge matching; a random maximal matching shows the weight
 *  guidance matters. */
Report
ablationMatching(Run &run)
{
    std::vector<LoopCompilerOptions> variants(2);
    variants[0].partitioner.matching = MatchingPolicy::GreedyHeavy;
    variants[1].partitioner.matching = MatchingPolicy::RandomMaximal;
    return std::vector{gpIpcByVariant(
        run, "Ablation C: GP mean IPC vs matching policy",
        {"greedyHeavyIpc", "randomMaximalIpc"}, variants)};
}

/** Section 4.2's future work: register-aware partitioning. */
Report
ablationRegpressure(Run &run)
{
    std::vector<LoopCompilerOptions> variants(2);
    variants[1].partitioner.registerAware = true;
    MetricTable table =
        gpIpcByVariant(run, "Ablation D: register-aware partitioning",
                       {"gpIpc", "gpRegisterAwareIpc"}, variants);
    table.valueColumns.push_back("gainPct");
    for (MetricRow &row : table.rows)
        row.values.push_back(gainPct(row.values[1], row.values[0]));
    return std::vector{table};
}

/**
 * Figure 1's re-partition decision: Never / Selective / Always, with
 * the work each policy does (partitioner runs and II attempts summed
 * over the suite, deterministic unlike a timer).
 */
Report
ablationRepartition(Run &run)
{
    MetricTable table("Ablation B: GP re-partition policy",
                      {"configuration", "policy"},
                      {"meanIpc", "partitionRuns",
                       "scheduleAttempts"});
    const std::pair<const char *, RepartitionPolicy> policies[] = {
        {"never", RepartitionPolicy::Never},
        {"selective", RepartitionPolicy::Selective},
        {"always", RepartitionPolicy::Always},
    };
    for (const MachineConfig &m : run.machines) {
        for (const auto &[name, policy] : policies) {
            LoopCompilerOptions compiler;
            compiler.repartition = policy;
            SuiteResult r = run.compile(m, SchedulerKind::Gp, compiler);
            long runs = 0;
            long attempts = 0;
            for (const ProgramResult &program : r.programs) {
                for (const CompiledLoop &loop : program.loops) {
                    runs += loop.partitionRuns;
                    attempts += loop.scheduleAttempts;
                }
            }
            table.addRow({m.name(), name},
                         {r.meanIpc, static_cast<double>(runs),
                          static_cast<double>(attempts)});
        }
    }
    return std::vector{table};
}

/**
 * Unrolling by 1/2/3 before GP scheduling (Sánchez & González,
 * ICPP 2000). Unrolling leaves useful operations per cycle
 * unchanged, so the IPCs compare directly.
 */
Report
ablationUnroll(Run &run)
{
    MetricTable table("Ablation E: GP mean IPC vs unroll factor",
                      {"configuration"},
                      {"unroll1Ipc", "unroll2Ipc", "unroll3Ipc"});
    std::vector<std::vector<Program>> suites;
    for (int factor : {1, 2, 3}) {
        std::vector<Program> &unrolled = suites.emplace_back();
        for (const Program &prog : run.suite) {
            Program &copy = unrolled.emplace_back();
            copy.name = prog.name;
            for (const Ddg &loop : prog.loops)
                copy.loops.push_back(unrollLoop(loop, factor));
        }
    }
    for (const MachineConfig &m : run.machines) {
        std::vector<double> ipc;
        for (const std::vector<Program> &unrolled : suites)
            ipc.push_back(
                run.compile(m, SchedulerKind::Gp, {}, &unrolled)
                    .meanIpc);
        table.addRow({m.name()}, std::move(ipc));
    }
    return std::vector{table};
}

// ---------------------------------------------------------------
// the experiment table
// ---------------------------------------------------------------

std::vector<MachineConfig>
figure2Machines()
{
    return {twoClusterConfig(32, 1), twoClusterConfig(64, 1),
            fourClusterConfig(32, 1), fourClusterConfig(64, 1)};
}

std::vector<MachineConfig>
figure3Machines()
{
    return {fourClusterConfig(32, 2), fourClusterConfig(64, 2)};
}

/** The three 32-register panels of Figures 2 and 3. */
std::vector<MachineConfig>
panelMachines()
{
    return {twoClusterConfig(32, 1), fourClusterConfig(32, 1),
            fourClusterConfig(32, 2)};
}

std::vector<MachineConfig>
registryMachines()
{
    const MachineRegistry &registry = MachineRegistry::builtin();
    std::vector<MachineConfig> machines;
    for (int i = 0; i < registry.size(); ++i)
        machines.push_back(registry.at(i));
    return machines;
}

struct Experiment
{
    const char *name;
    const char *description;
    std::vector<MachineConfig> (*machines)(); ///< default list
    Report (*run)(Run &);
};

const Experiment kExperiments[] = {
    {"fig2_ipc_lat1", "Figure 2: IPC per program, 1-cycle bus",
     figure2Machines, fig2},
    {"fig3_ipc_lat2", "Figure 3: IPC per program, 2-cycle bus",
     figure3Machines, fig3},
    {"fig_buses", "Section 4.1: two buses follow a similar trend",
     panelMachines, figBuses},
    {"table1_configs",
     "Table 1: machines, and the latencies of paper substitution 3",
     registryMachines, table1},
    {"table2_sched_time",
     "Table 2: CPU time to schedule the suite (paper: URACAM 2-7x GP)",
     [] {
         std::vector<MachineConfig> machines = figure2Machines();
         for (MachineConfig &m : figure3Machines())
             machines.push_back(std::move(m));
         return machines;
     },
     table2},
    {"bench_corpus",
     "every examples/machines/ file under both transfer policies",
     [] {
         return MachineRegistry::builtin().resolveDirectory(
             GPSCHED_CORPUS_DIR);
     },
     benchCorpus},
    {"ablation_edge_weights",
     "A: edge weight = delay*(maxsl+1) + maxsl - slack + 1, per term",
     panelMachines, ablationEdgeWeights},
    {"ablation_matching",
     "C: greedy heavy-edge vs random maximal coarsening matching",
     panelMachines, ablationMatching},
    {"ablation_regpressure",
     "D: register-aware partitioning (Section 4.2 future work)",
     [] {
         return std::vector<MachineConfig>{
             twoClusterConfig(32, 1), fourClusterConfig(32, 1),
             fourClusterConfig(64, 1), fourClusterConfig(32, 2)};
     },
     ablationRegpressure},
    {"ablation_repartition",
     "B: Never / Selective / Always re-partition (paper: selective)",
     panelMachines, ablationRepartition},
    {"ablation_unroll", "E: GP IPC vs unroll factor 1/2/3",
     [] {
         return std::vector<MachineConfig>{twoClusterConfig(32, 1),
                                           fourClusterConfig(32, 1),
                                           fourClusterConfig(64, 1)};
     },
     ablationUnroll},
};

void
printExperiments(std::ostream &os)
{
    os << "experiments:\n";
    for (const Experiment &e : kExperiments) {
        std::string name = e.name;
        name.resize(23, ' ');
        os << "  " << name << e.description << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    constexpr int maxCount = 1 << 20;
    BenchOptions options;
    bool all = false;
    ArgParser parser(argv[0], "NAME...");
    parser.flag("--all", "run every experiment", all)
        .flag("--smoke", "tiny workload", options.smoke)
        .option("--jobs", "N", "engine workers, 0 = hardware (default 1)",
                options.jobs, 0, maxCount)
        .option("--json", "PATH",
                "JSON report of one experiment, '-' = stdout",
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
              options.replay)
        .flag("--gate-policy",
              "bench_corpus: fail unless the slack-aware cost model wins",
              options.gatePolicy);
    std::vector<std::string> names = parser.parse({argv + 1, argv + argc});

    std::vector<const Experiment *> rows;
    if (all) {
        if (!names.empty())
            parser.fail("--all takes no experiment names");
        for (const Experiment &e : kExperiments)
            rows.push_back(&e);
    }
    for (const std::string &name : names) {
        const Experiment *found = nullptr;
        for (const Experiment &e : kExperiments)
            found = name == e.name ? &e : found;
        if (!found) {
            std::cerr << argv[0] << ": unknown experiment '" << name
                      << "'\n";
            printExperiments(std::cerr);
            return 2;
        }
        rows.push_back(found);
    }
    if (rows.empty()) {
        std::cerr << argv[0] << ": no experiment named\n";
        printExperiments(std::cerr);
        return 2;
    }
    if (!options.jsonPath.empty() && rows.size() != 1)
        parser.fail("--json takes exactly one experiment");

    std::vector<MachineConfig> overrides;
    const MachineRegistry &registry = MachineRegistry::builtin();
    for (const std::string &spec : options.machines)
        overrides.push_back(registry.resolve(spec));

    int status = 0;
    for (const Experiment *e : rows) {
        options.text() << "== " << e->name << ": "
                       << e->description << "\n";
        Run run{options, benchSuite(options.smoke),
                Engine(engineOptions(options)),
                overrides.empty() ? e->machines() : overrides,
                overrides.empty()};
        Report report = e->run(run);
        printReport(options.text(), report);
        if (!options.jsonPath.empty()) {
            writeOutput(options.jsonPath, [&](std::ostream &os) {
                writeReportJson(os, e->name, report, run.engine);
            });
        }
        status = std::max(status, report.status);
    }
    return status;
}
