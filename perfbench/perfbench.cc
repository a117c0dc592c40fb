/**
 * @file
 * The offline compile benchmark program (see run.py, which builds
 * and runs it and turns its raw report into the printed metrics).
 *
 * One invocation runs one workload as a closed-loop batch: every pass
 * submits the whole job list to a fresh Engine, waits for every
 * result, then checks each result with both oracles. A job is one
 * (loop, machine, scheme) triple.
 *
 *  - specfp:    the synthetic SPECfp95 suite x the six Figure 2/3
 *               machines x {unified, URACAM, Fixed, GP}; memory
 *               cache on, no disk cache, inline pool (1 worker).
 *  - fuzz-cold: the pinned fuzz corpus x fuzzMachines x 3 schemes;
 *               each pass over a fresh, empty disk-cache directory,
 *               2 workers.
 *  - fuzz-warm: the same jobs; set-up fills a disk cache once, each
 *               pass reads it through a fresh Engine, 1 worker.
 *
 * The loops are pinned (the suite, or the corpus at its pinned seed),
 * so every work counter repeats exactly across runs; --seed draws
 * the submission order of the job list.
 *
 * The program measures from outside the library: it times calls into
 * public functions and reads the telemetry the library already has
 * (EngineOptions::collectPhases, Engine::exportStats into a
 * MetricRegistry, CompileResult::compileMs). With --trace 1 it adds
 * one traced pass (phases, registry and Chrome trace attached), a
 * pass at the other worker count to prove the counters do not depend
 * on it, and per-call timings of each layer's public functions.
 *
 * Output is one JSON report (--out) with raw per-pass and per-job
 * numbers; statistics across them are run.py's job.
 */

#include <time.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/gp_scheduler.hh"
#include "engine/disk_cache.hh"
#include "engine/engine.hh"
#include "engine/loop_key.hh"
#include "graph/ddg_analysis.hh"
#include "machine/configs.hh"
#include "partition/multilevel.hh"
#include "sched/list_sched.hh"
#include "sched/mii.hh"
#include "sched/validate.hh"
#include "serialize/record.hh"
#include "sim/sim.hh"
#include "support/json.hh"
#include "support/random.hh"
#include "support/telemetry.hh"
#include "support/trace.hh"
#include "workload/fuzz.hh"
#include "workload/specfp.hh"

namespace fs = std::filesystem;
using namespace gpsched;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

enum class Workload
{
    Specfp,
    FuzzCold,
    FuzzWarm
};

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::Specfp:
        return "specfp";
      case Workload::FuzzCold:
        return "fuzz-cold";
      case Workload::FuzzWarm:
        return "fuzz-warm";
    }
    return "?";
}

/** Engine workers of the timed passes. */
int
workloadWorkers(Workload w)
{
    return w == Workload::FuzzCold ? 2 : 1;
}

/** The pinned fuzz corpus: its seed and size. */
constexpr std::uint64_t kCorpusSeed = 0xf022c0de5eedULL;
constexpr int kCorpusLoops = 200;

/** Timed passes per run: at least enough for a median, at most what
 *  the per-job latency arrays can hold comfortably. */
constexpr int kMinPasses = 3;
constexpr int kMaxPasses = 200;

/** Set-up repeats at least this often and for at least this long, so
 *  its median spans more than one burst of machine contention even
 *  when one set-up takes a fraction of a millisecond. */
constexpr int kMinSetups = 3;
constexpr double kMinSetupSeconds = 1.0;

struct Args
{
    Workload workload = Workload::Specfp;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string machinesDir;
    std::string workDir;
    std::string out;
    std::string traceOut;
};

[[noreturn]] void
usage(const std::string &message)
{
    std::cerr
        << "perfbench: " << message << "\n"
        << "usage: perfbench --workload specfp|fuzz-cold|"
           "fuzz-warm --seed N --seconds S --trace 0|1\n"
           "         --machines-dir DIR --work-dir DIR --out FILE\n"
           "         [--trace-out FILE]\n";
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long value = std::strtoull(text.c_str(), &end, 0);
    if (errno != 0 || end == text.c_str() || *end != '\0' ||
        text[0] == '-')
        usage(flag + " needs a non-negative integer, got '" + text +
              "'");
    return value;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        std::string value = argv[++i];
        if (flag == "--workload") {
            haveWorkload = true;
            if (value == "specfp")
                args.workload = Workload::Specfp;
            else if (value == "fuzz-cold")
                args.workload = Workload::FuzzCold;
            else if (value == "fuzz-warm")
                args.workload = Workload::FuzzWarm;
            else
                usage("unknown workload '" + value + "'");
        } else if (flag == "--seed") {
            args.seed = parseUnsigned(flag, value);
        } else if (flag == "--seconds") {
            char *end = nullptr;
            args.seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' ||
                !(args.seconds > 0.0))
                usage("--seconds needs a positive number");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--machines-dir") {
            args.machinesDir = value;
        } else if (flag == "--work-dir") {
            args.workDir = value;
        } else if (flag == "--out") {
            args.out = value;
        } else if (flag == "--trace-out") {
            args.traceOut = value;
        } else {
            usage("unknown argument '" + flag + "'");
        }
    }
    if (!haveWorkload || args.workDir.empty() || args.out.empty())
        usage("--workload, --work-dir and --out are required");
    if (args.workload != Workload::Specfp && args.machinesDir.empty())
        usage("fuzz workloads need --machines-dir");
    return args;
}

/**
 * The generated inputs of one workload. Jobs point into loops and
 * machines, so an Inputs is built in place and never moved.
 */
struct Inputs
{
    LatencyTable lat;
    std::vector<Ddg> loops;
    std::vector<MachineConfig> machines;
    std::vector<EngineJob> jobs;
    double fuzzGenMs = 0.0;

    Inputs() = default;
    Inputs(const Inputs &) = delete;
    Inputs &operator=(const Inputs &) = delete;
};

std::unique_ptr<Inputs>
makeInputs(const Args &args)
{
    auto in = std::make_unique<Inputs>();
    if (args.workload == Workload::Specfp) {
        for (Program &program : specFp95Suite(in->lat)) {
            for (Ddg &loop : program.loops)
                in->loops.push_back(std::move(loop));
        }
        // The Figure 2 and Figure 3 machines, each paired with the
        // unified machine of the same register count (the paper's
        // "unified" bar is URACAM on it).
        for (const MachineConfig &clustered :
             {twoClusterConfig(32, 1), twoClusterConfig(64, 1),
              fourClusterConfig(32, 1), fourClusterConfig(64, 1),
              fourClusterConfig(32, 2), fourClusterConfig(64, 2)}) {
            in->machines.push_back(
                unifiedConfig(clustered.totalRegs()));
            in->machines.push_back(clustered);
        }
        for (const Ddg &loop : in->loops) {
            for (std::size_t m = 0; m < in->machines.size(); m += 2) {
                const MachineConfig *unified = &in->machines[m];
                const MachineConfig *clustered = &in->machines[m + 1];
                in->jobs.push_back(
                    {&loop, unified, SchedulerKind::Uracam, {}});
                for (SchedulerKind kind :
                     {SchedulerKind::Uracam,
                      SchedulerKind::FixedPartition, SchedulerKind::Gp})
                    in->jobs.push_back({&loop, clustered, kind, {}});
            }
        }
    } else {
        Clock::time_point start = Clock::now();
        for (int i = 0; i < kCorpusLoops; ++i)
            in->loops.push_back(
                fuzz::corpusCase(kCorpusSeed, i, in->lat).ddg);
        in->fuzzGenMs = secondsSince(start) * 1e3;
        in->machines =
            fuzz::fuzzConfigs(fuzz::fuzzMachines(args.machinesDir));
        for (const Ddg &loop : in->loops) {
            for (const MachineConfig &machine : in->machines) {
                for (SchedulerKind kind :
                     {SchedulerKind::Uracam,
                      SchedulerKind::FixedPartition, SchedulerKind::Gp})
                    in->jobs.push_back({&loop, &machine, kind, {}});
            }
        }
    }
    Rng rng(args.seed);
    rng.shuffle(in->jobs);
    return in;
}

/** Fresh, empty directories under the run's work directory. */
class WorkDir
{
  public:
    explicit WorkDir(fs::path root) : root_(std::move(root))
    {
        fs::create_directories(root_);
    }
    ~WorkDir()
    {
        std::error_code ec;
        fs::remove_all(root_, ec);
    }
    WorkDir(const WorkDir &) = delete;
    WorkDir &operator=(const WorkDir &) = delete;

    std::string
    fresh(const std::string &tag)
    {
        fs::path dir = root_ / (tag + "-" + std::to_string(next_++));
        fs::remove_all(dir);
        fs::create_directories(dir);
        return dir.string();
    }

    static void
    remove(const std::string &dir)
    {
        std::error_code ec;
        fs::remove_all(dir, ec);
    }

  private:
    fs::path root_;
    int next_ = 0;
};

std::string
jobLabel(const EngineJob &job)
{
    return job.loop->name() + " @ " + job.machine->name() + "/" +
           toString(job.kind);
}

/** The schedule fields of a record (names and timers excluded). */
bool
sameSchedule(const CompiledLoop &a, const CompiledLoop &b)
{
    return a.moduloScheduled == b.moduloScheduled && a.mii == b.mii &&
           a.ii == b.ii && a.scheduleLength == b.scheduleLength &&
           a.cycles == b.cycles && a.ops == b.ops && a.ipc == b.ipc &&
           a.stats == b.stats && a.partitionRuns == b.partitionRuns &&
           a.scheduleAttempts == b.scheduleAttempts &&
           a.placements == b.placements &&
           a.transfers == b.transfers && a.spills == b.spills &&
           a.partition == b.partition;
}

/** What the oracles saw over one pass. */
struct OracleTally
{
    std::int64_t validateRejects = 0;
    std::int64_t replayed = 0;
    std::int64_t iterations = 0;
    std::int64_t simCycles = 0;
    double ipcSum = 0.0;
};

/**
 * The two-oracle contract on one result: the validator and the
 * simulator agree, accept, and the simulated II, cycles and IPC
 * equal the compiler's claims bit for bit. List-scheduled records
 * carry no placements, so the validator does not apply to them and
 * only the simulator's check holds them. Returns "" when it holds.
 */
std::string
checkResult(const EngineJob &job, const CompileResult &result,
            OracleTally &tally)
{
    if (!result.ok())
        return "compile error: " + result.error->diagnostic();
    const CompiledLoop &loop = result.loop;
    sim::SimResult s = sim::simulate(*job.loop, *job.machine, loop);
    tally.replayed += s.replayed ? 1 : 0;
    tally.iterations += s.iterationsSimulated;
    tally.simCycles += s.simCycles;
    tally.ipcSum += s.achievedIpc;
    std::string fault = s.fault ? s.fault->toString() : "ok";
    if (loop.moduloScheduled) {
        ValidationResult v = validateSchedule(*job.loop, *job.machine,
                                              loop);
        if (!v.valid)
            ++tally.validateRejects;
        if (v.valid != s.simOk)
            return "oracles disagree: validator '" +
                   (v.valid ? std::string("ok") : v.message) +
                   "', simulator " + fault;
        if (!v.valid)
            return "both oracles reject: " + v.message;
        if (s.achievedII != loop.ii)
            return "achievedII " + std::to_string(s.achievedII) +
                   " != ii " + std::to_string(loop.ii);
    } else if (!s.simOk) {
        return "simulator rejects list-scheduled record: " + fault;
    }
    if (s.simCycles != loop.cycles)
        return "simCycles " + std::to_string(s.simCycles) +
               " != cycles " + std::to_string(loop.cycles);
    if (s.achievedIpc != loop.ipc)
        return "achievedIpc " + JsonWriter::number(s.achievedIpc) +
               " != ipc " + JsonWriter::number(loop.ipc);
    return {};
}

/** Exact work counters of one pass, by metric name. */
using Counters = std::map<std::string, std::int64_t>;

/** How one pass runs its Engine. */
struct PassConfig
{
    int workers = 1;
    std::string cacheDir;
    MetricRegistry *metrics = nullptr;
    TraceSink *trace = nullptr;
    bool phases = false;
};

/** Everything one pass measured. */
struct Pass
{
    double wallS = 0.0;
    double cpuS = 0.0;
    std::vector<double> verifyUsPerJob; ///< one per verify chunk
    std::vector<double> jobMs;
    std::vector<int> jobKind; ///< 0 not compiled, 1 modulo, 2 fallback
    Counters counters;
    double ipcSum = 0.0;
    CompileTrace phases;
    std::uint64_t residentBytes = 0;
    std::int64_t failed = 0;
    std::vector<std::string> failures;

    void
    fail(std::string what)
    {
        ++failed;
        if (failures.size() < 20)
            failures.push_back(std::move(what));
    }
};

std::int64_t
counterValue(MetricRegistry &registry, const std::string &name)
{
    return static_cast<std::int64_t>(registry.counter(name).value());
}

/**
 * One closed-loop pass: a fresh Engine compiles the whole job list,
 * then both oracles check every result. With @p reference, every
 * schedule must also equal the reference's.
 */
std::vector<CompileResult>
runPass(const Inputs &in, const PassConfig &config,
        const std::vector<CompileResult> *reference, Pass &pass)
{
    EngineOptions options;
    options.jobs = config.workers;
    options.cacheDir = config.cacheDir;
    options.metrics = config.metrics;
    options.trace = config.trace;
    options.collectPhases = config.phases;
    Engine engine(options);
    // Write back the files of earlier passes before timing this one.
    if (!config.cacheDir.empty())
        ::sync();

    double cpu0 = processCpuSeconds();
    Clock::time_point start = Clock::now();
    std::vector<CompileResult> results = engine.compileBatch(in.jobs);
    pass.wallS = secondsSince(start);
    pass.cpuS = processCpuSeconds() - cpu0;

    // Verification is timed in chunks: a whole pass verifies in a
    // fraction of a second, so one total would absorb any burst of
    // contention from other tenants, while a median over many chunks
    // of randomly ordered jobs does not.
    constexpr std::size_t kVerifyChunks = 16;
    OracleTally tally;
    std::vector<std::string> verdicts(results.size());
    for (std::size_t chunk = 0; chunk < kVerifyChunks; ++chunk) {
        std::size_t lo = results.size() * chunk / kVerifyChunks;
        std::size_t hi = results.size() * (chunk + 1) / kVerifyChunks;
        start = Clock::now();
        for (std::size_t i = lo; i < hi; ++i)
            verdicts[i] = checkResult(in.jobs[i], results[i], tally);
        if (hi > lo)
            pass.verifyUsPerJob.push_back(secondsSince(start) * 1e6 /
                                          static_cast<double>(hi - lo));
    }

    Counters &c = pass.counters;
    for (const char *name : {"core.compiled", "core.ii_attempts",
                             "core.partition_runs", "core.fallbacks",
                             "core.ii_over_mii"})
        c[name] = 0;
    pass.jobMs.resize(results.size());
    pass.jobKind.assign(results.size(), 0);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const CompileResult &r = results[i];
        pass.jobMs[i] = r.compileMs;
        if (!verdicts[i].empty())
            pass.fail(jobLabel(in.jobs[i]) + ": " + verdicts[i]);
        else if (reference &&
                 !sameSchedule(r.loop, (*reference)[i].loop))
            pass.fail(jobLabel(in.jobs[i]) +
                      ": schedule differs from the reference");
        if (!r.ok())
            continue;
        const CompiledLoop &loop = r.loop;
        // A list-scheduled record runs one iteration per flat
        // schedule, so that length is its effective II.
        int ii = loop.moduloScheduled ? loop.ii : loop.scheduleLength;
        c["core.ii_over_mii"] += ii - loop.mii;
        if (r.source != CompileSource::Compiled)
            continue;
        pass.jobKind[i] = loop.moduloScheduled ? 1 : 2;
        c["core.compiled"] += 1;
        c["core.ii_attempts"] += loop.scheduleAttempts;
        c["core.partition_runs"] += loop.partitionRuns;
        c["core.fallbacks"] += loop.moduloScheduled ? 0 : 1;
    }
    c["sched.validate.rejects"] = tally.validateRejects;
    c["sim.replayed"] = tally.replayed;
    c["sim.iterations_simulated"] = tally.iterations;
    c["sim.cycles_total"] = tally.simCycles;
    pass.ipcSum = tally.ipcSum;

    MetricRegistry local;
    MetricRegistry &registry = config.metrics ? *config.metrics : local;
    engine.exportStats(registry);
    // A duplicate that awaited an identical in-flight compile was
    // served by the memory layer too; counting it as a hit keeps the
    // count independent of the worker count.
    c["engine.result_cache.hits"] =
        counterValue(registry, "engine.cacheHits") +
        counterValue(registry, "engine.coalesced");
    c["engine.result_cache.misses"] =
        counterValue(registry, "engine.cacheMisses");
    c["engine.disk.hits"] = counterValue(registry, "disk.hits");
    c["engine.disk.misses"] = counterValue(registry, "disk.misses");
    c["engine.disk.stores"] = counterValue(registry, "disk.stores");

    if (config.phases) {
        pass.phases = engine.phaseTotals();
        auto calls = [&](const char *name, CompilePhase phase) {
            c[name] = static_cast<std::int64_t>(
                pass.phases.phase(phase).count);
        };
        calls("sched.modulo.calls", CompilePhase::ModuloSchedule);
        calls("sched.transfer.calls", CompilePhase::TransferPlanning);
        calls("sched.list.calls", CompilePhase::ListSchedule);
        calls("sched.mii.calls", CompilePhase::Mii);
        calls("partition.coarsen.calls", CompilePhase::Coarsen);
        calls("partition.refine.calls", CompilePhase::Refine);
        if (engine.diskCache())
            pass.residentBytes = engine.diskCache()->residentBytes();
    }
    return results;
}

/**
 * Reports each counter of @p a that @p b also has but with another
 * value; counters only one side collects are skipped.
 */
void
compareCounters(const Counters &a, const Counters &b,
                const std::string &what,
                std::vector<std::string> &mismatches)
{
    for (const auto &[name, value] : a) {
        auto it = b.find(name);
        if (it != b.end() && it->second != value)
            mismatches.push_back(what + ": " + name + " " +
                                 std::to_string(value) + " vs " +
                                 std::to_string(it->second));
    }
}

/** Times one layer's public function over a job subset. */
class LayerTimer
{
  public:
    explicit LayerTimer(TraceSink &sink) : sink_(sink) {}

    /** Runs @p body, records it as a span, returns microseconds. */
    template <typename Body>
    double
    time(const std::string &layer, Body &&body)
    {
        std::uint64_t t0 = traceNowNanos();
        body();
        std::uint64_t t1 = traceNowNanos();
        span(layer, t0, t1);
        return static_cast<double>(t1 - t0) * 1e-3;
    }

    /** Records [t0, t1) as a benchmark span on this thread. */
    void
    span(const std::string &name, std::uint64_t t0, std::uint64_t t1)
    {
        TraceEvent event;
        event.name = name;
        event.cat = "perfbench";
        event.pid = 0;
        event.tid = traceThreadId();
        event.tsNanos = t0;
        event.durNanos = t1 - t0;
        sink_.complete(std::move(event));
    }

  private:
    TraceSink &sink_;
};

double
perCall(double micros, std::size_t calls)
{
    return calls == 0 ? 0.0 : micros / static_cast<double>(calls);
}

/**
 * Per-call cost of each layer's public function, called once per job
 * on that job's inputs; a layer the workload's engine path never
 * calls reports 0.
 */
std::map<std::string, double>
timeLayers(const Inputs &in, Workload workload,
           const std::vector<CompileResult> &results,
           const std::string &warmDir, WorkDir &work, LayerTimer &timer,
           std::uint64_t &checksum)
{
    std::map<std::string, double> out;
    const std::vector<EngineJob> &jobs = in.jobs;

    std::vector<LoopKey> keys(jobs.size());
    out["engine.loop_key.us_per_call"] = perCall(
        timer.time("layer.loop_key",
                   [&] {
                       for (std::size_t i = 0; i < jobs.size(); ++i)
                           keys[i] = makeLoopKey(
                               *jobs[i].loop, *jobs[i].machine,
                               jobs[i].kind, jobs[i].options);
                   }),
        jobs.size());

    std::vector<std::size_t> compiled, partitioned, ok, modulo;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!results[i].ok())
            continue;
        ok.push_back(i);
        if (results[i].loop.moduloScheduled)
            modulo.push_back(i);
        if (results[i].source != CompileSource::Compiled)
            continue;
        compiled.push_back(i);
        if (jobs[i].kind != SchedulerKind::Uracam &&
            jobs[i].machine->numClusters() > 1)
            partitioned.push_back(i);
    }

    std::vector<int> mii(jobs.size(), 0);
    out["sched.mii.us_per_call"] = perCall(
        timer.time("layer.mii",
                   [&] {
                       for (std::size_t i : compiled)
                           mii[i] = computeMii(*jobs[i].loop,
                                               *jobs[i].machine);
                   }),
        compiled.size());
    out["graph.analysis.us_per_call"] = perCall(
        timer.time("layer.analysis",
                   [&] {
                       for (std::size_t i : compiled) {
                           DdgAnalysis analysis(
                               *jobs[i].loop,
                               jobs[i].machine->latencies(), mii[i]);
                           checksum += static_cast<std::uint64_t>(
                               analysis.scheduleLength());
                       }
                   }),
        compiled.size());
    out["partition.run.us_per_call"] = perCall(
        timer.time("layer.partition",
                   [&] {
                       for (std::size_t i : partitioned) {
                           GpPartitioner partitioner(
                               *jobs[i].machine,
                               jobs[i].options.partitioner);
                           checksum += static_cast<std::uint64_t>(
                               partitioner.run(*jobs[i].loop, mii[i])
                                   .iiBus);
                       }
                   }),
        partitioned.size());
    out["sched.list.us_per_call"] = perCall(
        timer.time("layer.list",
                   [&] {
                       for (std::size_t i : compiled)
                           checksum += static_cast<std::uint64_t>(
                               listSchedule(*jobs[i].loop,
                                            *jobs[i].machine)
                                   .scheduleLength);
                   }),
        compiled.size());

    out["engine.disk.lookup_us_per_call"] = 0.0;
    out["engine.disk.store_us_per_call"] = 0.0;
    out["serialize.encode_us_per_call"] = 0.0;
    out["serialize.decode_us_per_call"] = 0.0;
    out["serialize.record_bytes_mean"] = 0.0;
    if (workload != Workload::Specfp) {
        // The engine's disk path: a miss then a store on a cold
        // cache, a hit on a warm one.
        const bool cold = workload == Workload::FuzzCold;
        std::string dir = cold ? work.fresh("layer-disk") : warmDir;
        ::sync();
        DiskCache disk(dir, EngineOptions{}.cacheMaxBytes);
        CompiledLoop loaded;
        out["engine.disk.lookup_us_per_call"] = perCall(
            timer.time("layer.disk_lookup",
                       [&] {
                           for (std::size_t i : ok)
                               checksum += disk.lookup(keys[i], loaded);
                       }),
            ok.size());
        if (cold) {
            out["engine.disk.store_us_per_call"] = perCall(
                timer.time("layer.disk_store",
                           [&] {
                               for (std::size_t i : ok)
                                   disk.store(keys[i], results[i].loop);
                           }),
                ok.size());
            WorkDir::remove(dir);
        }

        std::vector<std::string> records(jobs.size());
        out["serialize.encode_us_per_call"] = perCall(
            timer.time("layer.encode",
                       [&] {
                           for (std::size_t i : ok)
                               records[i] = encodeCacheRecord(
                                   keys[i], results[i].loop);
                       }),
            ok.size());
        LoopKey key;
        out["serialize.decode_us_per_call"] = perCall(
            timer.time("layer.decode",
                       [&] {
                           for (std::size_t i : ok)
                               checksum += decodeCacheRecord(
                                   records[i], key, loaded);
                       }),
            ok.size());
        double bytes = 0.0;
        for (std::size_t i : ok)
            bytes += static_cast<double>(records[i].size());
        out["serialize.record_bytes_mean"] =
            ok.empty() ? 0.0 : bytes / static_cast<double>(ok.size());
    }

    out["sched.validate.us_per_call"] = perCall(
        timer.time("layer.validate",
                   [&] {
                       for (std::size_t i : modulo)
                           checksum += validateSchedule(
                                           *jobs[i].loop,
                                           *jobs[i].machine,
                                           results[i].loop)
                                           .valid;
                   }),
        modulo.size());
    out["sim.simulate.us_per_call"] = perCall(
        timer.time("layer.simulate",
                   [&] {
                       for (std::size_t i : ok)
                           checksum += static_cast<std::uint64_t>(
                               sim::simulate(*jobs[i].loop,
                                             *jobs[i].machine,
                                             results[i].loop)
                                   .simCycles);
                   }),
        ok.size());
    return out;
}

/**
 * Median of a registry histogram, interpolated linearly inside the
 * bucket that holds it: Histogram::quantile() returns the bucket's
 * bound, a power of two that would read the same on every run.
 */
double
histogramMedian(const Histogram &histogram)
{
    if (histogram.count() == 0)
        return 0.0;
    const double rank = 0.5 * static_cast<double>(histogram.count());
    double below = 0.0; // samples in lower buckets
    double lower = 0.0; // lower edge of the current bucket
    for (const Histogram::Bucket &bucket : histogram.buckets()) {
        const double count = static_cast<double>(bucket.count);
        if (count > 0 && below + count >= rank) {
            double lo = std::max(lower, histogram.min());
            double hi = std::min(bucket.upperBound, histogram.max());
            return lo + (hi - lo) * (rank - below) / count;
        }
        below += count;
        lower = bucket.upperBound;
    }
    return histogram.max();
}

/** Per-layer values read from the traced pass's telemetry. */
std::map<std::string, double>
telemetryLayers(const Pass &traced, MetricRegistry &registry,
                int workers)
{
    std::map<std::string, double> out;
    auto phase = [&](const char *name, CompilePhase p) {
        out[name] =
            static_cast<double>(traced.phases.phase(p).wallNanos) *
            1e-6;
    };
    phase("sched.modulo.ms", CompilePhase::ModuloSchedule);
    phase("sched.transfer.ms", CompilePhase::TransferPlanning);
    phase("sched.list.ms", CompilePhase::ListSchedule);
    phase("sched.mii.ms", CompilePhase::Mii);
    phase("partition.coarsen.ms", CompilePhase::Coarsen);
    phase("partition.refine.ms", CompilePhase::Refine);
    phase("partition.initial.ms", CompilePhase::InitialPartition);
    out["engine.disk.resident_mb"] =
        static_cast<double>(traced.residentBytes) / (1024.0 * 1024.0);

    // An inline pool (1 worker) runs every task on the submitting
    // thread: nothing waits and no worker is busy.
    out["engine.pool.task_wait_us_p50"] =
        histogramMedian(registry.histogram("pool.taskWaitMicros"));
    out["engine.pool.task_run_us_p50"] =
        histogramMedian(registry.histogram("pool.taskRunMicros"));
    double busyMicros = 0.0;
    if (workers > 1) {
        for (int w = 0; w < workers; ++w)
            busyMicros += static_cast<double>(
                registry
                    .counter("pool.worker." + std::to_string(w) +
                             ".busyMicros")
                    .value());
    }
    out["engine.pool.busy_share"] =
        workers > 1 ? busyMicros / (traced.wallS * 1e6 * workers) : 0.0;
    return out;
}

void
writeCounters(JsonWriter &json, const std::string &key,
              const Counters &counters)
{
    json.beginObject(key);
    for (const auto &[name, value] : counters)
        json.member(name, value);
    json.endObject();
}

long
peakRssKb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    const Workload workload = args.workload;
    const int workers = workloadWorkers(workload);
    WorkDir work(args.workDir);

    // Set-up: generate the inputs and, for fuzz-warm, fill the disk
    // cache. Repeated so set-up time is a median; the last one is kept.
    std::vector<double> setupS, fuzzGenMs;
    std::unique_ptr<Inputs> in;
    std::string warmDir;
    std::vector<CompileResult> fill;
    Clock::time_point setupStart = Clock::now();
    while (static_cast<int>(setupS.size()) < kMinSetups ||
           secondsSince(setupStart) < kMinSetupSeconds) {
        in.reset();
        fill.clear();
        if (!warmDir.empty())
            WorkDir::remove(warmDir);
        Clock::time_point start = Clock::now();
        in = makeInputs(args);
        if (workload == Workload::FuzzWarm) {
            warmDir = work.fresh("warm");
            EngineOptions options;
            options.jobs = workloadWorkers(Workload::FuzzCold);
            options.cacheDir = warmDir;
            fill = Engine(options).compileBatch(in->jobs);
        }
        setupS.push_back(secondsSince(start));
        fuzzGenMs.push_back(in->fuzzGenMs);
    }

    // Timed passes, untraced, until --seconds have been measured.
    std::vector<Pass> passes;
    std::vector<CompileResult> reference = std::move(fill);
    std::vector<std::string> violations;
    Clock::time_point measureStart = Clock::now();
    while (static_cast<int>(passes.size()) < kMaxPasses &&
           (static_cast<int>(passes.size()) < kMinPasses ||
            secondsSince(measureStart) < args.seconds)) {
        PassConfig config;
        config.workers = workers;
        if (workload == Workload::FuzzCold)
            config.cacheDir = work.fresh("cold");
        else if (workload == Workload::FuzzWarm)
            config.cacheDir = warmDir;
        Pass pass;
        std::vector<CompileResult> results = runPass(
            *in, config, reference.empty() ? nullptr : &reference,
            pass);
        if (workload == Workload::FuzzCold)
            WorkDir::remove(config.cacheDir);
        if (reference.empty())
            reference = std::move(results);
        if (!passes.empty()) {
            compareCounters(passes.front().counters, pass.counters,
                            "pass " + std::to_string(passes.size()),
                            violations);
            if (pass.ipcSum != passes.front().ipcSum)
                violations.push_back("pass " +
                                     std::to_string(passes.size()) +
                                     ": sim ipc sum differs");
        }
        passes.push_back(std::move(pass));
    }
    const double measuredS = secondsSince(measureStart);
    if (workload == Workload::FuzzWarm &&
        passes.front().counters.at("core.compiled") != 0)
        violations.push_back("fuzz-warm compiled jobs; every job must "
                             "be a disk hit");

    // Traced extras: a traced pass, a pass at the other worker
    // count, and the per-call layer timings.
    Pass traced;
    std::map<std::string, double> layers;
    std::uint64_t checksum = 0;
    std::int64_t extraAttempted = 0;
    std::int64_t extraFailed = 0;
    std::vector<std::string> extraFailures;
    if (args.trace) {
        MetricRegistry registry;
        TraceSink sink;
        sink.metadata("process_name", 0, 0, "perfbench");
        LayerTimer timer(sink);

        PassConfig config;
        config.workers = workers;
        config.metrics = &registry;
        config.trace = &sink;
        config.phases = true;
        if (workload == Workload::FuzzCold)
            config.cacheDir = work.fresh("traced");
        else if (workload == Workload::FuzzWarm)
            config.cacheDir = warmDir;
        std::uint64_t t0 = traceNowNanos();
        std::vector<CompileResult> results =
            runPass(*in, config, &reference, traced);
        timer.span("pass.traced", t0, traceNowNanos());
        compareCounters(passes.front().counters, traced.counters,
                        "traced pass", violations);
        if (workload == Workload::FuzzWarm && !traced.phases.empty())
            violations.push_back("fuzz-warm ran compile phases");
        extraAttempted += static_cast<std::int64_t>(in->jobs.size());
        extraFailed += traced.failed;
        extraFailures.insert(extraFailures.end(),
                             traced.failures.begin(),
                             traced.failures.end());

        layers = telemetryLayers(traced, registry, workers);
        std::map<std::string, double> outside = timeLayers(
            *in, workload, results, warmDir, work, timer, checksum);
        layers.insert(outside.begin(), outside.end());
        if (workload == Workload::FuzzCold)
            WorkDir::remove(config.cacheDir);

        if (workload != Workload::FuzzWarm) {
            PassConfig other;
            other.workers = workers == 1 ? 2 : 1;
            other.phases = true;
            if (workload == Workload::FuzzCold)
                other.cacheDir = work.fresh("other");
            Pass pass;
            t0 = traceNowNanos();
            runPass(*in, other, &reference, pass);
            timer.span("pass.other_workers", t0, traceNowNanos());
            if (workload == Workload::FuzzCold)
                WorkDir::remove(other.cacheDir);
            compareCounters(traced.counters, pass.counters,
                            std::to_string(other.workers) +
                                "-worker pass",
                            violations);
            extraAttempted += static_cast<std::int64_t>(in->jobs.size());
            extraFailed += pass.failed;
            extraFailures.insert(extraFailures.end(),
                                 pass.failures.begin(),
                                 pass.failures.end());
        }
        if (!args.traceOut.empty()) {
            std::ofstream os(args.traceOut);
            sink.writeJson(os);
            if (!os) {
                std::cerr << "perfbench: cannot write "
                          << args.traceOut << "\n";
                return 1;
            }
        }
    }

    std::ofstream os(args.out);
    JsonWriter json(os, 0);
    json.beginObject();
    json.member("schema", 1);
    json.beginObject("stamp");
    json.member("workload", workloadName(workload));
    json.member("seed", static_cast<std::uint64_t>(args.seed));
    char corpusSeed[32] = "none";
    if (workload != Workload::Specfp)
        std::snprintf(corpusSeed, sizeof(corpusSeed), "0x%llx",
                      static_cast<unsigned long long>(kCorpusSeed));
    json.member("corpus_seed", corpusSeed);
    json.member("loops", static_cast<int>(in->loops.size()));
    json.member("machines", static_cast<int>(in->machines.size()));
    json.member("jobs", static_cast<int>(in->jobs.size()));
    json.member("workers", workers);
    json.member("nproc",
                static_cast<int>(std::thread::hardware_concurrency()));
    json.member("compiler", PERFBENCH_COMPILER);
    json.member("build_type", PERFBENCH_BUILD_TYPE);
    json.member("trace", args.trace);
    json.member("seconds", args.seconds);
    json.member("measured_s", measuredS);
    json.endObject();

    json.beginArray("setup_s");
    for (double s : setupS)
        json.element(s);
    json.endArray();
    json.beginArray("fuzz_gen_ms");
    for (double ms : fuzzGenMs)
        json.element(ms);
    json.endArray();

    std::int64_t attempted = extraAttempted;
    std::int64_t failed = extraFailed;
    json.beginArray("passes");
    for (const Pass &pass : passes) {
        attempted += static_cast<std::int64_t>(pass.jobMs.size());
        failed += pass.failed;
        json.beginObject();
        json.member("wall_s", pass.wallS);
        json.member("cpu_s", pass.cpuS);
        json.beginArray("verify_us_per_job");
        for (double us : pass.verifyUsPerJob)
            json.element(us);
        json.endArray();
        json.member("failed", pass.failed);
        json.endObject();
    }
    json.endArray();
    json.beginArray("job_ms");
    for (const Pass &pass : passes) {
        json.beginArray();
        for (double ms : pass.jobMs)
            json.element(ms);
        json.endArray();
    }
    json.endArray();
    json.beginArray("job_kind");
    for (int kind : passes.front().jobKind)
        json.element(kind);
    json.endArray();

    const Pass &first = passes.front();
    writeCounters(json, "counters",
                  args.trace ? traced.counters : first.counters);
    json.member("ipc_mean",
                first.ipcSum / static_cast<double>(in->jobs.size()));
    json.member("attempted", attempted);
    json.member("failed", failed);
    json.beginArray("failures");
    for (const Pass &pass : passes)
        for (const std::string &f : pass.failures)
            json.element(f);
    for (const std::string &f : extraFailures)
        json.element(f);
    json.endArray();
    json.beginArray("violations");
    for (const std::string &m : violations)
        json.element(m);
    json.endArray();
    json.member("peak_rss_kb", static_cast<std::int64_t>(peakRssKb()));
    if (args.trace) {
        std::vector<double> walls;
        for (const Pass &pass : passes)
            walls.push_back(pass.wallS);
        std::sort(walls.begin(), walls.end());
        std::size_t n = walls.size();
        double median = n % 2 ? walls[n / 2]
                              : 0.5 * (walls[n / 2 - 1] + walls[n / 2]);
        layers["support.trace_overhead"] = traced.wallS / median - 1.0;
        json.beginObject("layers");
        for (const auto &[name, value] : layers)
            json.member(name, value);
        json.endObject();
        json.member("layer_checksum", checksum);
    }
    json.endObject();
    os << "\n";
    if (!os) {
        std::cerr << "perfbench: cannot write " << args.out
                  << "\n";
        return 1;
    }
    return 0;
}
