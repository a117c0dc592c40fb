/**
 * @file
 * Corpus-scale differential fuzzing of the whole compile pipeline.
 *
 * Three pieces, shared by `gpsched fuzz`, the regression tests and
 * the nightly sweep:
 *
 *  - a seeded, shape-parameterized corpus generator that promotes
 *    the property tests' randomLoop into a standing adversary:
 *    every case draws a shape class (plain random bodies, deep
 *    multi-distance recurrences, near-zero-slack recurrence chains,
 *    store-heavy tails, wide-fanout producers, latency-inflated
 *    edges with extreme trip counts) and emits a valid DDG, so the
 *    schedulers face loops nobody hand-tuned for;
 *
 *  - a differential harness (runFuzzCase) that compiles one loop
 *    under all three schemes on a machine list and holds every
 *    compiled record to the two-oracle contract of
 *    sim::verifyCompiled (sim/replay.hh);
 *
 *  - a greedy minimizer (minimizeDdg) that shrinks a failing loop by
 *    chunked node deletion and per-edge deletion, re-running the
 *    caller's failure predicate after every candidate cut, so a
 *    corpus-sized failure becomes a pinnable few-node reproducer;
 *
 *  - the corpus sweep (runSweep) behind `gpsched fuzz sweep`: every
 *    case through runFuzzCase in parallel, then each failing case
 *    minimized and written as .orig.ddg/.min.ddg/.repro artifacts.
 *
 * Corruption injection (ScheduleCorruption) deliberately damages a
 * compiled record between the compiler and the oracles; it exists so
 * the harness can prove — in CTest and nightly CI — that a corrupt
 * schedule is caught, minimized and reproduced end to end.
 */

#ifndef GPSCHED_WORKLOAD_FUZZ_HH
#define GPSCHED_WORKLOAD_FUZZ_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "core/gp_scheduler.hh"
#include "graph/ddg.hh"
#include "machine/machine.hh"

namespace gpsched::fuzz
{

/** Shape family of one generated case. */
enum class ShapeClass : std::uint8_t
{
    Random,         ///< randomLoop with widened knob ranges
    DeepRecurrence, ///< carried-edge-dense, distances up to 8
    NearZeroSlack,  ///< recurrence chain whose RecMII leaves ~0 slack
    StoreHeavyTail, ///< few defs feeding a mem-port-saturating tail
    WideFanout,     ///< few producers, dozens of consumers each
    LatencyStress,  ///< inflated edge latencies + extreme trip counts
    NumShapes
};

/** Stable printable name ("random", "deep-recurrence", ...). */
const char *toString(ShapeClass shape);

/** One generated case: the loop plus how to regenerate it. */
struct FuzzCase
{
    /** Per-case seed (drawn from the corpus master stream). */
    std::uint64_t seed = 0;

    /** Index within its corpus. */
    int index = 0;

    ShapeClass shape = ShapeClass::Random;

    Ddg ddg;
};

/**
 * Case @p index of the corpus keyed by @p corpusSeed. Case seeds are
 * drawn from one master stream, so corpora with the same seed share
 * a prefix: growing GPSCHED_FUZZ_LOOPS only appends cases. The shape
 * class and every knob are drawn from the case seed alone, so the
 * corpus seed and index regenerate the exact graph.
 */
FuzzCase corpusCase(std::uint64_t corpusSeed, int index,
                    const LatencyTable &lat);

/** Per-case seeds of the corpus keyed by @p corpusSeed. */
std::vector<std::uint64_t> corpusSeeds(std::uint64_t corpusSeed,
                                       int count);

/**
 * Writes cases [0, count) of the corpus as a multi-DDG `.ddg` stream
 * (graph/textio.hh blocks), loadable by `gpsched compile` and
 * `gpsched fuzz repro`.
 */
void writeCorpus(std::ostream &os, std::uint64_t corpusSeed,
                 int count, const LatencyTable &lat);

/** One machine of the fuzz sweep, with the spec string that
 *  re-resolves it (a registry name for presets, the `.machine` file
 *  path for corpus machines) — what a reproducer command line must
 *  carry, since corpus machines are not registry-addressable by
 *  name. */
struct FuzzMachine
{
    std::string spec;
    MachineConfig config;
};

/**
 * The standard fuzz machine list: the three Table-1 presets the
 * property tests sweep plus every `.machine` file under
 * @p machinesDir (13 machines for the shipped examples/machines/).
 * An empty @p machinesDir yields just the presets.
 */
std::vector<FuzzMachine> fuzzMachines(const std::string &machinesDir);

/** Strips the FuzzMachine wrappers down to the configs. */
std::vector<MachineConfig>
fuzzConfigs(const std::vector<FuzzMachine> &machines);

/** What a differential check found on one (machine, scheme) pair:
 *  sim::VerdictKind plus the compile step in front of it. */
enum class FuzzVerdict : std::uint8_t
{
    Pass,
    CompileRejected,  ///< CompileError from a generated (valid) loop
    OracleDisagree,   ///< validator and simulator verdicts differ
    ScheduleRejected, ///< the oracles reject a compiled schedule
    MetricMismatch,   ///< replayed II/cycles/IPC != compiler's claim
};

/** Stable printable name ("pass", "oracle-disagree", ...). */
const char *toString(FuzzVerdict verdict);

/** Deliberate damage applied to a compiled record before the
 *  oracles run (the harness's own canary). */
enum class ScheduleCorruption : std::uint8_t
{
    None,

    /** First placement moved to a nonexistent cluster: both oracles
     *  must reject (MalformedSchedule / range check). Applies only
     *  to modulo-scheduled records; list-scheduled fallbacks carry
     *  no placements to damage. */
    ClusterOutOfRange,

    /** Reported cycle count off by one: the replay must expose the
     *  estimator mismatch (MetricMismatch). */
    CyclesOffByOne,
};

/** Stable flag name ("none", "cluster", "cycles"). */
const char *toString(ScheduleCorruption corruption);

/** One two-oracle violation. */
struct FuzzFailure
{
    std::string loopName;
    std::string machine; ///< MachineConfig::name()
    SchedulerKind scheme = SchedulerKind::Gp;
    FuzzVerdict kind = FuzzVerdict::Pass;
    std::string detail;

    /** "loop @ machine/scheme: kind — detail" one-liner. */
    std::string toString() const;
};

/** Outcome of one loop swept across machines x schemes. */
struct FuzzCaseResult
{
    /** (machine, scheme) pairs that produced a compiled record. */
    int pairsCompiled = 0;

    /** Pairs whose record was a modulo schedule (both oracles ran;
     *  the rest replayed the list-scheduled cycle model only). */
    int moduloScheduled = 0;

    /** scheduleDigest of each pair's record before any corruption,
     *  machine-major in the order of the machine list, then URACAM,
     *  Fixed, GP; 0 for a pair whose compile was rejected. */
    std::vector<std::uint64_t> digests;

    std::vector<FuzzFailure> failures;

    bool ok() const { return failures.empty(); }
};

/**
 * Compiles @p ddg under all three schemes on every machine of
 * @p machines and applies the two-oracle differential contract to
 * each record (with @p corruption injected first, when requested).
 * Never throws on a rejected input — a CompileError becomes a
 * CompileRejected failure, because generator output is valid by
 * construction and an import path rejects before reaching here.
 */
FuzzCaseResult
runFuzzCase(const Ddg &ddg,
            const std::vector<MachineConfig> &machines,
            ScheduleCorruption corruption = ScheduleCorruption::None);

/** Injects @p corruption into @p loop (no-op for None, and for
 *  ClusterOutOfRange on records without placements). */
void corruptLoop(CompiledLoop &loop, ScheduleCorruption corruption);

/** Minimization bookkeeping. */
struct MinimizeStats
{
    int nodesBefore = 0;
    int nodesAfter = 0;
    int edgesBefore = 0;
    int edgesAfter = 0;

    /** Failure-predicate evaluations (oracle re-runs). */
    int probes = 0;
};

/**
 * Greedily shrinks @p ddg while @p stillFails holds: chunked node
 * deletion (delta-debugging style, chunk halving from n/2 to 1,
 * incident edges dropped and ids remapped) to a fixpoint, then
 * per-edge deletion, repeated until neither pass makes progress or
 * @p maxProbes predicate evaluations have run. @p stillFails must
 * accept the input graph itself; every intermediate and the result
 * are graphs the predicate confirmed failing.
 */
Ddg minimizeDdg(const Ddg &ddg,
                const std::function<bool(const Ddg &)> &stillFails,
                MinimizeStats *stats = nullptr,
                int maxProbes = 20000);

/** Failing cases a sweep minimizes; the rest are only counted, so
 *  one systemic failure cannot turn a sweep into hours of
 *  minimization. */
constexpr std::size_t kMaxMinimized = 10;

/** What runSweep sweeps and where it records failures. */
struct SweepOptions
{
    std::uint64_t seed = 0;
    int count = 0;
    int jobs = 1;
    ScheduleCorruption corruption = ScheduleCorruption::None;

    /** Artifact directory, created on the first failure. */
    std::string failuresDir = "fuzz-failures";

    /** The executable a `.repro` line runs; made absolute. */
    std::string tool = "gpsched";
};

/** One failing corpus case. */
struct SweepFailure
{
    FuzzCase fuzzCase;
    std::vector<FuzzFailure> failures; ///< every failing pair

    /** The pair minimization keeps failing. */
    const FuzzFailure &first() const { return failures.front(); }

    /** Set for the minimized cases only. */
    MinimizeStats stats;
    std::string minPath;   ///< <failuresDir>/<stem>.min.ddg
    std::string origPath;  ///< <failuresDir>/<stem>.orig.ddg
    std::string reproPath; ///< <failuresDir>/<stem>.repro
};

/** The schedules one (machine, scheme) pair produced over a corpus. */
struct PairDigest
{
    std::string machine; ///< MachineConfig::name()
    SchedulerKind scheme = SchedulerKind::Gp;

    /** The pair's per-case digests folded by FNV-1a in corpus
     *  order, so it does not depend on the worker count. */
    std::uint64_t digest = 0;
};

/** What a sweep found. */
struct SweepSummary
{
    long pairsCompiled = 0;
    long moduloScheduled = 0;

    /** One per (machine, scheme) pair, in runFuzzCase's order. */
    std::vector<PairDigest> digests;

    /** Failing cases in corpus order; the first kMaxMinimized of
     *  them were minimized and have artifacts. */
    std::vector<SweepFailure> failures;

    bool ok() const { return failures.empty(); }
};

/**
 * Sweeps cases [0, count) of the corpus keyed by options.seed across
 * @p machines x the three schemes with runFuzzCase on options.jobs
 * workers, and digests each pair's schedules. Each of the first
 * kMaxMinimized failing cases is shrunk with minimizeDdg (on its
 * failing machine, keeping its first failure's scheme and verdict)
 * and written to options.failuresDir:
 * the original and minimized loops as `.orig.ddg`/`.min.ddg` and a
 * `.repro` line running `<tool> fuzz repro` on the minimized loop.
 * Fatal when the directory or an artifact cannot be written.
 */
SweepSummary runSweep(const std::vector<FuzzMachine> &machines,
                      const SweepOptions &options);

} // namespace gpsched::fuzz

#endif // GPSCHED_WORKLOAD_FUZZ_HH
