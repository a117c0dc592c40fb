/**
 * @file
 * Shared plumbing for the paper-reproduction bench harnesses: run
 * the synthetic SPECfp95 suite under every scheme on one machine and
 * print per-program IPC rows the way Figures 2/3 report them.
 *
 * Every driver accepts --smoke (tiny workload for CTest), --jobs N
 * (worker threads of the batch engine; 0 = hardware concurrency),
 * --json PATH (machine-readable report; "-" for stdout),
 * --machines LIST (comma-separated registry names or .machine file
 * paths replacing the driver's default machine sweep, so every
 * figure and ablation runs on arbitrary configurations) and
 * --cache-dir PATH (the persistent compile cache, so repeated bench
 * runs are served from disk; cold/warm disk stats land in the JSON
 * report). Panels run through one shared Engine so the fingerprint
 * cache dedupes identical loop shapes across panels and schemes.
 */

#ifndef GPSCHED_BENCH_COMMON_HH
#define GPSCHED_BENCH_COMMON_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hh"
#include "engine/engine.hh"
#include "machine/machine.hh"
#include "support/args.hh"

namespace gpsched::bench
{

/** Command-line options shared by every bench driver. */
struct BenchOptions
{
    /**
     * Smoke mode (--smoke): shrink the workload to a couple of
     * loops so CTest can exercise the whole driver in well under a
     * second. Numbers printed in this mode are meaningless; the mode
     * exists so perf drivers cannot silently bit-rot.
     */
    bool smoke = false;

    /**
     * Engine worker threads (--jobs N). 1 keeps the historical
     * serial behaviour; 0 asks for hardware concurrency.
     */
    int jobs = 1;

    /** Machine-readable report path (--json PATH; "-" = stdout). */
    std::string jsonPath;

    /**
     * Machine sweep override (--machines a,b,...): registry names or
     * `.machine` file paths. Empty = the driver's default sweep.
     */
    std::vector<std::string> machines;

    /**
     * Persistent compile cache directory (--cache-dir PATH); empty
     * disables the disk layer.
     */
    std::string cacheDir;

    /**
     * Replay gate (--replay): every compiled loop of every suite run
     * is re-executed through the cycle-accurate simulator
     * (sim/replay.hh) and the run dies if any execution disagrees
     * with the estimator's claimed II/cycles/IPC. The golden figure
     * and corpus runs have this on, so the published figures are
     * backed by simulated executions, not just the estimator's
     * arithmetic.
     */
    bool replay = false;

    /** Iteration counts for repeated-measurement benches. */
    int
    reps(int full) const
    {
        return smoke ? 1 : full;
    }

    /** Engine configuration honouring --jobs. */
    EngineOptions engineOptions() const;
};

/**
 * Parses argv: the flags above, plus any a driver declares through
 * @p declareExtra. --help prints the usage and exits 0; anything
 * else unknown exits 2 (support/args.hh).
 */
BenchOptions parseBenchArgs(
    int argc, char **argv,
    const std::function<void(ArgParser &)> &declareExtra = nullptr);

/**
 * The --replay gate on one suite result: replays every compiled
 * loop of @p result on @p machine (sim/replay.hh), prints the
 * replay summary tagged @p what, and dies on any mismatch between
 * the simulated execution and the estimator's claims. No-op when
 * @p enabled is false, so call sites can pass options.replay
 * straight through.
 */
void replaySuiteOrDie(bool enabled,
                      const std::vector<Program> &suite,
                      const SuiteResult &result,
                      const MachineConfig &machine,
                      const std::string &what);

/**
 * The driver's machine sweep: every --machines entry resolved
 * through the registry (names or `.machine` paths), or @p fallback
 * when the flag was absent.
 */
std::vector<MachineConfig>
benchMachines(const BenchOptions &options,
              const std::vector<MachineConfig> &fallback);

/**
 * Runs @p emit against the --json destination through writeOutput
 * (support/output.hh): std::cout for "-", the file for a path (fatal
 * when it cannot be written), not at all when --json was absent.
 */
void withJsonStream(const BenchOptions &options,
                    const std::function<void(std::ostream &)> &emit);

/**
 * The bench workload: the full synthetic SPECfp95 suite, or a small
 * deterministic subset of it (first programs, first loops) in smoke
 * mode.
 */
std::vector<Program> benchSuite(const LatencyTable &lat,
                                const BenchOptions &options);

/** Per-program IPC of the four evaluated bars. */
struct FigureRow
{
    std::string program;
    double unified = 0.0;
    double uracam = 0.0;
    double fixed = 0.0;
    double gp = 0.0;
};

/** One figure panel: a clustered machine and its four bars. */
struct FigurePanel
{
    std::string title;
    std::vector<FigureRow> rows; ///< per program + trailing average

    /** Per scheme ("unified", "uracam", "fixed", "gp"): every
     *  compiled loop of the suite folded through scheduleDigest
     *  (serialize/record.hh) in suite order. */
    std::vector<std::pair<std::string, std::uint64_t>> digests;
};

/**
 * Compiles @p suite with the unified baseline (same total registers)
 * and with URACAM / Fixed / GP on @p clustered, producing the rows
 * of one Figure-2/3 panel. All four compilations run as batches on
 * @p engine. With @p replay, every compiled loop of all four runs is
 * re-executed through the simulator (fatal on any mismatch).
 */
FigurePanel runPanel(Engine &engine,
                     const std::vector<Program> &suite,
                     const MachineConfig &clustered,
                     const std::string &title,
                     const LoopCompilerOptions &options = {},
                     bool replay = false);

/** Prints @p panel as an aligned table with a gain summary. */
void printPanel(const FigurePanel &panel);

/**
 * Writes @p panels as a JSON report (schemaVersion, per-panel rows
 * and schedule digests, engine/cache statistics) to @p os.
 */
void writePanelsJson(std::ostream &os, const std::string &benchName,
                     const std::vector<FigurePanel> &panels,
                     const Engine &engine);

/**
 * Honors --json: writes the report to options.jsonPath ("-" =
 * stdout, empty = no-op). Fatal when the file cannot be opened.
 */
void emitPanelsJson(const BenchOptions &options,
                    const std::string &benchName,
                    const std::vector<FigurePanel> &panels,
                    const Engine &engine);

/**
 * Generic machine-readable mirror of a bench's printed table: rows
 * of string labels plus numeric values, so every driver (figures and
 * ablations alike) writes one JSON shape. The shape — and the
 * engine/cache statistics block appended to every report — is
 * documented field by field in docs/ARCHITECTURE.md ("Benches and
 * the JSON report schemas"); tier-1 compares each deterministic
 * report with its committed golden under tests/golden/.
 */
struct MetricRow
{
    std::vector<std::string> labels;
    std::vector<double> values;
};

/** One labeled table of a bench report. */
struct MetricTable
{
    std::string title;
    std::vector<std::string> labelColumns;
    std::vector<std::string> valueColumns;
    std::vector<MetricRow> rows;

    /** Appends a row (label/value arities must match the columns). */
    void addRow(std::vector<std::string> labels,
                std::vector<double> values);
};

/**
 * Writes @p tables as a JSON report (schemaVersion, per-table rows,
 * engine/cache statistics when @p engine is non-null) to @p os.
 */
void writeMetricTablesJson(std::ostream &os,
                           const std::string &benchName,
                           const std::vector<MetricTable> &tables,
                           const Engine *engine);

/** Honors --json for MetricTable reports (see emitPanelsJson). */
void emitMetricTablesJson(const BenchOptions &options,
                          const std::string &benchName,
                          const std::vector<MetricTable> &tables,
                          const Engine *engine);

} // namespace gpsched::bench

#endif // GPSCHED_BENCH_COMMON_HH
