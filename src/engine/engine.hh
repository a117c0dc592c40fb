/**
 * @file
 * Batch compilation engine: the parallel execution front of gpsched.
 *
 * The paper's evaluation compiles every profiled innermost loop of
 * ten SPECfp95 programs under multiple schemes and machines — an
 * embarrassingly parallel batch of independent (loop, machine,
 * scheme, options) jobs. The engine runs such batches on a fixed
 * thread pool and memoizes results in a fingerprint-keyed LRU cache
 * (see loop_key.hh / result_cache.hh), so repeated loop shapes across
 * programs, schemes and parameter sweeps are compiled once.
 *
 * Results are returned in submission order, and every per-loop
 * compilation is a pure function of its job description, so a batch
 * compiled with 1 job and with N jobs produces bit-identical
 * schedules.
 *
 * Failures are per-loop, never per-batch: a job whose input is
 * rejected (CompileError, support/compile_error.hh) yields a
 * CompileResult carrying the diagnostic in its submission slot while
 * every other job completes normally. Failed compiles are never
 * published to the in-memory or persistent cache (errors are not
 * negatively cached — a retry of the same key recompiles), and
 * duplicates coalesced onto a failing owner observe the owner's
 * error re-labelled with their own loop name.
 */

#ifndef GPSCHED_ENGINE_ENGINE_HH
#define GPSCHED_ENGINE_ENGINE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/gp_scheduler.hh"
#include "engine/disk_cache.hh"
#include "engine/result_cache.hh"
#include "engine/thread_pool.hh"
#include "graph/ddg.hh"
#include "machine/machine.hh"
#include "support/compile_error.hh"
#include "support/telemetry.hh"

namespace gpsched
{

/** Engine configuration. */
struct EngineOptions
{
    /** Worker threads; 0 selects hardware_concurrency, 1 is serial
     *  inline execution (no threads spawned). */
    int jobs = 0;

    /** Memoize results keyed by loop fingerprint. */
    bool cacheEnabled = true;

    /** Total result-cache entries. */
    std::size_t cacheCapacity = 1 << 16;

    /** Result-cache lock stripes. */
    std::size_t cacheShards = 16;

    /**
     * Persistent cache directory (engine/disk_cache.hh), layered
     * under the in-memory cache so results survive across runs and
     * processes. Empty disables the disk layer. Requires
     * cacheEnabled.
     */
    std::string cacheDir;

    /** Disk-cache resident-size budget in bytes; 0 = unlimited. */
    std::uint64_t cacheMaxBytes = 256ull << 20;

    /**
     * Metric destination shared with the thread pool (queue depth,
     * task wait/run, per-worker utilization) and exportStats().
     * Null disables; must outlive the engine.
     */
    MetricRegistry *metrics = nullptr;

    /**
     * Chrome trace destination: compile/cache-probe/disk spans on
     * worker tids plus queue-wait async spans, all under this
     * engine's pid. Null disables; must outlive the engine.
     */
    TraceSink *trace = nullptr;

    /**
     * Record a per-compile phase breakdown (CompileResult::trace)
     * and aggregate it into phaseTotals(). Implied by a non-null
     * trace sink. Observation-only: schedules are bit-identical
     * either way.
     */
    bool collectPhases = false;
};

/** Serial, cache-less configuration (the legacy pipeline path). */
EngineOptions serialEngineOptions();

/** One unit of work: compile @p loop for @p machine with one scheme. */
struct EngineJob
{
    /** Loop to compile; must outlive the batch call. */
    const Ddg *loop = nullptr;

    /** Target machine; must outlive the batch call. */
    const MachineConfig *machine = nullptr;

    SchedulerKind kind = SchedulerKind::Gp;
    LoopCompilerOptions options;
};

/** How a job's result was obtained. */
enum class CompileSource : std::uint8_t
{
    Compiled, ///< compiled fresh on this engine
    Memory,   ///< in-memory ResultCache hit
    Disk,     ///< persistent DiskCache hit
    Coalesced ///< awaited an identical in-flight compilation
};

/** Stable JSON name: "compiled" | "memory" | "disk" | "coalesced". */
const char *compileSourceName(CompileSource source);

/**
 * Per-job outcome: either a schedule or a diagnostic, never both.
 * The batch analogue of "a result row": failures occupy their
 * submission slot so downstream consumers can match results to jobs
 * positionally.
 */
struct CompileResult
{
    /** The compiled schedule; meaningful iff ok(). */
    CompiledLoop loop;

    /** The per-loop diagnostic; set iff the compile failed. */
    std::optional<CompileError> error;

    /** How this result was obtained (failures: path that failed). */
    CompileSource source = CompileSource::Compiled;

    /**
     * Wall time this job spent in the engine, milliseconds: compile
     * time for fresh compiles, probe/wait time for cache hits and
     * coalesced duplicates. Always measured (two monotonic clock
     * reads), independent of telemetry options.
     */
    double compileMs = 0.0;

    /**
     * Phase breakdown of this job's own compilation; empty() unless
     * the engine ran with collectPhases/trace AND this job actually
     * compiled (cache hits describe no new work).
     */
    CompileTrace trace;

    bool ok() const { return !error.has_value(); }

    static CompileResult success(CompiledLoop compiled)
    {
        CompileResult result;
        result.loop = std::move(compiled);
        return result;
    }

    static CompileResult failure(CompileError diagnostic)
    {
        CompileResult result;
        result.error = std::move(diagnostic);
        return result;
    }
};

/** Aggregate engine counters. */
struct EngineStats
{
    std::uint64_t jobsSubmitted = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;

    /** Jobs that awaited an identical in-flight compilation instead
     *  of compiling (duplicates submitted concurrently). Every
     *  unique key is compiled exactly once: cacheMisses counts the
     *  actual compilations. */
    std::uint64_t coalesced = 0;

    /** In-memory misses served by the persistent cache. */
    std::uint64_t diskHits = 0;

    /** Disk probes that found no (valid) record. */
    std::uint64_t diskMisses = 0;

    /** Records published to the persistent cache. */
    std::uint64_t diskStores = 0;

    /** Malformed/stale on-disk records evicted during lookups. */
    std::uint64_t corruptEvicted = 0;

    /** Jobs that returned a diagnostic instead of a schedule
     *  (counted per job: a coalesced duplicate observing its
     *  owner's failure counts too). Failed compiles are never
     *  cached, in memory or on disk. */
    std::uint64_t failed = 0;

    /** cacheHits / jobsSubmitted; 0 before any job ran. */
    double hitRate() const;

    /** diskHits / (diskHits + diskMisses); 0 before any probe. */
    double diskHitRate() const;
};

/** Thread-pool batch scheduler with a fingerprint result cache. */
class Engine
{
  public:
    explicit Engine(EngineOptions options = {});

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /**
     * Compiles every job of @p batch concurrently and returns the
     * per-job results in submission order. A failed job yields a
     * diagnostic CompileResult in its slot; the batch always runs
     * to completion.
     */
    std::vector<CompileResult> compileBatch(
        const std::vector<EngineJob> &batch);

    /** Compiles one job on the calling thread (cache still used). */
    CompileResult compileOne(const EngineJob &job);

    /** Effective worker count (>= 1). */
    int jobs() const { return jobs_; }

    /** Lifetime counters. */
    EngineStats stats() const;

    /**
     * Batch-aggregated phase breakdown (every compile this engine
     * ran with collectPhases/trace on). Empty when phase collection
     * was off.
     */
    CompileTrace phaseTotals() const;

    /**
     * Snapshots the lifetime counters (and phase totals, when
     * collected) into @p registry under engine.* / disk.* / phase.*
     * — the MetricRegistry view of stats(). Counters are set, not
     * added, so repeated exports stay idempotent.
     */
    void exportStats(MetricRegistry &registry) const;

    /** This engine's pid in emitted Chrome trace events. */
    std::uint32_t tracePid() const { return pid_; }

    /** The result cache (for capacity/size introspection). */
    const ResultCache &cache() const { return cache_; }

    /** The persistent cache; nullptr when no cacheDir was given. */
    const DiskCache *diskCache() const { return disk_.get(); }

    /** Drops all in-memory cached results (counters and the
     *  persistent store are kept). */
    void clearCache() { cache_.clear(); }

  private:
    CompileResult runJob(const EngineJob &job);
    CompileResult runJobImpl(const EngineJob &job,
                             CompileSource &source,
                             CompileTrace &trace);

    EngineOptions options_;
    int jobs_;
    std::uint32_t pid_; ///< trace pid; must init before pool_
    ThreadPool pool_;
    ResultCache cache_;

    /** Persistent layer under the in-memory cache; may be null. */
    std::unique_ptr<DiskCache> disk_;

    /** Compilations currently running, keyed by canonical LoopKey.
     *  A duplicate submission awaits the owner's shared future
     *  instead of compiling; the owner publishes to the cache before
     *  retiring its entry, so every unique key compiles once. */
    std::mutex inflightMutex_;
    std::unordered_map<std::string, std::shared_future<CompiledLoop>>
        inflight_;

    /** Batch-aggregated phase totals (collectPhases/trace only). */
    mutable std::mutex totalsMutex_;
    CompileTrace totals_;

    std::atomic<std::uint64_t> jobsSubmitted_{0};
    std::atomic<std::uint64_t> cacheHits_{0};
    std::atomic<std::uint64_t> cacheMisses_{0};
    std::atomic<std::uint64_t> coalesced_{0};
    std::atomic<std::uint64_t> failed_{0};
};

} // namespace gpsched

#endif // GPSCHED_ENGINE_ENGINE_HH
