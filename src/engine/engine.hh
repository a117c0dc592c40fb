/**
 * @file
 * Batch compilation engine: the parallel execution front of gpsched.
 *
 * The paper's evaluation compiles every profiled innermost loop of
 * ten SPECfp95 programs under multiple schemes and machines — an
 * embarrassingly parallel batch of independent (loop, machine,
 * scheme, options) jobs. The engine runs such batches on a fixed
 * thread pool and memoizes them in one result table keyed by the
 * job's fingerprint (see loop_key.hh), so repeated loop shapes across
 * programs, schemes and parameter sweeps are compiled once.
 *
 * Results are returned in submission order, and every per-loop
 * compilation is a pure function of its job description, so a batch
 * compiled with 1 job and with N jobs produces bit-identical
 * schedules.
 *
 * Within one batch, the jobs of one loop on one machine share a
 * LoopPrelude (core/gp_scheduler.hh): whatever their scheme, they
 * compute the MII and the partition at the MII once. A prelude lives
 * at most as long as its batch call.
 *
 * Failures are per-loop, never per-batch: a job whose input is
 * rejected (CompileError, support/compile_error.hh) yields a
 * CompileResult carrying the diagnostic in its submission slot while
 * every other job completes normally. Failed compiles leave no
 * entry in the result table and nothing on disk (errors are not
 * negatively cached — a retry of the same key recompiles), and
 * duplicates coalesced onto a failing owner, like the jobs sharing a
 * failing prelude, observe the error re-labelled with their own loop
 * name.
 */

#ifndef GPSCHED_ENGINE_ENGINE_HH
#define GPSCHED_ENGINE_ENGINE_HH

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
#include "engine/loop_key.hh"
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

    /**
     * Persistent cache directory (engine/disk_cache.hh), layered
     * under the result table so results survive across runs and
     * processes. Empty disables the disk layer.
     */
    std::string cacheDir;

    /**
     * Disk-cache size budget in bytes, applied when the cache opens:
     * whole packs are deleted oldest-first until the store fits.
     * 0 = unlimited.
     */
    std::uint64_t cacheMaxBytes = 256ull << 20;

    /**
     * The engine's counter store: the engine.* and disk.* counters
     * count into it live, and the thread pool adds its telemetry
     * (queue depth, task wait/run, per-worker utilization). Null
     * keeps the counters in a registry the engine owns and leaves
     * pool telemetry off. Must outlive the engine.
     */
    MetricRegistry *metrics = nullptr;

    /**
     * Chrome trace destination: compile/cache-probe/disk spans on
     * worker tids plus queue-wait async spans, all under this
     * engine's pid. Null disables; must outlive the engine.
     */
    TraceSink *trace = nullptr;

    /**
     * Aggregate every compile's phase breakdown into phaseTotals(),
     * the engine's one phase store. Implied by a non-null trace
     * sink. Off, a compile's phase spans go to the caller's ambient
     * TelemetryContext, if any. Observation-only: schedules are
     * bit-identical either way.
     */
    bool collectPhases = false;
};

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
    Memory,   ///< finished entry in the engine's result table
    Disk,     ///< persistent DiskCache hit
    Coalesced ///< awaited a pending entry of the result table
};

/** Stable JSON name: "compiled" | "memory" | "disk" | "coalesced". */
const char *compileSourceName(CompileSource source);

/**
 * Per-job outcome: either a schedule or a diagnostic, never both.
 * The batch analogue of "a result row": failures occupy their
 * submission slot so downstream consumers can match results to jobs
 * positionally. A result carries no phase breakdown; the engine's
 * phaseTotals() is the one place phase times are kept.
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
     * coalesced duplicates. Always measured (two traceNowNanos()
     * reads), independent of telemetry options.
     */
    double compileMs = 0.0;

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

/**
 * Thread-pool batch scheduler with a fingerprint-keyed result table.
 *
 * Lifetime counters live in metrics() only:
 *  - engine.jobsSubmitted, engine.cacheHits, engine.cacheMisses
 *    (actual compilations: every unique key compiles once);
 *  - engine.coalesced: jobs that awaited an identical pending
 *    compilation instead of compiling;
 *  - engine.failed: jobs that returned a diagnostic (a coalesced
 *    duplicate observing its owner's failure counts too; failures
 *    are never cached, in memory or on disk);
 *  - disk.* (DiskCache) when a cacheDir was given.
 */
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

    /** Effective worker count (>= 1). */
    int jobs() const { return jobs_; }

    /** The counter store: options.metrics, or the engine's own. */
    MetricRegistry &metrics() const { return *metrics_; }

    /**
     * Phase breakdown summed over every compile this engine ran
     * with collectPhases/trace on; cache hits and coalesced
     * duplicates add nothing. Empty when phase collection was off.
     */
    CompileTrace phaseTotals() const;

    /**
     * Copies the engine.* / disk.* counters into @p registry unless
     * it is metrics(), which already holds them, and sets the
     * engine.cacheSize gauge and (when collected) the phase.*
     * totals. Everything is set, not added, so repeated exports
     * stay idempotent.
     */
    void exportStats(MetricRegistry &registry) const;

    /** The persistent cache; nullptr when no cacheDir was given. */
    const DiskCache *diskCache() const { return disk_.get(); }

  private:
    /**
     * The LoopPreludes of one compileBatch call (engine.cc): one per
     * (loop, machine, partitioner options) among the jobs that
     * compile, structurally identical loops and machines counting as
     * one, created by the first of them and freed once every job of
     * its key has finished (at the latest with the batch), so the
     * schemes of one loop on one machine compute its MII and its
     * partition at the MII once.
     */
    class BatchPreludes;

    CompileResult runJob(const EngineJob &job, BatchPreludes &preludes);
    CompileResult runJobImpl(const EngineJob &job,
                             BatchPreludes &preludes,
                             CompileSource &source);

    EngineOptions options_;
    int jobs_;
    std::uint32_t pid_; ///< trace pid; must init before pool_
    ThreadPool pool_;

    /** Persistent layer under the result table; may be null. */
    std::unique_ptr<DiskCache> disk_;

    /** Every key this engine has seen, finished or still pending.
     *  The first job for a key inserts the entry and owns it; any
     *  later job reads the shared future, ready (a memory hit) or
     *  pending (coalesced). A failed owner erases its entry. */
    mutable std::mutex resultsMutex_;
    std::unordered_map<LoopKey, std::shared_future<CompiledLoop>>
        results_;

    /** Batch-aggregated phase totals (collectPhases/trace only). */
    mutable std::mutex totalsMutex_;
    CompileTrace totals_;

    /** Counter store when options.metrics is null. */
    std::unique_ptr<MetricRegistry> ownedMetrics_;
    MetricRegistry *metrics_;

    /** Handles into metrics_, resolved once at construction so the
     *  per-job path never looks a name up. */
    MetricRegistry::Counter *jobsSubmitted_;
    MetricRegistry::Counter *cacheHits_;
    MetricRegistry::Counter *cacheMisses_;
    MetricRegistry::Counter *coalesced_;
    MetricRegistry::Counter *failed_;
};

/**
 * Writes the engine block's members into @p json's open object:
 * jobs, the engine.* / disk.* counters read from engine.metrics(),
 * hitRate (cacheHits / jobsSubmitted), cacheDir, diskHitRate
 * (diskHits / (diskHits + diskMisses)) and, when collected, the
 * phase breakdown. Every bench and CLI report embeds it.
 */
void writeEngineJson(JsonWriter &json, const Engine &engine);

} // namespace gpsched

#endif // GPSCHED_ENGINE_ENGINE_HH
