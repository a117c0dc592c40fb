#include "engine/engine.hh"

#include <atomic>
#include <chrono>

#include "support/json.hh"
#include "support/logging.hh"

namespace gpsched
{

const char *
compileSourceName(CompileSource source)
{
    switch (source) {
      case CompileSource::Compiled:
        return "compiled";
      case CompileSource::Memory:
        return "memory";
      case CompileSource::Disk:
        return "disk";
      case CompileSource::Coalesced:
        return "coalesced";
    }
    GPSCHED_PANIC("invalid CompileSource ", static_cast<int>(source));
}

namespace
{

/** The counters an Engine keeps in its registry. */
constexpr const char *kEngineCounters[] = {
    "engine.jobsSubmitted", "engine.cacheHits", "engine.cacheMisses",
    "engine.coalesced", "engine.failed"};

/** part / whole; 0 when whole is 0. */
double
ratio(std::uint64_t part, std::uint64_t whole)
{
    return whole == 0 ? 0.0
                      : static_cast<double>(part) /
                            static_cast<double>(whole);
}

int
effectiveJobs(int requested)
{
    GPSCHED_ASSERT(requested >= 0, "negative job count ", requested);
    return requested == 0 ? ThreadPool::hardwareConcurrency()
                          : requested;
}

std::uint32_t
nextEnginePid()
{
    // One trace pid per engine instance, process-wide.
    static std::atomic<std::uint32_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

Engine::Engine(EngineOptions options)
    : options_(options), jobs_(effectiveJobs(options.jobs)),
      pid_(nextEnginePid()),
      // A 1-job engine runs inline on the submitting thread.
      pool_(jobs_ <= 1 ? 0 : jobs_,
            PoolTelemetry{options.metrics, options.trace, pid_}),
      ownedMetrics_(options.metrics == nullptr
                        ? std::make_unique<MetricRegistry>()
                        : nullptr),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : ownedMetrics_.get()),
      jobsSubmitted_(&metrics_->counter("engine.jobsSubmitted")),
      cacheHits_(&metrics_->counter("engine.cacheHits")),
      cacheMisses_(&metrics_->counter("engine.cacheMisses")),
      coalesced_(&metrics_->counter("engine.coalesced")),
      failed_(&metrics_->counter("engine.failed"))
{
    if (!options_.cacheDir.empty()) {
        disk_ = std::make_unique<DiskCache>(
            options_.cacheDir, options_.cacheMaxBytes, metrics_);
    }
    if (options_.trace != nullptr)
        options_.trace->metadata(
            "process_name", pid_, 0,
            "gpsched engine " + std::to_string(pid_));
}

class Engine::BatchPreludes
{
  public:
    /** @p batch outlives this object, and so do its jobs, so a
     *  prelude may keep references to a job's loop, machine and
     *  options. */
    explicit BatchPreludes(const std::vector<EngineJob> &batch)
        : batch_(batch)
    {
    }

    /**
     * The prelude of @p job's loop, machine and partitioner options,
     * created on first request. The first request of the batch also
     * counts the batch's jobs per prelude; a batch served entirely
     * from the caches never counts.
     */
    LoopPrelude &
    of(const EngineJob &job)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!counted_.load())
            count();
        const Key key = keyOf(job);
        Entry &entry = entries_.at(key);
        if (!entry.prelude)
            entry.prelude = std::make_unique<LoopPrelude>(
                *key.loop, *key.machine, job.options.partitioner);
        return *entry.prelude;
    }

    /**
     * Marks @p job finished, whatever its path: the prelude of a
     * key whose jobs have all finished is freed then, not at the end
     * of the batch, so a large batch never holds every prelude at
     * once. Jobs finished before the batch's first request were not
     * counted down; their preludes live until the batch ends.
     */
    void
    finished(const EngineJob &job)
    {
        if (!counted_.load())
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(keyOf(job));
        if (it != entries_.end() && --it->second.pending == 0)
            entries_.erase(it);
    }

  private:
    /** A prelude's identity: the representatives of the job's loop
     *  and machine, and its partitioner options. */
    struct Key
    {
        const Ddg *loop;
        const MachineConfig *machine;
        GpPartitionerOptions partitioner;

        bool operator==(const Key &other) const
        {
            return loop == other.loop && machine == other.machine &&
                   partitioner == other.partitioner;
        }
    };
    struct KeyHash
    {
        std::size_t
        operator()(const Key &key) const noexcept
        {
            std::hash<const void *> hash;
            return hash(key.loop) ^ (hash(key.machine) * 31);
        }
    };
    struct Entry
    {
        /** Jobs of this key not yet finished. */
        int pending = 0;
        std::unique_ptr<LoopPrelude> prelude;
    };

    /**
     * Picks the representatives, then counts the jobs per key.
     * Structurally identical loops (machines) share the first of
     * them in batch order as their representative (shapeBytes), so
     * which of two identical jobs owns its LoopKey, which varies
     * with the submission order and the worker count, never changes
     * which preludes compute: the partitions a batch runs depend on
     * its set of jobs alone.
     */
    void
    count()
    {
        std::unordered_map<std::string, const Ddg *> loopShapes;
        std::unordered_map<std::string, const MachineConfig *>
            machineShapes;
        auto represent = [](auto &representatives, auto &shapes,
                            const auto *object) {
            auto [it, added] =
                representatives.try_emplace(object, object);
            if (added)
                it->second =
                    shapes.try_emplace(shapeBytes(*object), object)
                        .first->second;
        };
        for (const EngineJob &job : batch_) {
            represent(loops_, loopShapes, job.loop);
            represent(machines_, machineShapes, job.machine);
            ++entries_[keyOf(job)].pending;
        }
        counted_.store(true);
    }

    Key
    keyOf(const EngineJob &job) const
    {
        return Key{loops_.at(job.loop), machines_.at(job.machine),
                   job.options.partitioner};
    }

    const std::vector<EngineJob> &batch_;
    std::mutex mutex_;
    std::atomic<bool> counted_{false};
    std::unordered_map<const Ddg *, const Ddg *> loops_;
    std::unordered_map<const MachineConfig *, const MachineConfig *>
        machines_;
    std::unordered_map<Key, Entry, KeyHash> entries_;
};

CompileResult
Engine::runJob(const EngineJob &job, BatchPreludes &preludes)
{
    // compileMs and source are always recorded: two trace-clock
    // reads per job, independent of the telemetry options.
    std::uint64_t startNanos = traceNowNanos();
    CompileSource source = CompileSource::Compiled;
    CompileResult result = runJobImpl(job, preludes, source);
    preludes.finished(job);
    result.source = source;
    result.compileMs =
        static_cast<double>(traceNowNanos() - startNanos) * 1e-6;
    return result;
}

CompileResult
Engine::runJobImpl(const EngineJob &job, BatchPreludes &preludes,
                   CompileSource &source)
{
    GPSCHED_ASSERT(job.loop != nullptr && job.machine != nullptr,
                   "engine job without loop or machine");
    jobsSubmitted_->add();

    // Runs compiler.compile on the job's prelude under this job's
    // telemetry context so GPSCHED_PHASE_SPAN sites attribute into a
    // job-local trace (the first job of a prelude gets its MII and
    // partition phases), brackets the whole compile for the
    // "compile" Chrome span and the whole-compile totals, and merges
    // the trace into phaseTotals(). With telemetry off this reduces
    // to the plain compile call, whose spans reach the caller's
    // ambient context.
    auto tracedCompile = [&](LoopCompiler &compiler) {
        TraceSink *sink = options_.trace;
        const bool collect = options_.collectPhases || sink != nullptr;
        if (!collect)
            return compiler.compile(*job.loop, preludes.of(job));
        CompileTrace trace;
        TelemetryContext ctx;
        ctx.trace = &trace;
        ctx.sink = sink;
        ctx.pid = pid_;
        ScopedTelemetryContext scoped(ctx);
        std::uint64_t wall0 = traceNowNanos();
        std::uint64_t cpu0 = threadCpuNanos();
        auto finish = [&](bool ok) {
            std::uint64_t wall1 = traceNowNanos();
            trace.wallNanos = wall1 - wall0;
            trace.cpuNanos = threadCpuNanos() - cpu0;
            trace.compiles = 1;
            {
                std::lock_guard<std::mutex> lock(totalsMutex_);
                totals_.merge(trace);
            }
            if (sink != nullptr) {
                TraceEvent event;
                event.name = "compile";
                event.cat = "compile";
                event.pid = pid_;
                event.tid = traceThreadId();
                event.tsNanos = wall0;
                event.durNanos = trace.wallNanos;
                event.args.emplace_back("loop", job.loop->name());
                event.args.emplace_back("scheme",
                                        toString(job.kind));
                if (!ok)
                    event.args.emplace_back("error", "CompileError");
                sink->complete(std::move(event));
            }
        };
        try {
            CompiledLoop compiled =
                compiler.compile(*job.loop, preludes.of(job));
            finish(true);
            return compiled;
        } catch (...) {
            finish(false);
            throw;
        }
    };

    // Brackets a cache/disk probe in a Chrome span; near-zero when
    // no sink is configured.
    auto probeSpan = [&](const char *name, const char *cat,
                         auto &&probe) {
        TraceSink *sink = options_.trace;
        if (sink == nullptr)
            return probe();
        std::uint64_t wall0 = traceNowNanos();
        bool hit = probe();
        TraceEvent event;
        event.name = name;
        event.cat = cat;
        event.pid = pid_;
        event.tid = traceThreadId();
        event.tsNanos = wall0;
        event.durNanos = traceNowNanos() - wall0;
        event.args.emplace_back("hit", hit ? "true" : "false");
        sink->complete(std::move(event));
        return hit;
    };

    // Turns a caught CompileError into this job's diagnostic result,
    // re-labelled with the requesting loop's name (the error may
    // come from a structurally identical owner with another name).
    auto failWith = [&](CompileError error) {
        failed_->add();
        error.setLoopName(job.loop->name());
        return CompileResult::failure(std::move(error));
    };

    // One lookup decides the job's path: the first job for a key
    // inserts a pending entry and owns the compile; a later job finds
    // the entry and reads its shared future, finished (a memory hit)
    // or still pending (coalesced). A failed owner sets the exception
    // and erases its entry in one critical section, so a ready entry
    // always holds a result and every unique key compiles once.
    LoopKey key =
        makeLoopKey(*job.loop, *job.machine, job.kind, job.options);
    std::promise<CompiledLoop> promise;
    std::shared_future<CompiledLoop> entry;
    const LoopKey *ownedKey = nullptr;
    const bool ready = probeSpan("cache-probe", "cache", [&] {
        std::lock_guard<std::mutex> lock(resultsMutex_);
        auto [it, inserted] = results_.try_emplace(std::move(key));
        if (inserted) {
            it->second = promise.get_future().share();
            // Elements never move; only this job erases this one.
            ownedKey = &it->first;
            return false;
        }
        entry = it->second;
        return entry.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
    });

    CompiledLoop result;
    if (ownedKey == nullptr) {
        if (ready) {
            cacheHits_->add();
            source = CompileSource::Memory;
        } else {
            coalesced_->add();
            source = CompileSource::Coalesced;
        }
        // The shared future carries the owner's exception; a
        // duplicate awaiting a failed owner observes the same
        // CompileError instead of hanging or crashing.
        try {
            result = entry.get();
        } catch (const CompileError &error) {
            return failWith(error);
        }
        // Names are excluded from the fingerprint; report the
        // requesting loop's name, not the first-seen shape's.
        result.loopName = job.loop->name();
        return CompileResult::success(std::move(result));
    }

    // This thread owns the key. Probe the persistent layer before
    // compiling; coalesced duplicates wait on the future either way,
    // so each key touches the disk at most once per process run.
    if (disk_ &&
        probeSpan("disk-lookup", "disk",
                  [&] { return disk_->lookup(*ownedKey, result); })) {
        promise.set_value(result);
        source = CompileSource::Disk;
        result.loopName = job.loop->name();
        return CompileResult::success(std::move(result));
    }
    cacheMisses_->add();

    try {
        LoopCompiler compiler(*job.machine, job.kind, job.options);
        result = tracedCompile(compiler);
    } catch (...) {
        // Release coalesced waiters with the failure and erase the
        // entry: errors are not negatively cached, so a retry of
        // this key recompiles.
        {
            std::lock_guard<std::mutex> lock(resultsMutex_);
            promise.set_exception(std::current_exception());
            results_.erase(results_.find(*ownedKey));
        }
        try {
            throw;
        } catch (const CompileError &error) {
            return failWith(error);
        }
        // Non-CompileError exceptions (gpsched bugs) keep
        // propagating; the thread pool contains and rethrows them
        // from wait().
    }
    if (disk_) {
        probeSpan("disk-store", "disk", [&] {
            disk_->store(*ownedKey, result);
            return true;
        });
    }
    promise.set_value(result);
    return CompileResult::success(std::move(result));
}

std::vector<CompileResult>
Engine::compileBatch(const std::vector<EngineJob> &batch)
{
    std::vector<CompileResult> results(batch.size());
    BatchPreludes preludes(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        pool_.submit([this, &batch, &results, &preludes, i] {
            results[i] = runJob(batch[i], preludes);
        });
    }
    pool_.wait();
    return results;
}

CompileTrace
Engine::phaseTotals() const
{
    std::lock_guard<std::mutex> lock(totalsMutex_);
    return totals_;
}

void
Engine::exportStats(MetricRegistry &registry) const
{
    if (&registry != metrics_) {
        auto copy = [&](const char *name) {
            registry.counter(name).set(metrics_->counterValue(name));
        };
        for (const char *name : kEngineCounters)
            copy(name);
        if (disk_)
            for (const char *name : DiskCache::kCounters)
                copy(name);
    }
    std::size_t tableSize;
    {
        std::lock_guard<std::mutex> lock(resultsMutex_);
        tableSize = results_.size();
    }
    registry.gauge("engine.cacheSize")
        .set(static_cast<std::int64_t>(tableSize));
    CompileTrace totals = phaseTotals();
    if (totals.empty())
        return;
    registry.counter("phase.compile.count").set(totals.compiles);
    registry.counter("phase.compile.wallMicros")
        .set(totals.wallNanos / 1000);
    registry.counter("phase.compile.cpuMicros")
        .set(totals.cpuNanos / 1000);
    for (std::size_t i = 0; i < kNumCompilePhases; ++i) {
        const PhaseTotals &phase = totals.phases[i];
        if (phase.count == 0)
            continue;
        std::string prefix =
            std::string("phase.") +
            compilePhaseName(static_cast<CompilePhase>(i));
        registry.counter(prefix + ".count").set(phase.count);
        registry.counter(prefix + ".wallMicros")
            .set(phase.wallNanos / 1000);
        registry.counter(prefix + ".cpuMicros")
            .set(phase.cpuNanos / 1000);
    }
}

void
writeEngineJson(JsonWriter &json, const Engine &engine)
{
    const MetricRegistry &metrics = engine.metrics();
    auto count = [&](const char *name) {
        return metrics.counterValue(name);
    };
    const std::uint64_t jobsSubmitted = count("engine.jobsSubmitted");
    const std::uint64_t cacheHits = count("engine.cacheHits");
    const std::uint64_t diskHits = count("disk.hits");
    const std::uint64_t diskMisses = count("disk.misses");
    json.member("jobs", engine.jobs());
    json.member("jobsSubmitted", jobsSubmitted);
    json.member("cacheHits", cacheHits);
    json.member("cacheMisses", count("engine.cacheMisses"));
    json.member("coalesced", count("engine.coalesced"));
    json.member("failed", count("engine.failed"));
    json.member("hitRate", ratio(cacheHits, jobsSubmitted));
    json.member("cacheDir", engine.diskCache()
                                ? engine.diskCache()->dir()
                                : std::string());
    json.member("diskHits", diskHits);
    json.member("diskMisses", diskMisses);
    json.member("diskStores", count("disk.stores"));
    json.member("corruptEvicted", count("disk.corruptEvicted"));
    json.member("diskHitRate", ratio(diskHits, diskHits + diskMisses));
    CompileTrace phases = engine.phaseTotals();
    if (!phases.empty())
        writeCompileTracePhases(json, "phases", phases);
}

} // namespace gpsched
