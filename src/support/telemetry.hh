/**
 * @file
 * Compile-pipeline telemetry: per-phase spans, a unified metric
 * registry, and the ambient per-thread context that wires both into
 * the scheduler hot path without threading sink pointers through
 * every call signature.
 *
 * Layering:
 *  - CompilePhase / CompileTrace: the fixed phase taxonomy and the
 *    per-compile (and per-batch, via merge()) wall+CPU totals.
 *  - TelemetryContext: thread_local {trace, sink, pid} installed by
 *    the engine around each compile (ScopedTelemetryContext), read
 *    by PhaseScope at phase boundaries. A default-empty context
 *    makes every span a single TLS load + branch.
 *  - GPSCHED_PHASE_SPAN(Phase): the only thing pipeline code touches.
 *  - MetricRegistry: thread-safe named counters/gauges/histograms
 *    with a stable JSON dump; the only store of the engine, disk
 *    cache and thread-pool counters.
 *
 * Telemetry never influences scheduling decisions: all of this is
 * observation-only, and schedules are bit-identical with it on or
 * off (pinned by test_telemetry).
 */

#ifndef GPSCHED_SUPPORT_TELEMETRY_HH
#define GPSCHED_SUPPORT_TELEMETRY_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

#include "support/stats.hh"
#include "support/trace.hh"

namespace gpsched
{

class JsonWriter;

/** The compile phases gpsched attributes time to. */
enum class CompilePhase : std::uint8_t
{
    Mii,              ///< computeMii + DDG analysis
    Coarsen,          ///< multilevel matching/contraction
    InitialPartition, ///< initial cluster assignment
    Refine,           ///< KL-style refinement rounds
    ModuloSchedule,   ///< per-II modulo scheduling attempts
    TransferPlanning, ///< bus transfer planning (inside ModuloSchedule)
    ListSchedule,     ///< acyclic list-scheduling fallback
    NumPhases
};

constexpr std::size_t kNumCompilePhases =
    static_cast<std::size_t>(CompilePhase::NumPhases);

/** Stable lowerCamel name used in every JSON schema ("coarsen"...). */
const char *compilePhaseName(CompilePhase phase);

/**
 * Whether the phase emits Chrome trace events. TransferPlanning is
 * totals-only: it runs nested inside ModuloSchedule thousands of
 * times per compile, so tracing it would bloat traces and break the
 * "top-level phase spans are disjoint" invariant the integrity test
 * checks.
 */
bool compilePhaseTraced(CompilePhase phase);

/** Accumulated wall/CPU time and entry count for one phase. */
struct PhaseTotals
{
    std::uint64_t wallNanos = 0;
    std::uint64_t cpuNanos = 0; ///< per-thread CPU clock
    std::uint64_t count = 0;

    void merge(const PhaseTotals &other)
    {
        wallNanos += other.wallNanos;
        cpuNanos += other.cpuNanos;
        count += other.count;
    }
};

/**
 * Phase breakdown of one compile or, via merge(), of many: the
 * engine's phaseTotals() and a caller's ambient context both hold
 * one. Never part of CompiledLoop — traces describe compilations,
 * not the cached artifact.
 */
struct CompileTrace
{
    std::array<PhaseTotals, kNumCompilePhases> phases{};
    std::uint64_t wallNanos = 0; ///< whole compile()
    std::uint64_t cpuNanos = 0;
    std::uint64_t compiles = 0;  ///< compiles merged in

    PhaseTotals &phase(CompilePhase p)
    {
        return phases[static_cast<std::size_t>(p)];
    }
    const PhaseTotals &phase(CompilePhase p) const
    {
        return phases[static_cast<std::size_t>(p)];
    }

    void merge(const CompileTrace &other);

    /** True when nothing was recorded. */
    bool empty() const;
};

/**
 * Ambient telemetry destinations for the calling thread. Installed
 * by the engine (or a bench driver) around compile work; empty by
 * default so un-instrumented callers pay one TLS read per span.
 */
struct TelemetryContext
{
    CompileTrace *trace = nullptr; ///< phase totals destination
    TraceSink *sink = nullptr;     ///< Chrome events destination
    std::uint32_t pid = 0;         ///< engine id for emitted events
};

/** The calling thread's current context (mutable). */
TelemetryContext &telemetryContext();

/** RAII: installs a context, restores the previous one on exit. */
class ScopedTelemetryContext
{
  public:
    explicit ScopedTelemetryContext(const TelemetryContext &ctx)
        : saved_(telemetryContext())
    {
        telemetryContext() = ctx;
    }
    ~ScopedTelemetryContext() { telemetryContext() = saved_; }

    ScopedTelemetryContext(const ScopedTelemetryContext &) = delete;
    ScopedTelemetryContext &
    operator=(const ScopedTelemetryContext &) = delete;

  private:
    TelemetryContext saved_;
};

/**
 * RAII phase span: on a thread with an active context, accumulates
 * wall+CPU into the trace and (for traced phases) emits a Chrome 'X'
 * event; otherwise a no-op costing one TLS load and a branch.
 */
class PhaseScope
{
  public:
    explicit PhaseScope(CompilePhase phase);
    ~PhaseScope();

    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;

  private:
    CompilePhase phase_;
    bool active_ = false;
    std::uint64_t startWall_ = 0;
    std::uint64_t startCpu_ = 0;
};

/**
 * Thread-safe registry of named metrics. Handles returned by
 * counter()/gauge()/histogram() are stable for the registry's
 * lifetime; dumps are sorted by name so the JSON schema is stable.
 *
 * Naming scheme: `<subsystem>.<metric>` — e.g. engine.cacheHits,
 * disk.hits, pool.taskWaitMicros, phase.coarsen.wallMicros.
 */
class MetricRegistry
{
  public:
    /** Monotonic counter (atomic). */
    class Counter
    {
      public:
        void add(std::uint64_t delta = 1)
        {
            value_.fetch_add(delta, std::memory_order_relaxed);
        }
        void set(std::uint64_t v)
        {
            value_.store(v, std::memory_order_relaxed);
        }
        std::uint64_t value() const
        {
            return value_.load(std::memory_order_relaxed);
        }

      private:
        std::atomic<std::uint64_t> value_{0};
    };

    /** Point-in-time signed value (atomic), e.g. queue depth. */
    class Gauge
    {
      public:
        void set(std::int64_t v)
        {
            value_.store(v, std::memory_order_relaxed);
        }
        void add(std::int64_t delta)
        {
            value_.fetch_add(delta, std::memory_order_relaxed);
        }
        std::int64_t value() const
        {
            return value_.load(std::memory_order_relaxed);
        }

      private:
        std::atomic<std::int64_t> value_{0};
    };

    /** Finds or creates; the reference stays valid for our lifetime. */
    Counter &counter(const std::string &name);
    /** @p name's value, 0 when absent; never creates the counter. */
    std::uint64_t counterValue(const std::string &name) const;
    Gauge &gauge(const std::string &name);
    /** Bucket shape is fixed by the first caller for a given name. */
    Histogram &histogram(const std::string &name, double lowest = 1.0,
                         double growth = 2.0,
                         std::size_t buckets = 32);

    /**
     * Dumps `{"counters": {...}, "gauges": {...},
     * "histograms": {name: {count,sum,mean,min,max,p50,p95,
     * buckets:[{le,count}...]}}}`, names sorted, zero-count
     * histogram buckets omitted.
     */
    void writeJson(std::ostream &os) const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/**
 * Writes one CompileTrace as a JSON array of per-phase objects
 * (`[{"phase": "coarsen", "count": n, "wallMs": w, "cpuMs": c},...]`,
 * zero-count phases omitted) under @p key of the current object.
 * Shared by the CLI, the bench emitters, and Engine stats export.
 */
void writeCompileTracePhases(JsonWriter &json, const std::string &key,
                             const CompileTrace &trace);

} // namespace gpsched

// The span macro pipeline code uses.
#define GPSCHED_PHASE_SPAN_CONCAT2(a, b) a##b
#define GPSCHED_PHASE_SPAN_CONCAT(a, b) GPSCHED_PHASE_SPAN_CONCAT2(a, b)
#define GPSCHED_PHASE_SPAN(phase)                                      \
    ::gpsched::PhaseScope GPSCHED_PHASE_SPAN_CONCAT(                   \
        gpschedPhaseSpan_, __LINE__)(::gpsched::CompilePhase::phase)

#endif // GPSCHED_SUPPORT_TELEMETRY_HH
