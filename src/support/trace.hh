/**
 * @file
 * Chrome trace-event collection: a thread-safe TraceSink accumulates
 * timestamped spans and exports the Trace Event Format JSON that
 * chrome://tracing and Perfetto load directly.
 *
 * Conventions (enforced by tools/check_trace.py and the trace
 * integrity tests):
 *  - "X" (complete) events carry ts+dur and must nest properly per
 *    (pid, tid) — engine spans (compile, cache-probe, disk) and the
 *    phase spans inside them obey this by construction because each
 *    worker thread records them strictly bracketed.
 *  - queue-wait intervals are "b"/"e" async pairs, NOT "X": a task's
 *    wait overlaps whatever its worker thread is running, so a
 *    complete event would violate per-tid nesting.
 *  - timestamps are microseconds (double) since a process-wide
 *    monotonic anchor, so events from all engines and threads share
 *    one timeline.
 */

#ifndef GPSCHED_SUPPORT_TRACE_HH
#define GPSCHED_SUPPORT_TRACE_HH

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace gpsched
{

/** One Chrome trace event (subset of the spec gpsched emits). */
struct TraceEvent
{
    std::string name;
    std::string cat;
    char ph = 'X'; ///< 'X' complete, 'b'/'e' async, 'M' metadata
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    std::uint64_t tsNanos = 0;  ///< since the process trace anchor
    std::uint64_t durNanos = 0; ///< 'X' only
    std::uint64_t id = 0;       ///< 'b'/'e' pairing id
    /** String key/value args rendered into the event's "args". */
    std::vector<std::pair<std::string, std::string>> args;
};

/**
 * Thread-safe collector of TraceEvents. A null TraceSink* means
 * tracing is off; all emit helpers are cheap enough that callers
 * just branch on the pointer.
 */
class TraceSink
{
  public:
    /** Records an 'X' complete event. */
    void complete(TraceEvent event);

    /** Records a 'b'/'e' async pair for [startNanos, endNanos). */
    void asyncSpan(const std::string &name, const std::string &cat,
                   std::uint32_t pid, std::uint32_t tid,
                   std::uint64_t pairId, std::uint64_t startNanos,
                   std::uint64_t endNanos);

    /** Records an 'M' metadata event (process_name / thread_name). */
    void metadata(const std::string &name, std::uint32_t pid,
                  std::uint32_t tid, const std::string &value);

    /** Copy of everything recorded so far. */
    std::vector<TraceEvent> snapshot() const;

    /**
     * Writes `{"traceEvents": [...]}` with events sorted by
     * timestamp (ts in fractional microseconds), so a validator can
     * require monotonic ts.
     */
    void writeJson(std::ostream &os) const;

  private:
    mutable std::mutex mutex_;
    std::vector<TraceEvent> events_;
};

/**
 * Nanoseconds since the process-wide trace anchor (the first call's
 * monotonic timestamp). All trace events and the engine's compileMs
 * use this timebase; it is gpsched's one wall clock.
 */
std::uint64_t traceNowNanos();

/**
 * Per-thread CPU time (CLOCK_THREAD_CPUTIME_ID) in nanoseconds,
 * gpsched's one CPU clock. Phase spans use it rather than the
 * process clock so concurrent compiles on other workers don't
 * inflate a phase's CPU cost.
 */
std::uint64_t threadCpuNanos();

/** Small dense id for the calling thread, stable for its lifetime. */
std::uint32_t traceThreadId();

/** Fresh id for an async 'b'/'e' pair. */
std::uint64_t traceNextPairId();

} // namespace gpsched

#endif // GPSCHED_SUPPORT_TRACE_HH
