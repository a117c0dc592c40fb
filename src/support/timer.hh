/**
 * @file
 * Time measurement for the Table-2 experiment and the telemetry
 * subsystem. CpuTimer uses the per-process CPU clock so measurements
 * exclude time the process spends descheduled; monotonicNanos reads
 * the monotonic clock so queue-wait and I/O intervals — invisible to
 * the CPU clock — are measurable too.
 */

#ifndef GPSCHED_SUPPORT_TIMER_HH
#define GPSCHED_SUPPORT_TIMER_HH

#include <cstdint>

namespace gpsched
{

/** Measures elapsed per-process CPU time in seconds. */
class CpuTimer
{
  public:
    /** Starts (or restarts) the timer. */
    void start();

    /** Returns CPU seconds elapsed since start(). */
    double elapsedSeconds() const;

  private:
    double startSeconds_ = 0.0;

    static double nowSeconds();
};

/** Monotonic (CLOCK_MONOTONIC) timestamp in nanoseconds. */
std::uint64_t monotonicNanos();

/**
 * Per-thread CPU time (CLOCK_THREAD_CPUTIME_ID) in nanoseconds.
 * Phase spans use this rather than the process clock so concurrent
 * compiles on other workers don't inflate a phase's CPU cost.
 */
std::uint64_t threadCpuNanos();

} // namespace gpsched

#endif // GPSCHED_SUPPORT_TIMER_HH
