#include "support/timer.hh"

#include <ctime>

namespace gpsched
{

namespace
{

std::uint64_t
clockNanos(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

} // namespace

double
CpuTimer::nowSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

void
CpuTimer::start()
{
    startSeconds_ = nowSeconds();
}

double
CpuTimer::elapsedSeconds() const
{
    return nowSeconds() - startSeconds_;
}

std::uint64_t
monotonicNanos()
{
    return clockNanos(CLOCK_MONOTONIC);
}

std::uint64_t
threadCpuNanos()
{
    return clockNanos(CLOCK_THREAD_CPUTIME_ID);
}

} // namespace gpsched
