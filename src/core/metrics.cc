#include "core/metrics.hh"

#include <algorithm>

#include "support/logging.hh"

namespace gpsched
{

std::int64_t
moduloLoopCycles(int ii, int schedule_length, std::int64_t niter)
{
    GPSCHED_ASSERT(ii >= 1 && niter >= 1,
                   "bad modulo cycle parameters");
    return std::max<std::int64_t>(
        (niter - 1) * static_cast<std::int64_t>(ii) + schedule_length,
        1);
}

std::int64_t
listLoopCycles(int schedule_length, std::int64_t niter)
{
    GPSCHED_ASSERT(niter >= 1, "bad list cycle parameters");
    return std::max<std::int64_t>(
        niter * static_cast<std::int64_t>(schedule_length), 1);
}

double
ipcOf(std::int64_t ops, std::int64_t cycles)
{
    if (cycles <= 0)
        return 0.0;
    return static_cast<double>(ops) / static_cast<double>(cycles);
}

double
ipcGainPercent(double x, double baseline)
{
    GPSCHED_ASSERT(baseline > 0.0, "ipcGainPercent needs baseline > 0");
    return (x / baseline - 1.0) * 100.0;
}

double
averageIpc(const std::vector<double> &program_ipcs)
{
    if (program_ipcs.empty())
        return 0.0;
    double sum = 0.0;
    for (double ipc : program_ipcs)
        sum += ipc;
    return sum / static_cast<double>(program_ipcs.size());
}

} // namespace gpsched
