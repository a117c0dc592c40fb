#include "core/metrics.hh"

#include "support/logging.hh"

namespace gpsched
{

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
