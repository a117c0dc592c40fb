/**
 * @file
 * Performance accounting (paper Section 4.1).
 *
 * IPC counts original program operations only; overhead operations
 * (spill, communications) consume slots but are not "useful" work,
 * which keeps the unified configuration's IPC an upper bound for the
 * clustered ones. The cycles themselves come from LoopCompiler
 * (core/gp_scheduler.hh): (niter - 1) * II + SL for a modulo
 * schedule, the SL term charging the prolog and epilog as the
 * paper's IPC does, and niter * SL for a list schedule.
 */

#ifndef GPSCHED_CORE_METRICS_HH
#define GPSCHED_CORE_METRICS_HH

#include <cstdint>
#include <vector>

namespace gpsched
{

/** ops / cycles with a zero-cycle guard. */
double ipcOf(std::int64_t ops, std::int64_t cycles);

/**
 * Relative IPC gain of @p x over @p baseline in percent
 * (the paper's "+23%" metric).
 */
double ipcGainPercent(double x, double baseline);

/** Arithmetic mean of per-program IPCs (the paper's average bar). */
double averageIpc(const std::vector<double> &program_ipcs);

} // namespace gpsched

#endif // GPSCHED_CORE_METRICS_HH
