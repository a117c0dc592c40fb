/**
 * @file
 * Preset machine configurations reproducing paper Table 1. All
 * presets are 12-issue with total resources divided homogeneously:
 *
 *   unified    1 cluster  x (4 INT, 4 FP, 4 MEM)
 *   2-cluster  2 clusters x (2 INT, 2 FP, 2 MEM)
 *   4-cluster  4 clusters x (1 INT, 1 FP, 1 MEM)
 *
 * The evaluation varies total registers (32 / 64) and bus latency
 * (1 / 2) with a single bus, exactly as Figures 2 and 3 do.
 */

#ifndef GPSCHED_MACHINE_CONFIGS_HH
#define GPSCHED_MACHINE_CONFIGS_HH

#include <vector>

#include "machine/machine.hh"

namespace gpsched
{

/** Unified 12-issue machine (paper baseline). */
MachineConfig unifiedConfig(int total_regs);

/**
 * 2-cluster machine, @p num_buses buses of @p bus_latency cycles,
 * named "2c-r<regs>-b<latency>", plus "-x<buses>" above one bus.
 */
MachineConfig twoClusterConfig(int total_regs, int bus_latency = 1,
                               int num_buses = 1);

/** 4-cluster machine ("4c-..."); buses and name as in
 *  twoClusterConfig. */
MachineConfig fourClusterConfig(int total_regs, int bus_latency = 1,
                                int num_buses = 1);

/** Every configuration Table 1 / Figures 2-3 evaluate. */
std::vector<MachineConfig> table1Configs();

} // namespace gpsched

#endif // GPSCHED_MACHINE_CONFIGS_HH
