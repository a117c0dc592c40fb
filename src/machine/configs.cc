#include "machine/configs.hh"

#include <sstream>

namespace gpsched
{

namespace
{

/**
 * "<base>-r<regs>[-b<latency>][-x<buses>]": the bus count appears
 * only above one, the suffix fig_buses' scaled machines carry too.
 */
std::string
configName(const char *base, int regs, int bus_latency, int num_buses)
{
    std::ostringstream oss;
    oss << base << "-r" << regs;
    if (bus_latency > 0)
        oss << "-b" << bus_latency;
    if (num_buses > 1)
        oss << "-x" << num_buses;
    return oss.str();
}

} // namespace

MachineConfig
unifiedConfig(int total_regs)
{
    return MachineConfig(configName("unified", total_regs, 0, 0), 1, 4,
                         4, 4, total_regs, 0, 1);
}

MachineConfig
twoClusterConfig(int total_regs, int bus_latency, int num_buses)
{
    return MachineConfig(
        configName("2c", total_regs, bus_latency, num_buses), 2, 2, 2,
        2, total_regs, num_buses, bus_latency);
}

MachineConfig
fourClusterConfig(int total_regs, int bus_latency, int num_buses)
{
    return MachineConfig(
        configName("4c", total_regs, bus_latency, num_buses), 4, 1, 1,
        1, total_regs, num_buses, bus_latency);
}

std::vector<MachineConfig>
table1Configs()
{
    std::vector<MachineConfig> configs;
    for (int regs : {32, 64}) {
        configs.push_back(unifiedConfig(regs));
        for (int lat : {1, 2}) {
            configs.push_back(twoClusterConfig(regs, lat));
            configs.push_back(fourClusterConfig(regs, lat));
        }
    }
    return configs;
}

} // namespace gpsched
