#include "testing/machine_text.hh"

#include <sstream>

namespace gpsched::testing
{

std::string
machineDescText(const MachineConfig &machine)
{
    std::ostringstream os;
    os << "machine " << machine.name() << "\n";
    for (int c = 0; c < machine.numClusters(); ++c) {
        const ClusterDesc &cluster = machine.cluster(c);
        os << "cluster " << cluster.name << " int "
           << cluster.fu[static_cast<int>(FuClass::Int)] << " fp "
           << cluster.fu[static_cast<int>(FuClass::Fp)] << " mem "
           << cluster.fu[static_cast<int>(FuClass::Mem)] << " regs "
           << cluster.regs << "\n";
    }
    for (int i = 0; i < machine.numBusClasses(); ++i) {
        const BusDesc &bus = machine.busClass(i);
        os << "buses " << bus.count << " latency " << bus.latency
           << "\n";
    }
    // Only timings differing from the defaults, so preset files stay
    // minimal and a default-built table round-trips to nothing.
    LatencyTable defaults;
    for (int i = 0; i < numOpcodes; ++i) {
        Opcode op = static_cast<Opcode>(i);
        const OpTiming &timing = machine.latencies().timing(op);
        if (timing == defaults.timing(op))
            continue;
        os << "latency " << toString(op) << " " << timing.latency
           << " occupancy " << timing.occupancy << "\n";
    }
    os << "end\n";
    return os.str();
}

std::optional<MachineConfig>
parseMachineDescText(const std::string &text, MachineParseError *error)
{
    std::istringstream in(text);
    return parseMachineDesc(in, "<string>", error);
}

} // namespace gpsched::testing
