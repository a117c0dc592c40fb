#include "machine/machine.hh"

#include <algorithm>
#include <sstream>

#include "support/logging.hh"

namespace gpsched
{

int
ClusterDesc::issueWidth() const
{
    int width = 0;
    for (int i = 0; i < numFuClasses; ++i)
        width += fu[i];
    return width;
}

bool
ClusterDesc::sameResources(const ClusterDesc &other) const
{
    for (int i = 0; i < numFuClasses; ++i) {
        if (fu[i] != other.fu[i])
            return false;
    }
    return regs == other.regs;
}

MachineConfig::MachineConfig(std::string name,
                             std::vector<ClusterDesc> clusters,
                             std::vector<BusDesc> buses)
    : name_(std::move(name)), clusters_(std::move(clusters)),
      buses_(std::move(buses))
{
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
        if (clusters_[c].name.empty())
            clusters_[c].name = "c" + std::to_string(c);
    }
    // Canonical bus-class order: fastest first (the transfer planner
    // tries classes in order), count as tie-break. Equal machines
    // thus encode identically regardless of declaration order.
    std::stable_sort(buses_.begin(), buses_.end(),
                     [](const BusDesc &a, const BusDesc &b) {
                         if (a.latency != b.latency)
                             return a.latency < b.latency;
                         return a.count < b.count;
                     });
    validate();
}

MachineConfig::MachineConfig(std::string name, int num_clusters,
                             int int_units, int fp_units, int mem_units,
                             int total_regs, int num_buses,
                             int bus_latency)
    : name_(std::move(name))
{
    if (num_clusters < 1)
        GPSCHED_FATAL("machine needs at least one cluster");
    if (int_units < 1 || fp_units < 1 || mem_units < 1)
        GPSCHED_FATAL("each cluster needs at least one FU per class");
    if (total_regs < num_clusters)
        GPSCHED_FATAL("need at least one register per cluster");
    if (total_regs % num_clusters != 0)
        GPSCHED_FATAL("total registers (", total_regs,
                      ") must divide evenly among ", num_clusters,
                      " clusters");
    if (num_buses > 0 && bus_latency < 1)
        GPSCHED_FATAL("bus latency must be >= 1");

    clusters_.resize(num_clusters);
    for (int c = 0; c < num_clusters; ++c) {
        ClusterDesc &cl = clusters_[c];
        cl.name = "c" + std::to_string(c);
        cl.fu[static_cast<int>(FuClass::Int)] = int_units;
        cl.fu[static_cast<int>(FuClass::Fp)] = fp_units;
        cl.fu[static_cast<int>(FuClass::Mem)] = mem_units;
        cl.regs = total_regs / num_clusters;
    }
    if (num_buses > 0)
        buses_.push_back(BusDesc{num_buses, bus_latency});
    validate();
}

void
MachineConfig::validate() const
{
    if (clusters_.empty())
        GPSCHED_FATAL("machine needs at least one cluster");
    for (const ClusterDesc &cl : clusters_) {
        for (int k = 0; k < numFuClasses; ++k) {
            if (cl.fu[k] < 0)
                GPSCHED_FATAL("cluster '", cl.name,
                              "' has a negative ",
                              toString(static_cast<FuClass>(k)),
                              " unit count");
        }
        if (cl.issueWidth() < 1)
            GPSCHED_FATAL("cluster '", cl.name,
                          "' has no functional units");
        if (cl.regs < 1)
            GPSCHED_FATAL("cluster '", cl.name,
                          "' needs at least one register");
    }
    for (int k = 0; k < numFuClasses; ++k) {
        if (totalFu(static_cast<FuClass>(k)) < 1)
            GPSCHED_FATAL("machine has no ",
                          toString(static_cast<FuClass>(k)),
                          " unit in any cluster");
    }
    if (clusters_.size() > 1 && numBuses() < 1)
        GPSCHED_FATAL("clustered machines need at least one bus");
    for (const BusDesc &bus : buses_) {
        if (bus.count < 1)
            GPSCHED_FATAL("bus class needs a positive count");
        if (bus.latency < 1)
            GPSCHED_FATAL("bus latency must be >= 1");
    }
}

bool
MachineConfig::homogeneous() const
{
    for (std::size_t c = 1; c < clusters_.size(); ++c) {
        if (!clusters_[c].sameResources(clusters_[0]))
            return false;
    }
    return true;
}

int
MachineConfig::totalFu(FuClass cls) const
{
    int idx = static_cast<int>(cls);
    GPSCHED_ASSERT(idx >= 0 && idx < numFuClasses, "bad FuClass");
    int total = 0;
    for (const ClusterDesc &cl : clusters_)
        total += cl.fu[idx];
    return total;
}

int
MachineConfig::totalIssueWidth() const
{
    int width = 0;
    for (const ClusterDesc &cl : clusters_)
        width += cl.issueWidth();
    return width;
}

int
MachineConfig::totalRegs() const
{
    int total = 0;
    for (const ClusterDesc &cl : clusters_)
        total += cl.regs;
    return total;
}

int
MachineConfig::fuPerCluster(FuClass cls) const
{
    GPSCHED_ASSERT(homogeneous(),
                   "fuPerCluster on heterogeneous machine '", name_,
                   "'; use fuInCluster(c, cls)");
    return fuInCluster(0, cls);
}

const BusDesc &
MachineConfig::busClass(int i) const
{
    GPSCHED_ASSERT(i >= 0 && i < numBusClasses(), "bad bus class ", i);
    return buses_[i];
}

int
MachineConfig::numBuses() const
{
    int total = 0;
    for (const BusDesc &bus : buses_)
        total += bus.count;
    return total;
}

int
MachineConfig::maxBusLatency() const
{
    return buses_.empty() ? 1 : buses_.back().latency;
}

int
MachineConfig::expectedBusLatency() const
{
    if (buses_.empty())
        return 1;
    // A non-pipelined bus of latency L sustains count/L transfers per
    // cycle. If the fabric's traffic spreads in proportion to that
    // capacity, the mean latency a transfer observes is
    //
    //   sum_i cap_i * lat_i / sum_i cap_i  =  numBuses / sum_i cap_i.
    //
    // Exactly the class latency when one class exists, so on
    // homogeneous fabrics (every Table-1 machine) this model and the
    // fastest class's latency coincide.
    double capacity = 0.0;
    for (const BusDesc &bus : buses_)
        capacity += static_cast<double>(bus.count) / bus.latency;
    double expected = static_cast<double>(numBuses()) / capacity;
    int rounded = static_cast<int>(expected + 0.5);
    return std::max(1, rounded);
}

MachineConfig
MachineConfig::withBusClasses(std::vector<BusDesc> buses,
                              const std::string &name) const
{
    MachineConfig copy(name, clusters_, std::move(buses));
    copy.latencies_ = latencies_;
    return copy;
}

std::string
MachineConfig::summary() const
{
    std::ostringstream oss;
    oss << name_ << ": ";
    if (homogeneous()) {
        oss << numClusters() << " cluster(s) x ["
            << fuInCluster(0, FuClass::Int) << " INT, "
            << fuInCluster(0, FuClass::Fp) << " FP, "
            << fuInCluster(0, FuClass::Mem) << " MEM, "
            << clusters_[0].regs << " regs]";
    } else {
        for (int c = 0; c < numClusters(); ++c) {
            const ClusterDesc &cl = clusters_[c];
            if (c > 0)
                oss << " + ";
            oss << cl.name << "[" << cl.fu[0] << " INT, " << cl.fu[1]
                << " FP, " << cl.fu[2] << " MEM, " << cl.regs
                << " regs]";
        }
    }
    for (const BusDesc &bus : buses_)
        oss << ", " << bus.count << " bus(es) lat " << bus.latency;
    return oss.str();
}

bool
MachineConfig::operator==(const MachineConfig &other) const
{
    if (name_ != other.name_ ||
        clusters_.size() != other.clusters_.size() ||
        buses_.size() != other.buses_.size())
        return false;
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
        if (clusters_[c].name != other.clusters_[c].name ||
            !clusters_[c].sameResources(other.clusters_[c]))
            return false;
    }
    for (std::size_t i = 0; i < buses_.size(); ++i) {
        if (buses_[i].count != other.buses_[i].count ||
            buses_[i].latency != other.buses_[i].latency)
            return false;
    }
    return latencies_ == other.latencies_;
}

} // namespace gpsched
