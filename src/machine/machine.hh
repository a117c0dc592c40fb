/**
 * @file
 * Clustered VLIW machine description.
 *
 * A machine is a set of clusters — each with its own functional
 * units and register file — connected by one or more classes of
 * non-pipelined buses. The paper's Table-1 presets are the
 * homogeneous special case (every cluster identical, one bus class);
 * the general form also models heterogeneous machines: clusters of
 * different widths or register-file sizes, clusters missing a
 * functional-unit class entirely, and mixed bus fabrics (e.g. one
 * fast bus plus a slower broadcast bus). The memory hierarchy is
 * shared and perfect (every access hits), as in the paper's
 * evaluation.
 *
 * Machines can be built programmatically (the constructors below),
 * parsed from `.machine` description files (machine/machine_desc.hh)
 * or served by name from the registry (machine/registry.hh).
 */

#ifndef GPSCHED_MACHINE_MACHINE_HH
#define GPSCHED_MACHINE_MACHINE_HH

#include <string>
#include <vector>

#include "machine/op.hh"

namespace gpsched
{

/** Resources of one cluster. */
struct ClusterDesc
{
    /** Display name ("c0", "wide", ...); auto-filled when empty. */
    std::string name;

    /** Functional units per class (indexed by FuClass); 0 allowed as
     *  long as the machine keeps at least one unit of each class. */
    int fu[numFuClasses] = {1, 1, 1};

    /** Registers in this cluster's register file (>= 1). */
    int regs = 1;

    /** Issue slots of this cluster (sum of its FUs). */
    int issueWidth() const;

    /** Equal resources (names are display-only and ignored). */
    bool sameResources(const ClusterDesc &other) const;
};

/** One class of inter-cluster buses: @c count identical buses whose
 *  transfers take (and occupy the bus for) @c latency cycles. */
struct BusDesc
{
    int count = 1;
    int latency = 1;
};

/** Describes one clustered VLIW configuration. */
class MachineConfig
{
  public:
    /**
     * General (possibly heterogeneous) form.
     *
     * @param name display name
     * @param clusters per-cluster resources (>= 1 cluster; every FU
     *        class must have at least one unit machine-wide)
     * @param buses bus classes; canonically re-ordered by ascending
     *        latency. A multi-cluster machine needs at least one bus.
     */
    MachineConfig(std::string name, std::vector<ClusterDesc> clusters,
                  std::vector<BusDesc> buses);

    /**
     * Homogeneous convenience form (the paper's Table-1 shape): every
     * cluster gets the same FU counts and an even share of
     * @p total_regs; all buses form a single class.
     *
     * @param name display name ("unified", "2-cluster", ...)
     * @param num_clusters number of clusters (>= 1)
     * @param int_units integer units per cluster
     * @param fp_units FP units per cluster
     * @param mem_units memory ports per cluster
     * @param total_regs registers summed over all clusters (must
     *        divide evenly)
     * @param num_buses inter-cluster buses (0 allowed only when
     *        num_clusters == 1)
     * @param bus_latency cycles a value spends on the bus; the bus is
     *        non-pipelined, so a transfer also occupies the bus for
     *        this many cycles
     */
    MachineConfig(std::string name, int num_clusters, int int_units,
                  int fp_units, int mem_units, int total_regs,
                  int num_buses, int bus_latency);

    /** Display name. */
    const std::string &name() const { return name_; }

    /** Number of clusters. */
    int numClusters() const
    {
        return static_cast<int>(clusters_.size());
    }

    /** True for the single-cluster (unified) configuration. */
    bool unified() const { return clusters_.size() == 1; }

    /** True when every cluster has identical resources. */
    bool homogeneous() const;

    /** Resources of cluster @p c. Inline: read per (cluster, class)
     *  inside the refinement feasibility loops. */
    const ClusterDesc &
    cluster(int c) const
    {
        GPSCHED_ASSERT(c >= 0 && c < numClusters(), "bad cluster ", c);
        return clusters_[c];
    }

    /** Functional units of @p cls in cluster @p c. */
    int
    fuInCluster(int c, FuClass cls) const
    {
        int idx = static_cast<int>(cls);
        GPSCHED_ASSERT(idx >= 0 && idx < numFuClasses, "bad FuClass");
        return cluster(c).fu[idx];
    }

    /** Registers in cluster @p c's register file. */
    int regsInCluster(int c) const { return cluster(c).regs; }

    /** Issue slots of cluster @p c. */
    int issueWidthOfCluster(int c) const
    {
        return cluster(c).issueWidth();
    }

    /** Functional units of @p cls summed over clusters. */
    int totalFu(FuClass cls) const;

    /** Issue slots of the whole machine. */
    int totalIssueWidth() const;

    /** Registers summed over all clusters. */
    int totalRegs() const;

    // --- homogeneous-only conveniences (fatal on heterogeneous
    //     machines; per-cluster code must use the accessors above) ---

    /** Functional units of @p cls in one (any) cluster. */
    int fuPerCluster(FuClass cls) const;

    // --- buses ---------------------------------------------------------

    /** Number of bus classes (0 only on unified machines). */
    int numBusClasses() const
    {
        return static_cast<int>(buses_.size());
    }

    /** Bus class @p i (sorted by ascending latency). */
    const BusDesc &busClass(int i) const;

    /** Buses summed over all classes. */
    int numBuses() const;

    /** Latency (and occupancy) of a transfer on bus class @p i. */
    int busLatencyOf(int i) const { return busClass(i).latency; }

    /** Slowest bus latency (1 on bus-less machines; heuristics). */
    int maxBusLatency() const;

    /**
     * Capacity-weighted mean transfer latency over every bus class
     * (1 on bus-less machines), the bus-class cost-model input the
     * partitioner's edge weights and estimator use: a class of
     * @c count non-pipelined buses of latency @c lat sustains
     * count/lat transfers per cycle, so the expectation is
     * numBuses() / sum_i(count_i / lat_i), rounded to the nearest
     * cycle. Equals the class latency on single-class fabrics, so
     * every homogeneous Table-1 preset is unaffected.
     */
    int expectedBusLatency() const;

    /** Operation latency/occupancy table. */
    const LatencyTable &latencies() const { return latencies_; }

    /** Mutable access for configuration tweaks. */
    LatencyTable &latencies() { return latencies_; }

    /** Returns a copy with @p buses replacing the bus classes. */
    MachineConfig withBusClasses(std::vector<BusDesc> buses,
                                 const std::string &name) const;

    /** One-line human-readable summary. */
    std::string summary() const;

    /** Full structural equality (name, clusters, buses, latencies). */
    bool operator==(const MachineConfig &other) const;
    bool operator!=(const MachineConfig &other) const
    {
        return !(*this == other);
    }

  private:
    std::string name_;
    std::vector<ClusterDesc> clusters_;
    std::vector<BusDesc> buses_; ///< sorted by ascending latency
    LatencyTable latencies_;

    /** Shared constructor validation; fatal on invalid shapes. */
    void validate() const;
};

} // namespace gpsched

#endif // GPSCHED_MACHINE_MACHINE_HH
