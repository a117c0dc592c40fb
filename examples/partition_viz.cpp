/**
 * @file
 * Visualize a graph partition: writes Graphviz dot files of a loop
 * DDG before and after the multilevel cluster assignment (clusters
 * colored, cut edges dashed), together with the partition metrics
 * the GP scheme steers by.
 *
 * Run: ./build/examples/partition_viz [out_prefix]
 * Then: dot -Tpng <prefix>_partitioned.dot -o partition.png
 */

#include <cstdio>
#include <string>

#include "graph/dot.hh"
#include "machine/configs.hh"
#include "partition/multilevel.hh"
#include "sched/mii.hh"
#include "support/output.hh"
#include "workload/loop_shapes.hh"

using namespace gpsched;

int
main(int argc, char **argv)
{
    std::string prefix = argc > 1 ? argv[1] : "stencil";

    LatencyTable lat;
    Ddg loop = stencilKernel("stencil9", lat, 9, 400);
    MachineConfig machine = fourClusterConfig(32, 1);
    int mii = computeMii(loop, machine);

    GpPartitioner partitioner(machine);
    GpPartitionResult result = partitioner.run(loop, mii);

    std::string plain_path = prefix + "_plain.dot";
    std::string part_path = prefix + "_partitioned.dot";
    writeOutput(plain_path, [&](std::ostream &os) { writeDot(os, loop); });
    writeOutput(part_path, [&](std::ostream &os) {
        writeDot(os, loop, &result.partition.raw());
    });

    std::printf("loop %s: %d ops, %d deps, MII %d\n",
                loop.name().c_str(), loop.numNodes(), loop.numEdges(),
                mii);
    std::printf("partition: %d cut edges, %d communications, "
                "IIbus %d\n",
                numCutEdges(loop, result.partition),
                numCommunications(loop, result.partition),
                result.iiBus);
    std::printf("estimate: iiEff %d, path %d, execTime %lld "
                "(resources %s)\n",
                result.estimate.iiEff, result.estimate.pathLength,
                static_cast<long long>(result.estimate.execTime),
                result.estimate.resourcesOk ? "ok" : "OVERLOADED");
    for (int c = 0; c < machine.numClusters(); ++c) {
        std::printf("  cluster %d: %zu ops\n", c,
                    result.partition.nodesIn(c).size());
    }
    std::printf("wrote %s and %s\n", plain_path.c_str(),
                part_path.c_str());
    return 0;
}
