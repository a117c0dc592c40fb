#include "sched/mii.hh"

#include <algorithm>

#include "support/compile_error.hh"
#include "support/logging.hh"

namespace gpsched
{

int
resMii(const Ddg &ddg, const MachineConfig &machine)
{
    int worst = 1;
    for (int k = 0; k < numFuClasses; ++k) {
        FuClass cls = static_cast<FuClass>(k);
        int occ = ddg.totalOccupancy(cls, machine.latencies());
        int units = machine.totalFu(cls);
        worst = std::max(worst, (occ + units - 1) / units);
    }
    return worst;
}

int
computeMii(const Ddg &ddg, const MachineConfig &machine)
{
    // A DDG's flow-edge latencies are baked in when the graph is
    // built (from whatever latency table the builder saw); the
    // schedulers read op latencies from @p machine. If the machine's
    // producer latency exceeds an edge's promise, every downstream
    // layer would disagree about when the value exists — the oracle
    // validator rejects such schedules — so refuse loudly here, at
    // the driver choke point, rather than emit a corrupt schedule.
    // (Machines with the default timing table can never trip this;
    // it exists for `.machine` files using the `latency` directive
    // on prebuilt workloads.) Thrown, not fatal: the rejection is
    // recoverable per loop — the engine turns it into a diagnostic
    // CompileResult so one bad loop never kills a batch.
    const LatencyTable &lat = machine.latencies();
    for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
        const DdgEdge &edge = ddg.edge(e);
        if (!edge.isFlow())
            continue;
        int producer = lat.latency(ddg.node(edge.src).opcode);
        if (edge.latency < producer) {
            GPSCHED_COMPILE_ERROR(
                CompileErrorKind::InvalidInput, ddg.name(),
                "loop '", ddg.name(), "': flow edge ", edge.src,
                " -> ", edge.dst, " promises latency ", edge.latency,
                " but machine '", machine.name(), "' needs ",
                producer, " for ", toString(ddg.node(edge.src).opcode),
                "; rebuild the DDG against this machine's latency "
                "table (its `latency` overrides exceed the table the "
                "workload was generated with)");
        }
    }
    return std::max(resMii(ddg, machine), ddg.recMii());
}

} // namespace gpsched
