#include "testing/fixtures.hh"

#include <utility>

#include <gtest/gtest.h>

#include "graph/ddg_analysis.hh"
#include "graph/ddg_builder.hh"
#include "sched/mii.hh"

namespace gpsched::testing
{

std::vector<CompiledLoop>
unwrapAll(std::vector<CompileResult> results)
{
    std::vector<CompiledLoop> loops;
    loops.reserve(results.size());
    for (CompileResult &result : results) {
        if (!result.ok()) {
            ADD_FAILURE() << "unexpected compile failure for loop '"
                          << result.error->loopName()
                          << "': " << result.error->diagnostic();
            continue;
        }
        loops.push_back(std::move(result.loop));
    }
    return loops;
}

CompiledLoop
unwrapOne(CompileResult result)
{
    EXPECT_TRUE(result.ok())
        << (result.ok() ? std::string()
                        : result.error->diagnostic());
    return std::move(result.loop);
}

CompileResult
compileOne(Engine &engine, const EngineJob &job)
{
    return std::move(engine.compileBatch({job}).front());
}

EngineOptions
oneJobOptions()
{
    EngineOptions options;
    options.jobs = 1;
    return options;
}

Ddg
chainLoop(int n, const LatencyTable &lat)
{
    DdgBuilder b("chain", lat);
    NodeId prev = invalidNode;
    for (int i = 0; i < n; ++i) {
        NodeId v = b.op(Opcode::IAlu, "n" + std::to_string(i));
        if (prev != invalidNode)
            b.flow(prev, v);
        prev = v;
    }
    return b.tripCount(10).build();
}

Ddg
parallelLoop(int n, const LatencyTable &lat)
{
    DdgBuilder b("parallel", lat);
    for (int i = 0; i < n; ++i)
        b.op(Opcode::IAlu, "p" + std::to_string(i));
    return b.tripCount(10).build();
}

Ddg
recurrenceLoop(const LatencyTable &lat)
{
    DdgBuilder b("recurrence", lat);
    NodeId mul = b.op(Opcode::FMul, "ax");
    NodeId add = b.op(Opcode::FAdd, "x");
    b.flow(mul, add);
    b.carried(add, mul, 1);
    return b.tripCount(10).build();
}

Ddg
diamondLoop(const LatencyTable &lat)
{
    DdgBuilder b("diamond", lat);
    NodeId a = b.op(Opcode::Load, "a");
    NodeId x = b.op(Opcode::Load, "x");
    NodeId mul = b.op(Opcode::FMul, "mul");
    NodeId add = b.op(Opcode::FAdd, "add");
    b.flow(a, mul);
    b.flow(x, mul);
    b.flow(a, add);
    b.flow(mul, add);
    NodeId st = b.op(Opcode::Store, "st");
    b.flow(add, st);
    return b.tripCount(10).build();
}

Ddg
memHeavyLoop(int loads, const LatencyTable &lat)
{
    DdgBuilder b("memheavy", lat);
    std::vector<NodeId> leaves;
    for (int i = 0; i < loads; ++i)
        leaves.push_back(b.op(Opcode::Load, "ld" + std::to_string(i)));
    while (leaves.size() > 1) {
        std::vector<NodeId> next;
        for (std::size_t i = 0; i + 1 < leaves.size(); i += 2) {
            NodeId sum = b.op(Opcode::FAdd, "sum");
            b.flow(leaves[i], sum);
            b.flow(leaves[i + 1], sum);
            next.push_back(sum);
        }
        if (leaves.size() % 2 == 1)
            next.push_back(leaves.back());
        leaves = std::move(next);
    }
    NodeId st = b.op(Opcode::Store, "st");
    b.flow(leaves[0], st);
    return b.tripCount(10).build();
}

void
placeAt(PartialSchedule &ps, NodeId v, int cluster, int cycle)
{
    PlacementPlan plan;
    ASSERT_TRUE(ps.planPlacement(v, cluster, cycle, plan))
        << "node " << v << " at (" << cluster << ", " << cycle << ")";
    ps.apply(plan);
}

void
placeInWindow(PartialSchedule &ps, NodeId v, int cluster, int from,
              int to)
{
    PlacementPlan plan;
    ASSERT_TRUE(ps.planInWindow(v, cluster, from, to, plan))
        << "node " << v << " in cluster " << cluster << " [" << from
        << ", " << to << "]";
    ps.apply(plan);
}

bool
canPlace(const PartialSchedule &ps, NodeId v, int cluster, int cycle)
{
    PlacementPlan plan;
    return ps.planPlacement(v, cluster, cycle, plan);
}

std::optional<PartialSchedule>
scheduleLoop(const Ddg &ddg, const MachineConfig &machine,
             ClusterPolicy policy, const Partition *assignment,
             int max_ii_slack)
{
    int mii = computeMii(ddg, machine);
    DdgAnalysis base(ddg, machine.latencies(), mii);
    int max_ii = std::max(mii, base.scheduleLength() + max_ii_slack);
    ModuloScheduler scheduler(ddg, machine);
    for (int ii = mii; ii <= max_ii; ++ii) {
        PartialSchedule ps(ddg, machine, ii);
        if (scheduler.schedule(ps, policy, assignment))
            return ps;
    }
    return std::nullopt;
}

} // namespace gpsched::testing
