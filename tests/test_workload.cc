/**
 * @file
 * Unit tests for the workload generators: shape invariants of every
 * kernel family, determinism of the synthetic SPECfp95 suite, and
 * schedulability of everything it emits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "graph/ddg_analysis.hh"
#include "graph/scc.hh"
#include "graph/textio.hh"
#include "machine/configs.hh"
#include "sched/mii.hh"
#include "workload/loop_shapes.hh"
#include "workload/specfp.hh"

using namespace gpsched;

namespace
{

int
countOps(const Ddg &g, FuClass cls)
{
    int count = 0;
    for (NodeId v = 0; v < g.numNodes(); ++v)
        count += fuClassOf(g.node(v).opcode) == cls;
    return count;
}

bool
hasRecurrence(const Ddg &g)
{
    const std::vector<bool> &rec = g.sccs().isRecurrence;
    return std::find(rec.begin(), rec.end(), true) != rec.end();
}

} // namespace

TEST(LoopShapes, StreamKernelShape)
{
    LatencyTable lat;
    Ddg g = streamKernel("s", lat, 3, 2, 123);
    EXPECT_EQ(g.tripCount(), 123);
    // Per stream: addr + load + chain + store; plus the induction.
    EXPECT_EQ(g.numNodes(), 1 + 3 * (2 + 2 + 1));
    EXPECT_EQ(countOps(g, FuClass::Mem), 6); // 3 loads + 3 stores
    EXPECT_TRUE(hasRecurrence(g));       // induction variable
}

TEST(LoopShapes, StencilIsMemoryHeavy)
{
    LatencyTable lat;
    Ddg g = stencilKernel("st", lat, 9, 100);
    EXPECT_EQ(countOps(g, FuClass::Mem), 10); // 9 loads + 1 store
    // Memory ResMII dominates on the 4-port machines.
    EXPECT_GE(resMii(g, unifiedConfig(32)), 3);
}

TEST(LoopShapes, ReductionCarriesAnAccumulator)
{
    LatencyTable lat;
    Ddg g = reductionKernel("r", lat, 4, 100);
    EXPECT_TRUE(hasRecurrence(g));
    // The accumulator self-dependence bounds the II by FAdd latency.
    EXPECT_GE(recMii(g), 3);
}

TEST(LoopShapes, RecurrenceKernelHasTheRightRecMii)
{
    LatencyTable lat;
    Ddg g = recurrenceKernel("rec", lat, 6, 100);
    // x = a*x + b: FMul(4) + FAdd(3) at distance 1.
    EXPECT_EQ(recMii(g), 7);
}

TEST(LoopShapes, WideBlockIsWide)
{
    LatencyTable lat;
    Ddg g = wideBlockKernel("w", lat, 12, 5, 100);
    // Lots of FP work relative to memory traffic (fpppp-like).
    EXPECT_GT(countOps(g, FuClass::Fp), 2 * countOps(g, FuClass::Mem));
    // Plenty of ILP: the flat schedule is far shorter than the
    // serial op count.
    DdgAnalysis a(g, lat, recMii(g));
    EXPECT_LT(a.scheduleLength(), g.numNodes());
}

TEST(LoopShapes, DotProductAndDaxpyUnroll)
{
    LatencyTable lat;
    Ddg d1 = dotProductKernel("d", lat, 1, 10);
    Ddg d3 = dotProductKernel("d", lat, 3, 10);
    EXPECT_EQ(d3.numNodes() - d1.numNodes(), 2 * 4);
    Ddg y2 = daxpyKernel("y", lat, 2, 10);
    EXPECT_EQ(countOps(y2, FuClass::Mem), 6); // 2x (2 loads + 1 store)
}

TEST(LoopShapes, IntAddressKernelIsIntegerHeavy)
{
    LatencyTable lat;
    Ddg g = intAddressKernel("ia", lat, 4, 100);
    EXPECT_GT(countOps(g, FuClass::Int), countOps(g, FuClass::Fp));
}

TEST(LoopShapes, RandomLoopRespectsParams)
{
    LatencyTable lat;
    Rng rng(5);
    RandomLoopParams params;
    params.numOps = 40;
    params.tripCount = 77;
    Ddg g = randomLoop("r", lat, rng, params);
    EXPECT_EQ(g.numNodes(), 40);
    EXPECT_EQ(g.tripCount(), 77);
    // Flow edges only leave defining opcodes (the builder enforces
    // it; reaching here alive is the assertion).
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        if (g.edge(e).isFlow()) {
            EXPECT_TRUE(definesValue(g.node(g.edge(e).src).opcode));
        }
    }
}

TEST(LoopShapes, RandomLoopDeterministicPerSeed)
{
    LatencyTable lat;
    Rng a(9), b(9);
    std::ostringstream sa, sb;
    writeDdgText(sa, randomLoop("r", lat, a));
    writeDdgText(sb, randomLoop("r", lat, b));
    EXPECT_EQ(sa.str(), sb.str());
}

TEST(SpecFp, TenBenchmarksInPaperOrder)
{
    const auto &names = specFp95Names();
    ASSERT_EQ(names.size(), 10u);
    EXPECT_EQ(names.front(), "tomcatv");
    EXPECT_EQ(names.back(), "wave5");
    LatencyTable lat;
    auto suite = specFp95Suite(lat);
    ASSERT_EQ(suite.size(), 10u);
    for (std::size_t i = 0; i < suite.size(); ++i)
        EXPECT_EQ(suite[i].name, names[i]);
}

TEST(SpecFp, EveryProgramHasLoopsWithTrips)
{
    LatencyTable lat;
    for (const Program &prog : specFp95Suite(lat)) {
        EXPECT_GE(prog.loops.size(), 4u) << prog.name;
        for (const Ddg &g : prog.loops) {
            EXPECT_GT(g.numNodes(), 0) << g.name();
            EXPECT_GE(g.tripCount(), 10) << g.name();
        }
    }
}

TEST(SpecFp, SuiteIsBitStable)
{
    LatencyTable lat;
    auto a = specFp95Suite(lat);
    auto b = specFp95Suite(lat);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].loops.size(), b[i].loops.size());
        for (std::size_t j = 0; j < a[i].loops.size(); ++j) {
            std::ostringstream sa, sb;
            writeDdgText(sa, a[i].loops[j]);
            writeDdgText(sb, b[i].loops[j]);
            EXPECT_EQ(sa.str(), sb.str())
                << a[i].name << " loop " << j;
        }
    }
}

TEST(SpecFp, BenchmarkCharactersHold)
{
    LatencyTable lat;
    auto suite = specFp95Suite(lat);
    auto find = [&](const std::string &name) -> const Program & {
        for (const Program &p : suite) {
            if (p.name == name)
                return p;
        }
        ADD_FAILURE() << "missing " << name;
        return suite.front();
    };

    // fpppp: register-hungry wide FP blocks.
    const Program &fpppp = find("fpppp");
    int fp = 0, mem = 0;
    for (const Ddg &g : fpppp.loops) {
        fp += countOps(g, FuClass::Fp);
        mem += countOps(g, FuClass::Mem);
    }
    EXPECT_GT(fp, 2 * mem);

    // mgrid: memory bound.
    const Program &mgrid = find("mgrid");
    int m_mem = 0, m_total = 0;
    for (const Ddg &g : mgrid.loops) {
        m_mem += countOps(g, FuClass::Mem);
        m_total += g.numNodes();
    }
    EXPECT_GT(4 * m_mem, m_total); // > 25% memory ops

    // hydro2d: at least two recurrence-limited loops.
    const Program &hydro = find("hydro2d");
    int rec_loops = 0;
    for (const Ddg &g : hydro.loops)
        rec_loops += recMii(g) >= 7;
    EXPECT_GE(rec_loops, 2);
}

TEST(SpecFp, UnknownBenchmarkIsFatal)
{
    LatencyTable lat;
    EXPECT_DEATH(specFp95Program("nosuch", lat), "");
}

TEST(SpecFp, FeasibleAtMiiOnUnified)
{
    LatencyTable lat;
    MachineConfig m = unifiedConfig(64);
    for (const Program &prog : specFp95Suite(lat)) {
        for (const Ddg &g : prog.loops) {
            int mii = computeMii(g, m);
            DdgAnalysis a(g, lat, mii);
            EXPECT_TRUE(a.feasible())
                << prog.name << "/" << g.name();
        }
    }
}
