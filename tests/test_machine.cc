/**
 * @file
 * Unit tests for the machine model: opcodes, latencies, machine
 * configurations and the paper's Table-1 presets.
 */

#include <gtest/gtest.h>

#include "machine/configs.hh"
#include "machine/machine.hh"
#include "machine/op.hh"

using namespace gpsched;

TEST(Opcode, MnemonicRoundTrip)
{
    for (int i = 0; i < numOpcodes; ++i) {
        Opcode op = static_cast<Opcode>(i);
        Opcode parsed = Opcode::NumOpcodes;
        EXPECT_TRUE(opcodeFromString(toString(op), parsed));
        EXPECT_EQ(parsed, op);
    }
    Opcode unchanged = Opcode::IAlu;
    EXPECT_FALSE(opcodeFromString("fmadd", unchanged));
    EXPECT_EQ(unchanged, Opcode::IAlu);
}

TEST(Opcode, ProgramOpcodesAreTheEightIsaOps)
{
    int count = 0;
    for (int i = 0; i < numOpcodes; ++i)
        count += isProgramOpcode(static_cast<Opcode>(i));
    EXPECT_EQ(count, 8);
    EXPECT_TRUE(isProgramOpcode(Opcode::Load));
    EXPECT_FALSE(isProgramOpcode(Opcode::SpillLd));
    EXPECT_FALSE(isProgramOpcode(Opcode::BusCopy));
}

TEST(Opcode, MemoryOpcodes)
{
    EXPECT_TRUE(isMemoryOpcode(Opcode::Load));
    EXPECT_TRUE(isMemoryOpcode(Opcode::Store));
    EXPECT_TRUE(isMemoryOpcode(Opcode::SpillSt));
    EXPECT_TRUE(isMemoryOpcode(Opcode::CommLd));
    EXPECT_FALSE(isMemoryOpcode(Opcode::FAdd));
    EXPECT_FALSE(isMemoryOpcode(Opcode::BusCopy));
}

TEST(Opcode, StoresDefineNoValue)
{
    EXPECT_FALSE(definesValue(Opcode::Store));
    EXPECT_FALSE(definesValue(Opcode::SpillSt));
    EXPECT_FALSE(definesValue(Opcode::CommSt));
    EXPECT_TRUE(definesValue(Opcode::Load));
    EXPECT_TRUE(definesValue(Opcode::FMul));
    EXPECT_TRUE(definesValue(Opcode::SpillLd));
}

TEST(Opcode, FuClasses)
{
    EXPECT_EQ(fuClassOf(Opcode::IAlu), FuClass::Int);
    EXPECT_EQ(fuClassOf(Opcode::IDiv), FuClass::Int);
    EXPECT_EQ(fuClassOf(Opcode::FMul), FuClass::Fp);
    EXPECT_EQ(fuClassOf(Opcode::Load), FuClass::Mem);
    EXPECT_EQ(fuClassOf(Opcode::SpillSt), FuClass::Mem);
    EXPECT_EQ(fuClassOf(Opcode::CommLd), FuClass::Mem);
}

TEST(LatencyTable, CompanionPaperDefaults)
{
    LatencyTable lat;
    EXPECT_EQ(lat.latency(Opcode::IAlu), 1);
    EXPECT_EQ(lat.latency(Opcode::IMul), 2);
    EXPECT_EQ(lat.latency(Opcode::FAdd), 3);
    EXPECT_EQ(lat.latency(Opcode::FMul), 4);
    EXPECT_EQ(lat.latency(Opcode::Load), 2);
    EXPECT_EQ(lat.latency(Opcode::Store), 1);
}

TEST(LatencyTable, DividesAreNonPipelined)
{
    LatencyTable lat;
    EXPECT_EQ(lat.occupancy(Opcode::IDiv), lat.latency(Opcode::IDiv));
    EXPECT_EQ(lat.occupancy(Opcode::FDiv), lat.latency(Opcode::FDiv));
    EXPECT_EQ(lat.occupancy(Opcode::FMul), 1); // pipelined
}

TEST(LatencyTable, OverrideSticks)
{
    LatencyTable lat;
    lat.setTiming(Opcode::Load, OpTiming{5, 2});
    EXPECT_EQ(lat.latency(Opcode::Load), 5);
    EXPECT_EQ(lat.occupancy(Opcode::Load), 2);
}

TEST(MachineConfig, UnifiedPreset)
{
    MachineConfig m = unifiedConfig(32);
    EXPECT_TRUE(m.unified());
    EXPECT_EQ(m.numClusters(), 1);
    EXPECT_EQ(m.fuPerCluster(FuClass::Int), 4);
    EXPECT_EQ(m.fuPerCluster(FuClass::Fp), 4);
    EXPECT_EQ(m.fuPerCluster(FuClass::Mem), 4);
    EXPECT_EQ(m.totalIssueWidth(), 12);
    EXPECT_EQ(m.regsInCluster(0), 32);
    EXPECT_EQ(m.totalRegs(), 32);
}

TEST(MachineConfig, TwoClusterPreset)
{
    MachineConfig m = twoClusterConfig(64, 1, 1);
    EXPECT_FALSE(m.unified());
    EXPECT_EQ(m.numClusters(), 2);
    EXPECT_EQ(m.fuPerCluster(FuClass::Int), 2);
    EXPECT_EQ(m.totalIssueWidth(), 12);
    EXPECT_EQ(m.regsInCluster(0), 32);
    EXPECT_EQ(m.totalRegs(), 64);
    EXPECT_EQ(m.numBuses(), 1);
    EXPECT_EQ(m.busLatencyOf(0), 1);
}

TEST(MachineConfig, FourClusterPreset)
{
    MachineConfig m = fourClusterConfig(32, 2, 1);
    EXPECT_EQ(m.numClusters(), 4);
    EXPECT_EQ(m.fuPerCluster(FuClass::Int), 1);
    EXPECT_EQ(m.totalIssueWidth(), 12);
    EXPECT_EQ(m.regsInCluster(0), 8);
    EXPECT_EQ(m.busLatencyOf(0), 2);
}

TEST(MachineConfig, PresetNamesCarryTheBusCount)
{
    // One bus keeps the paper's Table-1 names; more buses append
    // "-x<N>", as fig_buses' scaled machines do, so presets that
    // differ only in their bus count never share a name.
    EXPECT_EQ(unifiedConfig(32).name(), "unified-r32");
    EXPECT_EQ(twoClusterConfig(32, 1, 1).name(), "2c-r32-b1");
    EXPECT_EQ(fourClusterConfig(64, 1, 1).name(), "4c-r64-b1");
    EXPECT_EQ(fourClusterConfig(64, 1, 2).name(), "4c-r64-b1-x2");
    EXPECT_EQ(twoClusterConfig(32, 2, 3).name(), "2c-r32-b2-x3");
}

TEST(MachineConfig, AllPresetsAreTwelveIssue)
{
    for (const MachineConfig &m : table1Configs())
        EXPECT_EQ(m.totalIssueWidth(), 12) << m.name();
}

TEST(MachineConfig, TotalFuSumsClusters)
{
    MachineConfig m = fourClusterConfig(32, 1, 1);
    EXPECT_EQ(m.totalFu(FuClass::Int), 4);
    EXPECT_EQ(m.totalFu(FuClass::Mem), 4);
}

TEST(MachineConfig, SummaryMentionsShape)
{
    MachineConfig m = twoClusterConfig(32, 1, 1);
    std::string s = m.summary();
    EXPECT_NE(s.find("2"), std::string::npos);
}

TEST(MachineConfig, RegistersSplitEvenly)
{
    // The paper divides the total register file homogeneously.
    for (const MachineConfig &m :
         {twoClusterConfig(32, 1, 1), fourClusterConfig(64, 1, 1)}) {
        for (int c = 0; c < m.numClusters(); ++c)
            EXPECT_EQ(m.regsInCluster(c), 16) << m.name();
    }
}

using ConfigDeathTest = ::testing::Test;

TEST(ConfigDeathTest, ClusteredMachineNeedsABus)
{
    EXPECT_DEATH(MachineConfig("bad", 2, 2, 2, 2, 32, 0, 1), "");
}

TEST(ConfigDeathTest, RegistersMustDivide)
{
    EXPECT_DEATH(MachineConfig("bad", 4, 1, 1, 1, 30, 1, 1), "");
}
