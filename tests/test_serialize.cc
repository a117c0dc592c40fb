/**
 * @file
 * The binary serialization subsystem: primitive round trips,
 * bounds-checked reader behaviour on truncated and corrupt input,
 * and the headline property — encode -> decode -> re-encode of
 * CompiledLoop/LoopKey is bit-identical, and a second cold compile
 * encodes the same bytes, for ~100 random loops compiled under all
 * three schemes on homogeneous and heterogeneous machines.
 */

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/gp_scheduler.hh"
#include "engine/loop_key.hh"
#include "machine/configs.hh"
#include "serialize/bytes.hh"
#include "serialize/record.hh"
#include "support/random.hh"
#include "testing/fixtures.hh"
#include "workload/loop_shapes.hh"

using namespace gpsched;
using namespace gpsched::testing;

namespace
{

/** Loops for the round-trip property; GPSCHED_PROPERTY_LOOPS scales
 *  it like the scheduling property sweep. */
int
numLoops()
{
    if (const char *env = std::getenv("GPSCHED_PROPERTY_LOOPS")) {
        int n = std::atoi(env);
        if (n > 0)
            return n;
    }
    return 100;
}

RandomLoopParams
drawParams(Rng &rng)
{
    RandomLoopParams p;
    p.numOps = static_cast<int>(rng.nextRange(6, 48));
    p.memFraction = 0.1 + 0.4 * rng.nextDouble();
    p.fpFraction = 0.3 + 0.4 * rng.nextDouble();
    p.carriedProb = 0.4 * rng.nextDouble();
    p.fanoutProb = 0.2 + 0.3 * rng.nextDouble();
    p.maxDistance = static_cast<int>(rng.nextRange(1, 4));
    p.tripCount = rng.nextRange(4, 400);
    return p;
}

/** Wide + narrow clusters joined by a fast and a slow bus. */
MachineConfig
heterogeneousMachine()
{
    std::vector<ClusterDesc> clusters(2);
    clusters[0].name = "wide";
    clusters[0].fu[static_cast<int>(FuClass::Int)] = 3;
    clusters[0].fu[static_cast<int>(FuClass::Fp)] = 2;
    clusters[0].fu[static_cast<int>(FuClass::Mem)] = 2;
    clusters[0].regs = 24;
    clusters[1].name = "narrow";
    clusters[1].fu[static_cast<int>(FuClass::Int)] = 1;
    clusters[1].fu[static_cast<int>(FuClass::Fp)] = 1;
    clusters[1].fu[static_cast<int>(FuClass::Mem)] = 1;
    clusters[1].regs = 8;
    return MachineConfig("hetero-2c", std::move(clusters),
                         {BusDesc{1, 1}, BusDesc{1, 2}});
}

/** Every field, bit for bit (doubles compared by value identity —
 *  the codec stores IEEE-754 patterns, so exact equality holds). */
void
expectLoopsEqual(const CompiledLoop &a, const CompiledLoop &b)
{
    EXPECT_EQ(a.loopName, b.loopName);
    EXPECT_EQ(a.moduloScheduled, b.moduloScheduled);
    EXPECT_EQ(a.mii, b.mii);
    EXPECT_EQ(a.ii, b.ii);
    EXPECT_EQ(a.scheduleLength, b.scheduleLength);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_TRUE(a.stats == b.stats);
    EXPECT_EQ(a.partitionRuns, b.partitionRuns);
    EXPECT_EQ(a.scheduleAttempts, b.scheduleAttempts);
    EXPECT_EQ(a.placements, b.placements);
    EXPECT_EQ(a.transfers, b.transfers);
    EXPECT_EQ(a.spills, b.spills);
    EXPECT_EQ(a.partition, b.partition);
}

} // namespace

// --- primitives ----------------------------------------------------

TEST(Bytes, PrimitivesRoundTrip)
{
    ByteWriter w;
    w.u8(0xab);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefULL);
    w.i32(-42);
    w.i64(std::numeric_limits<std::int64_t>::min());
    w.f64(3.14159);
    w.f64(-0.0);
    w.str(std::string("nul\0inside", 10)); // embedded NUL survives
    w.str("");

    ByteReader r(w.buffer());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.i32(), -42);
    EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(r.f64(), 3.14159);
    double negZero = r.f64();
    EXPECT_EQ(negZero, 0.0);
    EXPECT_TRUE(std::signbit(negZero));
    EXPECT_EQ(r.str(), std::string("nul\0inside", 10));
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.atEnd());
}

TEST(Bytes, EncodingIsLittleEndianStable)
{
    ByteWriter w;
    w.u32(0x01020304u);
    const std::string &b = w.buffer();
    ASSERT_EQ(b.size(), 4u);
    EXPECT_EQ(static_cast<unsigned char>(b[0]), 0x04);
    EXPECT_EQ(static_cast<unsigned char>(b[3]), 0x01);
}

TEST(Bytes, ReaderFailsStickyOnUnderflow)
{
    ByteWriter w;
    w.u32(7);
    ByteReader r(w.buffer());
    EXPECT_EQ(r.u32(), 7u);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.u64(), 0u); // past the end
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.u8(), 0u); // still failed
    EXPECT_FALSE(r.atEnd());
}

TEST(Bytes, CorruptStringLengthCannotOverAllocate)
{
    ByteWriter w;
    w.u32(0xffffffffu); // claims a 4 GiB string
    ByteReader r(w.buffer());
    EXPECT_EQ(r.str(), "");
    EXPECT_FALSE(r.ok());
}

// --- LoopKey -------------------------------------------------------

TEST(Record, LoopKeyRoundTripsAndVerifiesDigest)
{
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(64, 1);
    Ddg g = diamondLoop(lat);
    LoopKey key = makeLoopKey(g, m, SchedulerKind::Gp, {});

    ByteWriter w;
    encodeLoopKey(w, key);
    ByteReader r(w.buffer());
    LoopKey back;
    ASSERT_TRUE(decodeLoopKey(r, back));
    EXPECT_EQ(back, key);

    // A corrupted digest must be rejected even when the canonical
    // bytes decode cleanly.
    ByteWriter bad;
    LoopKey tampered = key;
    tampered.digest ^= 1;
    encodeLoopKey(bad, tampered);
    ByteReader rbad(bad.buffer());
    EXPECT_FALSE(decodeLoopKey(rbad, back));
}

// --- the round-trip property --------------------------------------

TEST(Record, CompiledLoopRoundTripIsBitIdentical)
{
    LatencyTable lat;
    Rng master(0xd15c5eedULL);
    std::vector<MachineConfig> machines = {fourClusterConfig(32, 1),
                                           heterogeneousMachine()};
    const std::vector<SchedulerKind> schemes = {
        SchedulerKind::Uracam, SchedulerKind::FixedPartition,
        SchedulerKind::Gp};

    const int loops = numLoops();
    int checked = 0;
    for (int i = 0; i < loops; ++i) {
        std::uint64_t seed = master.next();
        Rng rng(seed);
        RandomLoopParams params = drawParams(rng);
        Ddg g = randomLoop("ser" + std::to_string(i), lat, rng,
                           params);
        for (const MachineConfig &m : machines) {
            for (SchedulerKind kind : schemes) {
                LoopCompiler compiler(m, kind);
                CompiledLoop compiled = compiler.compile(g);
                LoopKey key = makeLoopKey(g, m, kind, {});

                std::string record =
                    encodeCacheRecord(key, compiled);
                LoopKey keyBack;
                CompiledLoop loopBack;
                ASSERT_TRUE(
                    decodeCacheRecord(record, keyBack, loopBack))
                    << "seed " << seed << " on " << m.name();
                EXPECT_EQ(keyBack, key);
                expectLoopsEqual(compiled, loopBack);

                // Re-encoding the decoded record must reproduce the
                // original bytes exactly (the bit-identity bar).
                EXPECT_EQ(encodeCacheRecord(keyBack, loopBack),
                          record)
                    << "seed " << seed << " on " << m.name();

                // A record is a pure function of its key: a second
                // cold compile encodes to the same bytes.
                EXPECT_EQ(encodeCacheRecord(key, compiler.compile(g)),
                          record)
                    << "seed " << seed << " on " << m.name();
                ++checked;
            }
        }
    }
    EXPECT_EQ(checked,
              loops * static_cast<int>(machines.size()) *
                  static_cast<int>(schemes.size()));
}

// --- corruption at the byte level ---------------------------------

TEST(Record, EverySingleByteFlipIsRejected)
{
    LatencyTable lat;
    MachineConfig m = twoClusterConfig(32, 1);
    Ddg g = diamondLoop(lat);
    LoopCompiler compiler(m, SchedulerKind::Gp);
    CompiledLoop compiled = compiler.compile(g);
    LoopKey key = makeLoopKey(g, m, SchedulerKind::Gp, {});
    const std::string record = encodeCacheRecord(key, compiled);

    LoopKey keyBack;
    CompiledLoop loopBack;
    ASSERT_TRUE(decodeCacheRecord(record, keyBack, loopBack));

    for (std::size_t i = 0; i < record.size(); ++i) {
        std::string corrupt = record;
        corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
        EXPECT_FALSE(decodeCacheRecord(corrupt, keyBack, loopBack))
            << "flip at byte " << i << " went undetected";
    }
}

TEST(Record, EveryTruncationIsRejected)
{
    LatencyTable lat;
    MachineConfig m = twoClusterConfig(32, 1);
    Ddg g = recurrenceLoop(lat);
    LoopCompiler compiler(m, SchedulerKind::FixedPartition);
    CompiledLoop compiled = compiler.compile(g);
    LoopKey key =
        makeLoopKey(g, m, SchedulerKind::FixedPartition, {});
    const std::string record = encodeCacheRecord(key, compiled);

    LoopKey keyBack;
    CompiledLoop loopBack;
    for (std::size_t n = 0; n < record.size(); ++n) {
        EXPECT_FALSE(decodeCacheRecord(record.substr(0, n), keyBack,
                                       loopBack))
            << "prefix of " << n << " bytes decoded";
    }
    // Trailing garbage is corruption too.
    EXPECT_FALSE(
        decodeCacheRecord(record + '\0', keyBack, loopBack));
}

TEST(Record, VersionMismatchesAreRejected)
{
    LatencyTable lat;
    MachineConfig m = twoClusterConfig(32, 1);
    Ddg g = diamondLoop(lat);
    LoopCompiler compiler(m, SchedulerKind::Gp);
    CompiledLoop compiled = compiler.compile(g);
    LoopKey key = makeLoopKey(g, m, SchedulerKind::Gp, {});
    const std::string record = encodeCacheRecord(key, compiled);

    LoopKey keyBack;
    CompiledLoop loopBack;
    std::string futureFormat = record;
    futureFormat[recordVersionOffset] =
        static_cast<char>(recordFormatVersion + 1);
    EXPECT_FALSE(
        decodeCacheRecord(futureFormat, keyBack, loopBack));

    std::string futureSchema = record;
    futureSchema[recordKeySchemaOffset] =
        static_cast<char>(keySchemaVersion + 1);
    EXPECT_FALSE(
        decodeCacheRecord(futureSchema, keyBack, loopBack));
}

// --- payload coverage ---------------------------------------------

TEST(Record, SchedulePayloadCoversTransfersAndPartition)
{
    // A clustered machine with real communications: the recorded
    // schedule must carry placements for every node, transfers with
    // in-range bus classes, and the partition the compiler used.
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(32, 1);
    Ddg g = memHeavyLoop(6, lat);
    LoopCompiler compiler(m, SchedulerKind::Gp);
    CompiledLoop compiled = compiler.compile(g);

    ASSERT_TRUE(compiled.moduloScheduled);
    ASSERT_EQ(static_cast<int>(compiled.placements.size()),
              g.numNodes());
    for (const OpPlacement &p : compiled.placements) {
        EXPECT_GE(p.cluster, 0);
        EXPECT_LT(p.cluster, m.numClusters());
    }
    ASSERT_EQ(static_cast<int>(compiled.partition.size()),
              g.numNodes());
    for (int cluster : compiled.partition) {
        EXPECT_GE(cluster, 0);
        EXPECT_LT(cluster, m.numClusters());
    }
    for (const Transfer &t : compiled.transfers) {
        EXPECT_GE(t.producer, 0);
        EXPECT_LT(t.producer, g.numNodes());
        EXPECT_GE(t.destCluster, 0);
        EXPECT_LT(t.destCluster, m.numClusters());
        if (t.viaBus) {
            EXPECT_GE(t.busClass, 0);
            EXPECT_LT(t.busClass, m.numBusClasses());
        }
    }
}
