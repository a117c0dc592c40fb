/**
 * @file
 * The persistent compile cache: store/lookup round trips, the
 * acceptance-bar warm rerun (>= 90% disk hits, bit-identical
 * schedules, no write to the store), corruption robustness
 * (truncation, bit flips, version bumps, garbage, a torn pack tail —
 * always a miss plus eviction, never a crash or a wrong schedule),
 * the size budget applied at open, and a two-engine shared-directory
 * stress run whose results must match a serial compile without it
 * while every pack stays a clean sequence of valid records.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/gp_scheduler.hh"
#include "core/pipeline.hh"
#include "engine/disk_cache.hh"
#include "engine/engine.hh"
#include "engine/loop_key.hh"
#include "machine/configs.hh"
#include "sched/validate.hh"
#include "serialize/record.hh"
#include "testing/fixtures.hh"
#include "testing/heap_count.hh"
#include "workload/specfp.hh"

namespace fs = std::filesystem;

using namespace gpsched;
using namespace gpsched::testing;

namespace
{

/** Fresh empty cache directory unique to this test and process. */
std::string
freshCacheDir(const std::string &tag)
{
    fs::path dir = fs::temp_directory_path() /
                   ("gpsched_" + tag + "_" +
                    std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** Every pack file currently in @p dir. */
std::vector<fs::path>
packFiles(const std::string &dir)
{
    std::vector<fs::path> files;
    for (const fs::directory_entry &entry :
         fs::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".gpp")
            files.push_back(entry.path());
    }
    return files;
}

/** Every non-pack file currently in @p dir. */
std::vector<fs::path>
strayFiles(const std::string &dir)
{
    std::vector<fs::path> files;
    for (const fs::directory_entry &entry :
         fs::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file() &&
            entry.path().extension() != ".gpp")
            files.push_back(entry.path());
    }
    return files;
}

std::string
readBytes(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/**
 * Splits the pack at @p path into its records by the payload size in
 * each header. False when the bytes do not end exactly at a record
 * boundary.
 */
bool
splitPack(const fs::path &path, std::vector<std::string> &records)
{
    const std::string bytes = readBytes(path);
    std::size_t at = 0;
    while (bytes.size() - at >= recordHeaderSize) {
        ByteReader header(bytes.data() + at, recordHeaderSize);
        header.u32();
        header.u32();
        header.u32();
        const std::uint64_t payload = header.u64();
        if (payload > bytes.size() - at - recordHeaderSize)
            return false;
        records.push_back(
            bytes.substr(at, recordHeaderSize + payload));
        at += recordHeaderSize + payload;
    }
    return at == bytes.size();
}

/** Records in every pack of @p dir; each pack must split cleanly. */
std::size_t
recordCount(const std::string &dir)
{
    std::vector<std::string> records;
    for (const fs::path &pack : packFiles(dir))
        EXPECT_TRUE(splitPack(pack, records)) << pack;
    return records.size();
}

/** Size and mtime of every file under @p dir, by path. */
std::map<fs::path, std::pair<std::uintmax_t, fs::file_time_type>>
storeSnapshot(const std::string &dir)
{
    std::map<fs::path, std::pair<std::uintmax_t, fs::file_time_type>>
        files;
    for (const fs::directory_entry &entry :
         fs::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file())
            files[entry.path()] = {entry.file_size(),
                                   entry.last_write_time()};
    }
    return files;
}

/** Full bit-level comparison, including the schedule payload. */
void
expectLoopsIdentical(const CompiledLoop &a, const CompiledLoop &b,
                     const std::string &context)
{
    EXPECT_EQ(a.loopName, b.loopName) << context;
    EXPECT_EQ(a.moduloScheduled, b.moduloScheduled) << context;
    EXPECT_EQ(a.mii, b.mii) << context;
    EXPECT_EQ(a.ii, b.ii) << context;
    EXPECT_EQ(a.scheduleLength, b.scheduleLength) << context;
    EXPECT_EQ(a.cycles, b.cycles) << context;
    EXPECT_EQ(a.ops, b.ops) << context;
    EXPECT_EQ(a.ipc, b.ipc) << context;
    EXPECT_TRUE(a.stats == b.stats) << context;
    EXPECT_EQ(a.partitionRuns, b.partitionRuns) << context;
    EXPECT_EQ(a.scheduleAttempts, b.scheduleAttempts) << context;
    EXPECT_EQ(a.placements, b.placements) << context;
    EXPECT_EQ(a.transfers, b.transfers) << context;
    EXPECT_EQ(a.spills, b.spills) << context;
    EXPECT_EQ(a.partition, b.partition) << context;
}

/** A small multi-program batch over the synthetic suite. */
std::vector<EngineJob>
suiteBatch(const std::vector<Program> &suite,
           const MachineConfig &machine)
{
    std::vector<EngineJob> batch;
    for (const Program &program : suite) {
        for (const Ddg &loop : program.loops) {
            for (SchedulerKind kind :
                 {SchedulerKind::Uracam,
                  SchedulerKind::FixedPartition, SchedulerKind::Gp})
                batch.push_back(
                    EngineJob{&loop, &machine, kind, {}});
        }
    }
    return batch;
}

} // namespace

// --- basic round trip ---------------------------------------------

TEST(DiskCache, StoreThenLookupRoundTrips)
{
    std::string dir = freshCacheDir("roundtrip");
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(32, 1);
    Ddg g = diamondLoop(lat);
    LoopCompiler compiler(m, SchedulerKind::Gp);
    CompiledLoop compiled = compiler.compile(g);
    LoopKey key = makeLoopKey(g, m, SchedulerKind::Gp, {});

    MetricRegistry registry;
    DiskCache cache(dir, 0, &registry);
    CompiledLoop out;
    EXPECT_FALSE(cache.lookup(key, out));
    cache.store(key, compiled);
    EXPECT_EQ(packFiles(dir).size(), 1u);
    EXPECT_EQ(recordCount(dir), 1u);
    ASSERT_TRUE(cache.lookup(key, out));
    expectLoopsIdentical(compiled, out, "round trip");

    EXPECT_EQ(registry.counter("disk.hits").value(), 1u);
    EXPECT_EQ(registry.counter("disk.misses").value(), 1u);
    EXPECT_EQ(registry.counter("disk.stores").value(), 1u);
    EXPECT_EQ(registry.counter("disk.corruptEvicted").value(), 0u);
    EXPECT_EQ(registry.counter("disk.compacted").value(), 0u);

    // A second cache object over the same directory — a new process
    // in miniature — sees the record.
    DiskCache reopened(dir, 0);
    ASSERT_TRUE(reopened.lookup(key, out));
    expectLoopsIdentical(compiled, out, "reopened");
    fs::remove_all(dir);
}

/**
 * A warm hit allocates only the decoded value's own storage: the
 * record is read into a reused per-thread buffer and the stored key
 * is compared in place, never copied.
 */
TEST(DiskCache, WarmHitAllocatesOnlyTheValue)
{
    std::string dir = freshCacheDir("hitalloc");
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(32, 1);
    Ddg g = memHeavyLoop(5, lat);
    CompiledLoop compiled =
        LoopCompiler(m, SchedulerKind::Gp).compile(g);
    LoopKey key = makeLoopKey(g, m, SchedulerKind::Gp, {});

    DiskCache cache(dir, 0);
    cache.store(key, compiled);
    CompiledLoop out;
    ASSERT_TRUE(cache.lookup(key, out)); // grows the read buffer

    // One allocation per non-empty vector of the value; the loop
    // name fits the string's inline buffer.
    ASSERT_LT(compiled.loopName.size(), 16u);
    const long valueAllocations =
        !compiled.placements.empty() + !compiled.transfers.empty() +
        !compiled.spills.empty() + !compiled.partition.empty();
    const long before = heapAllocations();
    ASSERT_TRUE(cache.lookup(key, out));
    EXPECT_EQ(heapAllocations() - before, valueAllocations);
    expectLoopsIdentical(compiled, out, "warm hit");
    fs::remove_all(dir);
}

// --- the warm-rerun acceptance bar --------------------------------

TEST(DiskCache, WarmRerunHitsOverNinetyPercentBitIdentical)
{
    std::string dir = freshCacheDir("warm");
    LatencyTable lat;
    std::vector<Program> suite = specFp95Suite(lat);
    suite.resize(3);
    MachineConfig m = fourClusterConfig(32, 1);

    std::vector<CompiledLoop> cold;
    {
        EngineOptions options;
        options.jobs = 2;
        options.cacheDir = dir;
        Engine engine(options);
        std::vector<EngineJob> batch = suiteBatch(suite, m);
        cold = unwrapAll(engine.compileBatch(batch));
        EXPECT_EQ(engine.metrics().counterValue("disk.hits"), 0u);
        EXPECT_GT(engine.metrics().counterValue("disk.stores"), 0u);
    }

    // A fresh engine (fresh in-memory cache): every unique shape
    // must now be served from disk, and hits write nothing.
    const auto before = storeSnapshot(dir);
    ASSERT_FALSE(before.empty());
    EngineOptions options;
    options.jobs = 2;
    options.cacheDir = dir;
    Engine engine(options);
    std::vector<EngineJob> batch = suiteBatch(suite, m);
    std::vector<CompiledLoop> warm =
        unwrapAll(engine.compileBatch(batch));

    const std::uint64_t diskHits =
        engine.metrics().counterValue("disk.hits");
    const std::uint64_t diskMisses =
        engine.metrics().counterValue("disk.misses");
    EXPECT_GE(static_cast<double>(diskHits),
              0.9 * static_cast<double>(diskHits + diskMisses))
        << "diskHits " << diskHits << " diskMisses " << diskMisses;
    EXPECT_GT(diskHits, 0u);
    EXPECT_EQ(engine.metrics().counterValue("engine.cacheMisses"), 0u)
        << "nothing should recompile";
    EXPECT_TRUE(storeSnapshot(dir) == before)
        << "a warm batch changed a file of the store";

    ASSERT_EQ(cold.size(), warm.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
        expectLoopsIdentical(cold[i], warm[i],
                             "batch index " + std::to_string(i));
    }
    fs::remove_all(dir);
}

// --- corruption robustness ----------------------------------------

namespace
{

/**
 * Compiles one loop through an engine bound to @p dir (publishing
 * one record, alone in its pack), corrupts that pack with
 * @p corrupt, then verifies
 * the corrupted store degrades to a miss: a fresh engine recompiles,
 * the result is bit-identical to a cache-less compile, and the loop
 * itself passes the independent schedule oracle.
 */
void
corruptionScenario(const std::string &tag,
                   const std::function<void(const fs::path &)>
                       &corrupt)
{
    std::string dir = freshCacheDir(tag);
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(32, 1);
    Ddg g = memHeavyLoop(5, lat);

    // Reference: a cache-less compile, plus the oracle on a fresh
    // schedule of the same loop.
    LoopCompiler compiler(m, SchedulerKind::Gp);
    CompiledLoop reference = compiler.compile(g);
    auto oracle = scheduleLoop(g, m);
    ASSERT_TRUE(oracle.has_value());
    auto validation = validateSchedule(g, m, *oracle);
    ASSERT_TRUE(validation) << validation.message;

    {
        EngineOptions options;
        options.jobs = 1;
        options.cacheDir = dir;
        Engine engine(options);
        compileOne(engine, EngineJob{&g, &m, SchedulerKind::Gp, {}});
    }
    std::vector<fs::path> packs = packFiles(dir);
    ASSERT_EQ(packs.size(), 1u);
    ASSERT_EQ(recordCount(dir), 1u);
    corrupt(packs[0]);

    EngineOptions options;
    options.jobs = 1;
    options.cacheDir = dir;
    Engine engine(options);
    CompiledLoop recompiled = unwrapOne(
        compileOne(engine, EngineJob{&g, &m, SchedulerKind::Gp, {}}));

    // The corrupted record was a miss (and was evicted: rejected by
    // the open scan or by the lookup's verification), the loop
    // was recompiled, and the recompiled schedule is bit-identical
    // to the never-cached reference.
    const MetricRegistry &metrics = engine.metrics();
    EXPECT_EQ(metrics.counterValue("disk.hits"), 0u);
    EXPECT_EQ(metrics.counterValue("disk.corruptEvicted"), 1u);
    EXPECT_EQ(metrics.counterValue("engine.cacheMisses"), 1u);
    expectLoopsIdentical(reference, recompiled, tag);
    fs::remove_all(dir);
}

} // namespace

TEST(DiskCache, TruncatedRecordIsAMissAndEvicted)
{
    corruptionScenario("truncate", [](const fs::path &path) {
        const std::uintmax_t size = fs::file_size(path);
        fs::resize_file(path, size / 2);
    });
}

TEST(DiskCache, BitFlippedRecordIsAMissAndEvicted)
{
    corruptionScenario("bitflip", [](const fs::path &path) {
        std::string bytes = readBytes(path);
        ASSERT_GT(bytes.size(), recordHeaderSize);
        // Flip one payload byte (past the header) so the checksum
        // layer, not the framing, must catch it.
        std::size_t at = recordHeaderSize + bytes.size() / 3;
        bytes[at] = static_cast<char>(bytes[at] ^ 0x01);
        std::ofstream out(path,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    });
}

TEST(DiskCache, VersionBumpedRecordIsAMissAndEvicted)
{
    corruptionScenario("verbump", [](const fs::path &path) {
        std::fstream io(path, std::ios::binary | std::ios::in |
                                  std::ios::out);
        io.seekp(
            static_cast<std::streamoff>(recordVersionOffset));
        char next = static_cast<char>(recordFormatVersion + 1);
        io.write(&next, 1);
    });
}

namespace
{

/**
 * The record a format-v1 writer stored for (@p key, @p loop): the v2
 * payload with the per-loop CPU timer (an f64 after
 * scheduleAttempts) put back, correctly framed and checksummed.
 */
std::string
v1Record(const LoopKey &key, const CompiledLoop &loop)
{
    ByteWriter fields;
    encodeCompiledLoop(fields, loop);
    std::string body = fields.take();
    // loopName (u32 length + bytes), moduloScheduled (u8), mii, ii,
    // scheduleLength (i32), cycles, ops (i64), ipc (f64), four stats
    // counters, partitionRuns, scheduleAttempts (i32).
    const std::size_t timerAt = 4 + loop.loopName.size() + 1 + 3 * 4 +
                                2 * 8 + 8 + 6 * 4;
    ByteWriter timer;
    timer.f64(0.25);
    body.insert(timerAt, timer.buffer());

    ByteWriter payload;
    encodeLoopKey(payload, key);
    payload.raw(body.data(), body.size());
    ByteWriter record;
    record.u32(diskRecordMagic);
    record.u32(1);
    record.u32(keySchemaVersion);
    record.u64(payload.buffer().size());
    record.u64(fnv1a64(payload.buffer()));
    record.raw(payload.buffer().data(), payload.buffer().size());
    return record.take();
}

} // namespace

TEST(DiskCache, FormatV1RecordIsAMissAndEvicted)
{
    corruptionScenario("v1", [](const fs::path &path) {
        std::string bytes = readBytes(path);
        LoopKey key;
        CompiledLoop loop;
        ASSERT_TRUE(decodeCacheRecord(bytes, key, loop));
        std::string old = v1Record(key, loop);
        ASSERT_EQ(old.size(), bytes.size() + 8);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(old.data(), static_cast<std::streamsize>(old.size()));
    });
}

TEST(DiskCache, GarbagePackIsAMissAndEvicted)
{
    corruptionScenario("garbage", [](const fs::path &path) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "not a cache record at all";
    });
}

/**
 * A live cache whose own pack is overwritten under it: the lookup's
 * verification fails, the record leaves the index (counted once, in
 * the registry the cache was given), and a new store is served again.
 */
TEST(DiskCache, RecordGarbledUnderALiveCacheIsEvictedOnce)
{
    std::string dir = freshCacheDir("garbled");
    LatencyTable lat;
    MachineConfig m = twoClusterConfig(32, 1);
    Ddg g = diamondLoop(lat);
    LoopKey key = makeLoopKey(g, m, SchedulerKind::Gp, {});
    CompiledLoop compiled =
        LoopCompiler(m, SchedulerKind::Gp).compile(g);

    MetricRegistry registry;
    DiskCache cache(dir, 0, &registry);
    cache.store(key, compiled);
    std::vector<fs::path> packs = packFiles(dir);
    ASSERT_EQ(packs.size(), 1u);
    {
        std::ofstream out(packs[0], std::ios::binary | std::ios::trunc);
        out << "not a cache record at all";
    }

    CompiledLoop out;
    EXPECT_FALSE(cache.lookup(key, out));
    EXPECT_FALSE(cache.lookup(key, out));
    EXPECT_EQ(registry.counter("disk.corruptEvicted").value(), 1u);
    EXPECT_EQ(registry.counter("disk.misses").value(), 2u);

    cache.store(key, compiled);
    ASSERT_TRUE(cache.lookup(key, out));
    expectLoopsIdentical(compiled, out, "restored");
    fs::remove_all(dir);
}

/**
 * A record whose digest field disagrees with its canonical bytes,
 * framed and checksummed as a writer would: only the digest is
 * wrong. It indexes under that digest, so a lookup of the key that
 * owns the digest reaches it, finds other canonical bytes, and must
 * rule it corrupt (the digest does not hash its own key) rather
 * than a collision: a miss that evicts it, counted once.
 */
TEST(DiskCache, CorruptDigestIsAMissAndEvictedOnce)
{
    std::string dir = freshCacheDir("baddigest");
    LatencyTable lat;
    MachineConfig m = twoClusterConfig(32, 1);
    Ddg g = diamondLoop(lat);
    const LoopKey stored = makeLoopKey(g, m, SchedulerKind::Gp, {});
    const LoopKey asked = makeLoopKey(g, m, SchedulerKind::Uracam, {});
    CompiledLoop compiled =
        LoopCompiler(m, SchedulerKind::Gp).compile(g);
    {
        const std::string record =
            encodeCacheRecord(LoopKey{stored.canonical, asked.digest},
                              compiled);
        std::ofstream out(fs::path(dir) / "crafted.gpp",
                          std::ios::binary);
        out.write(record.data(),
                  static_cast<std::streamsize>(record.size()));
    }

    MetricRegistry registry;
    DiskCache cache(dir, 0, &registry);
    EXPECT_EQ(registry.counter("disk.corruptEvicted").value(), 0u)
        << "the open scan does not hash keys";
    CompiledLoop out;
    EXPECT_FALSE(cache.lookup(asked, out));
    EXPECT_FALSE(cache.lookup(asked, out));
    EXPECT_FALSE(cache.lookup(stored, out));
    EXPECT_EQ(registry.counter("disk.corruptEvicted").value(), 1u);
    EXPECT_EQ(registry.counter("disk.misses").value(), 3u);
    EXPECT_EQ(registry.counter("disk.hits").value(), 0u);
    fs::remove_all(dir);
}

/**
 * A genuine full-digest collision, simulated by a key with the
 * stored record's digest but other canonical bytes: the record is
 * valid, just someone else's, so the lookup is a miss that evicts
 * nothing, and the stored key still hits afterwards.
 */
TEST(DiskCache, DigestCollisionIsAMissAndKeepsTheRecord)
{
    std::string dir = freshCacheDir("collision");
    LatencyTable lat;
    MachineConfig m = twoClusterConfig(32, 1);
    Ddg g = diamondLoop(lat);
    const LoopKey stored = makeLoopKey(g, m, SchedulerKind::Gp, {});
    const LoopKey colliding{
        makeLoopKey(g, m, SchedulerKind::Uracam, {}).canonical,
        stored.digest};
    CompiledLoop compiled =
        LoopCompiler(m, SchedulerKind::Gp).compile(g);

    MetricRegistry registry;
    DiskCache cache(dir, 0, &registry);
    cache.store(stored, compiled);
    CompiledLoop out;
    EXPECT_FALSE(cache.lookup(colliding, out));
    EXPECT_EQ(registry.counter("disk.corruptEvicted").value(), 0u);
    EXPECT_EQ(registry.counter("disk.misses").value(), 1u);
    ASSERT_TRUE(cache.lookup(stored, out));
    expectLoopsIdentical(compiled, out, "after the collision");
    EXPECT_EQ(recordCount(dir), 1u);

    // A cache opened afterwards sees the same verdicts.
    DiskCache reopened(dir, 0);
    EXPECT_FALSE(reopened.lookup(colliding, out));
    ASSERT_TRUE(reopened.lookup(stored, out));
    expectLoopsIdentical(compiled, out, "reopened");
    fs::remove_all(dir);
}

/**
 * A pack whose last record was cut short (a writer died mid-append):
 * the open scan keeps every earlier record, rejects the torn tail
 * once, and new stores still work.
 */
TEST(DiskCache, TornPackTailKeepsEarlierRecords)
{
    std::string dir = freshCacheDir("torntail");
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(32, 1);
    std::vector<Ddg> loops;
    std::vector<LoopKey> keys;
    std::vector<CompiledLoop> compiled;
    for (int n = 4; n < 10; ++n) {
        loops.push_back(chainLoop(n, lat));
        keys.push_back(
            makeLoopKey(loops.back(), m, SchedulerKind::Gp, {}));
        compiled.push_back(
            LoopCompiler(m, SchedulerKind::Gp).compile(loops.back()));
    }
    const std::size_t stored = keys.size() - 1;
    {
        DiskCache cache(dir, 0);
        for (std::size_t i = 0; i < stored; ++i)
            cache.store(keys[i], compiled[i]);
    }
    std::vector<fs::path> packs = packFiles(dir);
    ASSERT_EQ(packs.size(), 1u);
    const std::string torn =
        encodeCacheRecord(keys[stored], compiled[stored]);
    {
        std::ofstream out(packs[0], std::ios::binary | std::ios::app);
        out.write(torn.data(),
                  static_cast<std::streamsize>(torn.size() / 2));
    }

    MetricRegistry registry;
    DiskCache cache(dir, 0, &registry);
    EXPECT_EQ(registry.counter("disk.corruptEvicted").value(), 1u);
    CompiledLoop out;
    for (std::size_t i = 0; i < stored; ++i) {
        ASSERT_TRUE(cache.lookup(keys[i], out)) << "record " << i;
        expectLoopsIdentical(compiled[i], out,
                             "record " + std::to_string(i));
    }
    EXPECT_FALSE(cache.lookup(keys[stored], out));
    cache.store(keys[stored], compiled[stored]);
    ASSERT_TRUE(cache.lookup(keys[stored], out));
    expectLoopsIdentical(compiled[stored], out, "stored after");

    DiskCache reopened(dir, 0);
    for (std::size_t i = 0; i <= stored; ++i)
        EXPECT_TRUE(reopened.lookup(keys[i], out)) << "record " << i;
    fs::remove_all(dir);
}

/**
 * The same key in two packs: the open scan reads the packs
 * oldest-first and the newer record wins, so a bad record in an old
 * pack never shadows the good one stored after it.
 */
TEST(DiskCache, NewerPackRecordReplacesOlder)
{
    std::string dir = freshCacheDir("newer");
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(32, 1);
    Ddg g = diamondLoop(lat);
    LoopKey key = makeLoopKey(g, m, SchedulerKind::Gp, {});
    CompiledLoop compiled =
        LoopCompiler(m, SchedulerKind::Gp).compile(g);

    DiskCache(dir, 0).store(key, compiled);
    std::vector<fs::path> packs = packFiles(dir);
    ASSERT_EQ(packs.size(), 1u);
    const fs::path old = packs[0];
    {
        std::fstream io(old, std::ios::binary | std::ios::in |
                                 std::ios::out);
        io.seekp(-1, std::ios::end);
        io.put('\x7f');
    }
    CompiledLoop out;
    {
        MetricRegistry registry;
        DiskCache cache(dir, 0, &registry);
        EXPECT_FALSE(cache.lookup(key, out));
        EXPECT_EQ(registry.counter("disk.corruptEvicted").value(), 1u);
        cache.store(key, compiled);
    }
    ASSERT_EQ(packFiles(dir).size(), 2u);
    const auto now = fs::file_time_type::clock::now();
    for (const fs::path &pack : packFiles(dir))
        fs::last_write_time(pack, pack == old
                                      ? now - std::chrono::seconds(10)
                                      : now);

    MetricRegistry registry;
    DiskCache cache(dir, 0, &registry);
    ASSERT_TRUE(cache.lookup(key, out));
    expectLoopsIdentical(compiled, out, "newer record");
    EXPECT_EQ(registry.counter("disk.corruptEvicted").value(), 0u);
    fs::remove_all(dir);
}

// --- fault injection at the cache boundary -------------------------

/**
 * A failed compile must be invisible to both cache tiers: no
 * record on disk, no in-memory entry, engine.failed counts it, a
 * rerun recompiles from scratch (no negative caching), and once the
 * input is fixed the same engine compiles, succeeds, and stores the
 * result exactly once.
 */
TEST(DiskCache, FailedCompileLeavesNoRecordAndRetryRecompiles)
{
    std::string dir = freshCacheDir("fault");
    MachineConfig m = fourClusterConfig(32, 1);
    // The flow edge promises latency 1; FMul takes 4 on this
    // machine, so computeMii rejects the loop with a CompileError.
    Ddg bad("wounded");
    NodeId mul = bad.addNode(Opcode::FMul);
    NodeId add = bad.addNode(Opcode::FAdd);
    bad.addEdge(mul, add, 1, 0, DepKind::Flow);
    bad.setTripCount(10);

    EngineOptions options;
    options.jobs = 2;
    options.cacheDir = dir;
    Engine engine(options);
    EngineJob job{&bad, &m, SchedulerKind::Gp, {}};

    CompileResult failed = compileOne(engine, job);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.error->kind(), CompileErrorKind::InvalidInput);
    EXPECT_EQ(failed.error->loopName(), "wounded");

    auto count = [&](const char *name) {
        return engine.metrics().counterValue(name);
    };
    EXPECT_EQ(count("engine.failed"), 1u);
    EXPECT_EQ(count("disk.stores"), 0u);
    EXPECT_EQ(recordCount(dir), 0u)
        << "a failed compile must never publish a record";

    // Retry: a fresh miss on both tiers, recompiled, same failure.
    CompileResult again = compileOne(engine, job);
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(count("engine.failed"), 2u);
    EXPECT_EQ(count("engine.cacheHits"), 0u);
    EXPECT_EQ(count("disk.hits"), 0u);
    EXPECT_EQ(count("engine.cacheMisses"), 2u);

    // Fix the input (honest latency): the compile now succeeds and
    // publishes exactly one record through the same engine.
    LatencyTable lat;
    Ddg fixed("wounded");
    NodeId fmul = fixed.addNode(Opcode::FMul);
    NodeId fadd = fixed.addNode(Opcode::FAdd);
    fixed.addEdge(fmul, fadd, lat.latency(Opcode::FMul), 0,
                  DepKind::Flow);
    fixed.setTripCount(10);
    CompiledLoop ok = unwrapOne(
        compileOne(engine, EngineJob{&fixed, &m, SchedulerKind::Gp, {}}));
    EXPECT_GT(ok.ipc, 0.0);
    EXPECT_EQ(count("engine.failed"), 2u);
    EXPECT_EQ(count("disk.stores"), 1u);
    EXPECT_EQ(recordCount(dir), 1u);
    fs::remove_all(dir);
}

/**
 * A record whose append comes up short must never be published.
 * The store runs in a death-test child whose file-size limit cuts
 * the pack's write at 16 bytes (SIGXFSZ ignored, so the write comes
 * up short instead of killing the child); the child exits 0 only
 * when the pack was cut back to empty, no other file, no store count
 * and no lookup hit were left behind.
 */
TEST(DiskCache, ShortWriteLeavesNoRecord)
{
    std::string dir = freshCacheDir("shortwrite");
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(32, 1);
    Ddg g = diamondLoop(lat);
    CompiledLoop compiled =
        LoopCompiler(m, SchedulerKind::Gp).compile(g);
    LoopKey key = makeLoopKey(g, m, SchedulerKind::Gp, {});
    ASSERT_GT(encodeCacheRecord(key, compiled).size(), 16u);

    auto storeUnderLimit = [&] {
        MetricRegistry registry;
        DiskCache cache(dir, 0, &registry);
        ::signal(SIGXFSZ, SIG_IGN);
        const rlimit limit{16, 16}; // soft and hard, in bytes
        if (::setrlimit(RLIMIT_FSIZE, &limit) != 0)
            std::_Exit(3);
        cache.store(key, compiled);
        bool clean = strayFiles(dir).empty() &&
                     registry.counter("disk.stores").value() == 0;
        for (const fs::path &pack : packFiles(dir))
            clean = clean && fs::file_size(pack) == 0;
        CompiledLoop out;
        clean = clean && !cache.lookup(key, out);
        std::_Exit(clean ? 0 : 1);
    };
    EXPECT_EXIT(storeUnderLimit(), ::testing::ExitedWithCode(0), "");
    EXPECT_EQ(recordCount(dir), 0u);
    fs::remove_all(dir);
}

// --- size budget ---------------------------------------------------

/**
 * Four caches leave four packs; opening a fifth under a budget that
 * fits only the two newest deletes the two oldest whole, counts them,
 * and keeps serving the survivors' records.
 */
TEST(DiskCache, BudgetDeletesOldestPacksAtOpen)
{
    std::string dir = freshCacheDir("budget");
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(32, 1);

    std::vector<LoopKey> keys;
    std::vector<fs::path> order; // packs, oldest first
    for (int pack = 0; pack < 4; ++pack) {
        DiskCache cache(dir, 0);
        for (int n = 4 + 3 * pack; n < 7 + 3 * pack; ++n) {
            Ddg g = chainLoop(n, lat); // distinct shapes, distinct keys
            keys.push_back(makeLoopKey(g, m, SchedulerKind::Gp, {}));
            cache.store(keys.back(),
                        LoopCompiler(m, SchedulerKind::Gp).compile(g));
        }
        for (const fs::path &path : packFiles(dir)) {
            if (std::find(order.begin(), order.end(), path) ==
                order.end())
                order.push_back(path);
        }
    }
    ASSERT_EQ(order.size(), 4u);
    // Spread the mtimes a second apart: creation order is age order.
    const auto now = fs::file_time_type::clock::now();
    for (std::size_t i = 0; i < order.size(); ++i) {
        const auto age = std::chrono::seconds(order.size() - i);
        fs::last_write_time(order[i], now - age);
    }
    const std::uint64_t budget =
        fs::file_size(order[2]) + fs::file_size(order[3]);

    MetricRegistry registry;
    DiskCache cache(dir, budget, &registry);
    EXPECT_EQ(registry.counter("disk.compacted").value(), 2u);
    EXPECT_LE(cache.residentBytes(), budget);
    EXPECT_FALSE(fs::exists(order[0]));
    EXPECT_FALSE(fs::exists(order[1]));
    CompiledLoop out;
    for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(cache.lookup(keys[i], out), i >= 6) << "key " << i;
    fs::remove_all(dir);
}

/**
 * However many caches have stored into a directory, an opening cache
 * keeps only the kMaxPacks newest packs (each holds a descriptor)
 * and can still store. Every cache of the fill opens under the cap
 * too, so the fill leaves one pack over it.
 */
TEST(DiskCache, PackCountIsCappedAtOpen)
{
    std::string dir = freshCacheDir("packcap");
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(32, 1);
    Ddg g = diamondLoop(lat);
    const LoopKey base = makeLoopKey(g, m, SchedulerKind::Gp, {});
    const CompiledLoop compiled =
        LoopCompiler(m, SchedulerKind::Gp).compile(g);
    // Distinct keys for one value: the key's bytes are opaque here.
    auto keyOf = [&](std::size_t i) {
        LoopKey key;
        key.canonical = base.canonical + std::to_string(i);
        key.digest = fnv1a64(key.canonical);
        return key;
    };

    const std::size_t stored = DiskCache::kMaxPacks + 1;
    const auto now = fs::file_time_type::clock::now();
    for (std::size_t i = 0; i < stored; ++i) {
        DiskCache(dir, 0).store(keyOf(i), compiled);
        // Creation order is age order, a second apart.
        for (const fs::path &pack : packFiles(dir)) {
            if (fs::last_write_time(pack) >
                now - std::chrono::hours(1))
                fs::last_write_time(
                    pack, now - std::chrono::hours(2) +
                              std::chrono::seconds(i));
        }
    }
    ASSERT_EQ(packFiles(dir).size(), stored);

    MetricRegistry registry;
    DiskCache cache(dir, 0, &registry);
    EXPECT_EQ(registry.counter("disk.compacted").value(), 1u);
    EXPECT_EQ(packFiles(dir).size(), DiskCache::kMaxPacks);
    CompiledLoop out;
    for (std::size_t i = 0; i < stored; ++i)
        EXPECT_EQ(cache.lookup(keyOf(i), out), i >= 1) << "key " << i;
    cache.store(keyOf(stored), compiled);
    EXPECT_TRUE(cache.lookup(keyOf(stored), out));
    fs::remove_all(dir);
}

// --- concurrency ---------------------------------------------------

/**
 * Two engines — two in-memory caches, one shared directory — compile
 * an overlapping batch concurrently. Results must be bit-identical
 * to a serial run without the disk, and every pack must split into
 * complete, valid records afterwards (one writer per pack); run
 * under TSan to audit the synchronization.
 */
TEST(DiskCache, ConcurrentEnginesSharingADirectoryStayExact)
{
    std::string dir = freshCacheDir("concurrent");
    LatencyTable lat;
    std::vector<Program> suite = specFp95Suite(lat);
    suite.resize(4);
    MachineConfig m = fourClusterConfig(32, 1);
    std::vector<EngineJob> batch = suiteBatch(suite, m);

    // Serial reference without the disk.
    Engine reference(oneJobOptions());
    std::vector<CompiledLoop> expected =
        unwrapAll(reference.compileBatch(batch));

    EngineOptions options;
    options.jobs = 4;
    options.cacheDir = dir;
    Engine a(options);
    Engine b(options);

    std::vector<CompiledLoop> resultsA;
    std::vector<CompiledLoop> resultsB;
    std::thread threadA(
        [&] { resultsA = unwrapAll(a.compileBatch(batch)); });
    std::thread threadB(
        [&] { resultsB = unwrapAll(b.compileBatch(batch)); });
    threadA.join();
    threadB.join();

    ASSERT_EQ(resultsA.size(), expected.size());
    ASSERT_EQ(resultsB.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        expectLoopsIdentical(expected[i], resultsA[i],
                             "engine A index " + std::to_string(i));
        expectLoopsIdentical(expected[i], resultsB[i],
                             "engine B index " + std::to_string(i));
    }

    // No partial records: nothing but packs remains, and every pack
    // splits end to end into records that decode and verify in full.
    EXPECT_TRUE(strayFiles(dir).empty());
    std::vector<fs::path> packs = packFiles(dir);
    EXPECT_EQ(packs.size(), 2u);
    for (const fs::path &path : packs) {
        std::vector<std::string> records;
        EXPECT_TRUE(splitPack(path, records)) << path;
        EXPECT_FALSE(records.empty()) << path;
        for (const std::string &record : records) {
            LoopKey key;
            CompiledLoop value;
            EXPECT_TRUE(decodeCacheRecord(record, key, value))
                << path << " holds an incomplete or invalid record";
        }
    }
    fs::remove_all(dir);
}
