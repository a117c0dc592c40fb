#include "serialize/record.hh"

namespace gpsched
{

namespace
{

/**
 * Caps every decoded element count. Any genuine record is far below
 * this; a corrupt count past it is rejected before the element loop
 * so a flipped length byte cannot make a decoder spin or allocate
 * wildly. (The bounds-checked reader already prevents out-of-range
 * reads; this bounds the work.)
 */
constexpr std::uint32_t maxElements = 1u << 24;

bool
readCount(ByteReader &in, std::uint32_t &count)
{
    count = in.u32();
    return in.ok() && count <= maxElements;
}

/**
 * Reads and checks the header of the @p size-byte record at
 * @p bytes (magic, both versions, exact payload size, checksum),
 * leaving @p in at the payload.
 */
bool
readFrame(ByteReader &in, const char *bytes, std::size_t size)
{
    if (in.u32() != diskRecordMagic)
        return false;
    if (in.u32() != recordFormatVersion)
        return false;
    if (in.u32() != keySchemaVersion)
        return false;
    const std::uint64_t payloadSize = in.u64();
    const std::uint64_t checksum = in.u64();
    if (!in.ok() || payloadSize != in.remaining())
        return false;
    return checksum ==
           fnv1a64(bytes + recordHeaderSize, size - recordHeaderSize);
}

} // namespace

// --- LoopKey -------------------------------------------------------

void
encodeLoopKey(ByteWriter &out, const LoopKey &key)
{
    out.str(key.canonical);
    out.u64(key.digest);
}

bool
decodeLoopKey(ByteReader &in, LoopKey &key)
{
    key.canonical = in.strView();
    key.digest = in.u64();
    // The digest is derivable, so a mismatch means corruption.
    return in.ok() && key.digest == fnv1a64(key.canonical);
}

// --- CompiledLoop --------------------------------------------------

void
encodeCompiledLoop(ByteWriter &out, const CompiledLoop &loop)
{
    out.str(loop.loopName);
    out.u8(loop.moduloScheduled ? 1 : 0);
    out.i32(loop.mii);
    out.i32(loop.ii);
    out.i32(loop.scheduleLength);
    out.i64(loop.cycles);
    out.i64(loop.ops);
    out.f64(loop.ipc);
    out.i32(loop.stats.busTransfers);
    out.i32(loop.stats.memTransfers);
    out.i32(loop.stats.spills);
    out.i32(loop.stats.overheadMemOps);
    out.i32(loop.partitionRuns);
    out.i32(loop.scheduleAttempts);

    out.u32(static_cast<std::uint32_t>(loop.placements.size()));
    for (const OpPlacement &p : loop.placements) {
        out.i32(p.cluster);
        out.i32(p.cycle);
    }

    out.u32(static_cast<std::uint32_t>(loop.transfers.size()));
    for (const Transfer &t : loop.transfers) {
        out.i32(t.producer);
        out.i32(t.destCluster);
        out.u8(t.viaBus ? 1 : 0);
        out.i32(t.busClass);
        out.i32(t.busCycle);
        out.i32(t.stCycle);
        out.i32(t.ldCycle);
        out.i32(t.readCycle);
        out.i32(t.arrivalCycle);
    }

    out.u32(static_cast<std::uint32_t>(loop.spills.size()));
    for (const SpillRecord &s : loop.spills) {
        out.i32(s.node);
        out.i32(s.storeCycle);
        out.i32(s.loadCycle);
    }

    out.u32(static_cast<std::uint32_t>(loop.partition.size()));
    for (int cluster : loop.partition)
        out.i32(cluster);
}

bool
decodeCompiledLoop(ByteReader &in, CompiledLoop &loop)
{
    loop = CompiledLoop();
    loop.loopName = in.str();
    loop.moduloScheduled = in.u8() != 0;
    loop.mii = in.i32();
    loop.ii = in.i32();
    loop.scheduleLength = in.i32();
    loop.cycles = in.i64();
    loop.ops = in.i64();
    loop.ipc = in.f64();
    loop.stats.busTransfers = in.i32();
    loop.stats.memTransfers = in.i32();
    loop.stats.spills = in.i32();
    loop.stats.overheadMemOps = in.i32();
    loop.partitionRuns = in.i32();
    loop.scheduleAttempts = in.i32();

    std::uint32_t count = 0;
    if (!readCount(in, count))
        return false;
    loop.placements.resize(count);
    for (OpPlacement &p : loop.placements) {
        p.cluster = in.i32();
        p.cycle = in.i32();
    }

    if (!readCount(in, count))
        return false;
    loop.transfers.resize(count);
    for (Transfer &t : loop.transfers) {
        t.producer = in.i32();
        t.destCluster = in.i32();
        t.viaBus = in.u8() != 0;
        t.busClass = in.i32();
        t.busCycle = in.i32();
        t.stCycle = in.i32();
        t.ldCycle = in.i32();
        t.readCycle = in.i32();
        t.arrivalCycle = in.i32();
    }

    if (!readCount(in, count))
        return false;
    loop.spills.resize(count);
    for (SpillRecord &s : loop.spills) {
        s.node = in.i32();
        s.storeCycle = in.i32();
        s.loadCycle = in.i32();
    }

    if (!readCount(in, count))
        return false;
    loop.partition.resize(count);
    for (int &cluster : loop.partition)
        cluster = in.i32();

    return in.ok();
}

std::uint64_t
scheduleDigest(const CompiledLoop &loop, std::uint64_t seed)
{
    ByteWriter out;
    out.u64(seed);
    encodeCompiledLoop(out, loop);
    return fnv1a64(out.buffer());
}

std::uint64_t
scheduleDigest(const SuiteResult &suite)
{
    std::uint64_t digest = 0;
    for (const ProgramResult &program : suite.programs) {
        for (const CompiledLoop &loop : program.loops)
            digest = scheduleDigest(loop, digest);
    }
    return digest;
}

// --- record framing ------------------------------------------------

std::string
encodeCacheRecord(const LoopKey &key, const CompiledLoop &value)
{
    ByteWriter record;
    record.u32(diskRecordMagic);
    record.u32(recordFormatVersion);
    record.u32(keySchemaVersion);
    record.u64(0); // payload size and checksum: patched below
    record.u64(0);
    encodeLoopKey(record, key);
    encodeCompiledLoop(record, value);
    const std::size_t payloadSize =
        record.buffer().size() - recordHeaderSize;
    record.patchU64(recordPayloadSizeOffset, payloadSize);
    record.patchU64(recordChecksumOffset,
                    fnv1a64(record.buffer().data() + recordHeaderSize,
                            payloadSize));
    return record.take();
}

bool
decodeCacheRecord(const std::string &bytes, LoopKey &key,
                  CompiledLoop &value)
{
    ByteReader in(bytes);
    // Trailing garbage means the record is not what it claims.
    return readFrame(in, bytes.data(), bytes.size()) &&
           decodeLoopKey(in, key) && decodeCompiledLoop(in, value) &&
           in.atEnd();
}

RecordMatch
matchCacheRecord(const char *bytes, std::size_t size,
                 const LoopKey &key, CompiledLoop &value)
{
    ByteReader in(bytes, size);
    if (!readFrame(in, bytes, size))
        return RecordMatch::Corrupt;
    const std::string_view canonical = in.strView();
    const std::uint64_t digest = in.u64();
    if (!in.ok() || !decodeCompiledLoop(in, value) || !in.atEnd())
        return RecordMatch::Corrupt;
    if (digest == key.digest && canonical == key.canonical)
        return RecordMatch::Match;
    // The digest is derivable, so a mismatch means corruption.
    return digest == fnv1a64(canonical.data(), canonical.size())
               ? RecordMatch::OtherKey
               : RecordMatch::Corrupt;
}

} // namespace gpsched
