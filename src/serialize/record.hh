/**
 * @file
 * Versioned binary codec for the persistent compile cache: the full
 * LoopKey and the full CompiledLoop — metrics, per-node placements,
 * transfers (including the bus class each one rides), spill splits
 * and the partition — framed as a self-verifying record.
 *
 * Record layout (all integers little-endian, see serialize/bytes.hh):
 *
 *   u32 magic               "GPSC"
 *   u32 recordFormatVersion bumped when this framing or the
 *                           CompiledLoop encoding changes
 *   u32 keySchemaVersion    version of the LoopKey canonical
 *                           encoding, which embeds the machine shape
 *                           (clusters, FU mixes, register files, bus
 *                           classes, the latency table); bumped when
 *                           makeLoopKey's encoding changes, so
 *                           records written against an older machine
 *                           encoding are invalidated wholesale
 *   u64 payloadSize         exact byte length of the payload
 *   u64 payloadChecksum     FNV-1a of the payload bytes
 *   payload                 encoded LoopKey then CompiledLoop
 *
 * decodeCacheRecord() verifies every layer — magic, both versions,
 * size, checksum, the key digest against its canonical bytes, and
 * bounds-checked field decoding — and reports failure on any
 * mismatch. Malformed bytes can therefore never crash a reader or
 * smuggle a wrong schedule past it; the disk cache treats a failed
 * decode as a miss and evicts the record.
 */

#ifndef GPSCHED_SERIALIZE_RECORD_HH
#define GPSCHED_SERIALIZE_RECORD_HH

#include <cstdint>
#include <string>

#include "core/gp_scheduler.hh"
#include "core/pipeline.hh"
#include "engine/loop_key.hh"
#include "serialize/bytes.hh"

namespace gpsched
{

/** "GPSC" read as a little-endian u32. */
constexpr std::uint32_t diskRecordMagic = 0x43535047u;

/**
 * Version of the record framing + CompiledLoop field encoding.
 *
 * v2: the per-loop CPU timer (an f64 after scheduleAttempts) left
 * the record, so a record is a pure function of its key; v1 records
 * are misses and get evicted.
 */
constexpr std::uint32_t recordFormatVersion = 2;

/**
 * Version of the LoopKey canonical encoding (engine/loop_key.cc).
 * The canonical string embeds the machine shape and every compiler
 * option, so bumping this constant when that encoding changes
 * invalidates every on-disk record written under the old scheme.
 *
 * v2: the initial-assignment rule ('A') and the transfer cost
 * model ('T'/'z') joined the option encoding — and changed
 * scheduling defaults on heterogeneous machines — so v1 records are
 * stale.
 * v3: the option encoding shrank to the scheme kind plus the six
 * options a bench varies; the tuning values that no driver set
 * became constants and left the key.
 * v4: each field became one zigzag LEB128 varint, without the
 * decimal digits, tags and separators of v1-v3.
 */
constexpr std::uint32_t keySchemaVersion = 4;

/** Byte offsets of the header fields (for tests and tooling). */
constexpr std::size_t recordMagicOffset = 0;
constexpr std::size_t recordVersionOffset = 4;
constexpr std::size_t recordKeySchemaOffset = 8;
constexpr std::size_t recordPayloadSizeOffset = 12;
constexpr std::size_t recordChecksumOffset = 20;
constexpr std::size_t recordHeaderSize = 28;

// --- field-level codecs --------------------------------------------

void encodeLoopKey(ByteWriter &out, const LoopKey &key);

/** False when bytes are malformed or the digest does not match. */
bool decodeLoopKey(ByteReader &in, LoopKey &key);

void encodeCompiledLoop(ByteWriter &out, const CompiledLoop &loop);

/** False on malformed bytes; @p loop is unspecified then. */
bool decodeCompiledLoop(ByteReader &in, CompiledLoop &loop);

/**
 * The identity of one compiled schedule: FNV-1a (fnv1a64) over
 * @p seed followed by encodeCompiledLoop's bytes, so every metric,
 * placement, transfer, spill and partition entry counts. Folding a
 * sequence in order (d = scheduleDigest(loop, d)) digests the whole
 * sequence; the golden results pin such folds.
 */
std::uint64_t scheduleDigest(const CompiledLoop &loop,
                             std::uint64_t seed = 0);

/** Every compiled loop of @p suite folded in suite order. */
std::uint64_t scheduleDigest(const SuiteResult &suite);

// --- record framing ------------------------------------------------

/** Serializes one cache record (header + key + value). */
std::string encodeCacheRecord(const LoopKey &key,
                              const CompiledLoop &value);

/**
 * Decodes and fully verifies one cache record. Returns false —
 * never crashes, never partially succeeds — on any corruption:
 * truncation, bit flips, version or schema mismatches, checksum
 * failures or trailing garbage.
 */
bool decodeCacheRecord(const std::string &bytes, LoopKey &key,
                       CompiledLoop &value);

/** How a cache record relates to the key a lookup asked for. */
enum class RecordMatch
{
    Corrupt,  ///< decodeCacheRecord would reject the bytes
    OtherKey, ///< valid, but stores another key (a digest collision)
    Match,    ///< valid and stores the requested key; value decoded
};

/**
 * The disk lookup's decoder: makes every check decodeCacheRecord
 * makes on the @p size bytes at @p bytes, but compares the stored
 * key with @p key in place instead of decoding a copy of it, so it
 * allocates nothing beyond @p value's contents. @p key must be
 * well-formed (digest == fnv1a64(canonical), as makeLoopKey builds
 * it): then a stored key with equal canonical bytes and an equal
 * digest is valid, and FNV runs over the stored key only when the
 * bytes differ, to tell a collision from a corrupt digest. @p value
 * is unspecified unless the result is Match.
 */
RecordMatch matchCacheRecord(const char *bytes, std::size_t size,
                             const LoopKey &key, CompiledLoop &value);

} // namespace gpsched

#endif // GPSCHED_SERIALIZE_RECORD_HH
