/**
 * @file
 * Canonical fingerprint of one compilation job: everything that can
 * influence the schedule of a loop — DDG structure (opcodes, edges,
 * trip count), machine configuration (clusters, functional units,
 * registers, buses, the whole latency table), scheduler kind, and
 * every LoopCompilerOptions knob — encoded as one canonical byte
 * string, a sequence of zigzag LEB128 varints (one byte for each
 * value in [-64, 63]; see engine/loop_key.cc for why it is
 * injective).
 *
 * Loop and node *names* are deliberately excluded: two structurally
 * identical loops compile to identical schedules, and excluding names
 * is what lets the engine's result table dedupe repeated loop shapes
 * across programs, schemes and sweeps. Equality compares the
 * canonical encoding byte for byte, so a table keyed on LoopKey can
 * never return a wrong result due to a hash collision; the 64-bit
 * digest exists for hash-table bucketing and disk file names only.
 */

#ifndef GPSCHED_ENGINE_LOOP_KEY_HH
#define GPSCHED_ENGINE_LOOP_KEY_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "core/gp_scheduler.hh"
#include "graph/ddg.hh"
#include "machine/machine.hh"

namespace gpsched
{

/** Value key identifying one (loop, machine, scheme, options) job. */
struct LoopKey
{
    /** Exact canonical bytes; equality of jobs iff equality here. */
    std::string canonical;

    /** FNV-1a digest of @c canonical (bucketing, file names). */
    std::uint64_t digest = 0;

    bool operator==(const LoopKey &other) const
    {
        return digest == other.digest && canonical == other.canonical;
    }
    bool operator!=(const LoopKey &other) const
    {
        return !(*this == other);
    }
};

/** Builds the fingerprint of one compilation job. */
LoopKey makeLoopKey(const Ddg &ddg, const MachineConfig &machine,
                    SchedulerKind kind,
                    const LoopCompilerOptions &options);

/**
 * The canonical bytes a LoopKey encodes for @p ddg (structure and
 * trip count, no names) or for @p machine: equal bytes, equal
 * compiles. The engine uses them to treat structurally identical
 * loops and machines of one batch as one.
 */
std::string shapeBytes(const Ddg &ddg);
std::string shapeBytes(const MachineConfig &machine);

/** FNV-1a over @p size bytes at @p data. */
std::uint64_t fnv1a64(const char *data, std::size_t size);

/** FNV-1a over @p bytes (exposed for tests). */
std::uint64_t fnv1a64(const std::string &bytes);

/** The low @p digits hex digits of @p digest, zero-padded. */
std::string hexDigest(std::uint64_t digest, int digits = 16);

} // namespace gpsched

namespace std
{
template <> struct hash<gpsched::LoopKey>
{
    std::size_t operator()(const gpsched::LoopKey &key) const
    {
        return static_cast<std::size_t>(key.digest);
    }
};
} // namespace std

#endif // GPSCHED_ENGINE_LOOP_KEY_HH
