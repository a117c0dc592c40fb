/**
 * @file
 * Persistent LoopKey -> CompiledLoop store, layered under the
 * engine's in-memory result table so structural dedupe survives
 * across processes and runs.
 *
 * Layout on disk: append-only pack files,
 *
 *   <dir>/<pid>-<instance>-<n>.gpp
 *
 * each a plain concatenation of self-verifying binary records
 * (serialize/record.hh: magic, format + key-schema versions, size,
 * checksum, full key, full value). Every open cache creates its own
 * pack (O_EXCL) on its first store and only ever appends to it, so
 * no two writers share a file: a store is one pwrite, and one that
 * fails or comes up short is cut back off the pack.
 *
 * Opening scans the packs oldest-first through a bounded window
 * and indexes each record's key digest to (pack, offset, length); a
 * later record replaces an earlier one with the same digest. A
 * header with a bad magic, a bad version or a length past EOF ends
 * the scan of its pack, so a torn tail costs only itself. A lookup
 * is an index probe (a miss makes no syscall) plus one pread into a
 * per-thread buffer, and still re-verifies the whole record and
 * compares the stored key's canonical bytes, in place, against the
 * requested key, so neither a digest collision nor any form of
 * corruption can surface a wrong schedule: a corrupt record leaves
 * the index and is a miss, and a colliding one is a miss that stays.
 * Hits write nothing.
 *
 * Visibility: the index is built at open, so a record another live
 * cache appends later is not seen. That costs a miss and a
 * duplicate append, never a wrong schedule.
 *
 * Capacity is applied at open: whole packs are deleted
 * oldest-mtime-first until the store fits its byte budget and holds
 * at most kMaxPacks packs, so a cache keeps a bounded number of
 * descriptors open however many runs have stored into the
 * directory. A live cache's own pack grows until the next open.
 *
 * Counters (kCounters) live in the MetricRegistry the cache is
 * given: disk.hits, disk.misses, disk.stores, disk.corruptEvicted
 * (records the open scan rejected or a lookup failed to verify) and
 * disk.compacted (packs deleted by the budget or the pack cap).
 */

#ifndef GPSCHED_ENGINE_DISK_CACHE_HH
#define GPSCHED_ENGINE_DISK_CACHE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/gp_scheduler.hh"
#include "engine/loop_key.hh"
#include "support/telemetry.hh"

namespace gpsched
{

/** Append-only pack-file record store keyed by LoopKey. */
class DiskCache
{
  public:
    /** Every counter name the cache keeps in its registry. */
    static constexpr const char *kCounters[] = {
        "disk.hits", "disk.misses", "disk.stores",
        "disk.corruptEvicted", "disk.compacted"};

    /** Most packs an opening cache keeps (and holds open). */
    static constexpr std::size_t kMaxPacks = 128;

    /**
     * Opens (creating if needed) the store rooted at @p dir, applies
     * the budget and the pack cap and indexes every remaining pack.
     * Fatal — a user error, not a crash — when the directory cannot
     * be created or written.
     *
     * @param max_bytes resident-size budget; 0 = unlimited
     * @param metrics counter store (must outlive the cache); null
     *        counts into a registry the cache owns
     */
    DiskCache(std::string dir, std::uint64_t max_bytes,
              MetricRegistry *metrics = nullptr);
    ~DiskCache();

    DiskCache(const DiskCache &) = delete;
    DiskCache &operator=(const DiskCache &) = delete;

    /**
     * Loads @p key's record if indexed and valid. A record that
     * fails verification leaves the index and is reported as a miss.
     * @p key must be well-formed, as makeLoopKey builds it; @p out is
     * unspecified after a miss.
     */
    bool lookup(const LoopKey &key, CompiledLoop &out);

    /**
     * Appends @p key -> @p value to this cache's pack. I/O failures
     * publish and count nothing and are never fatal: a cache store
     * is always allowed to fail.
     */
    void store(const LoopKey &key, const CompiledLoop &value);

    /** Bytes currently resident (walks the directory). */
    std::uint64_t residentBytes() const;

    /** Root directory. */
    const std::string &dir() const { return dir_; }

  private:
    /** Where one record lives. */
    struct Slot
    {
        std::size_t pack; ///< index into packs_
        std::uint64_t offset;
        std::uint64_t length;
    };

    /** Indexes the records of packs_[@p pack] (@p size bytes);
     *  returns how many the scan rejected. */
    std::uint64_t scanPack(std::size_t pack, std::uint64_t size);

    std::string dir_;

    /** Guards index_, packs_, own_ and ownEnd_. Lookups pread
     *  outside it, which is safe because no pack closes while the
     *  cache lives. */
    std::mutex mutex_;
    std::unordered_map<std::uint64_t, Slot> index_;
    /** Open descriptors of the indexed packs, then this cache's own. */
    std::vector<int> packs_;
    /** This cache's pack in packs_ (-1 before its first store) and
     *  the end of its last complete record. */
    int own_ = -1;
    std::uint64_t ownEnd_ = 0;

    /** Counter store when no registry was given. */
    std::unique_ptr<MetricRegistry> ownedMetrics_;

    /** Handles into the counter store, resolved at construction. */
    MetricRegistry::Counter *hits_;
    MetricRegistry::Counter *misses_;
    MetricRegistry::Counter *stores_;
    MetricRegistry::Counter *corruptEvicted_;
    MetricRegistry::Counter *compacted_;
};

} // namespace gpsched

#endif // GPSCHED_ENGINE_DISK_CACHE_HH
