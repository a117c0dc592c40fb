/**
 * @file
 * Persistent LoopKey -> CompiledLoop store, layered under the
 * engine's in-memory result table so structural dedupe survives
 * across processes and runs.
 *
 * Layout on disk: a two-level sharded directory —
 *
 *   <dir>/<hh>/<16-hex-digest>.gpc
 *
 * where <hh> is the first byte of the key's FNV-1a digest in hex and
 * the file holds one self-verifying binary record
 * (serialize/record.hh: magic, format + key-schema versions, size,
 * checksum, full key, full value). Reads re-verify everything and
 * compare the decoded key's canonical bytes against the requested
 * key, so neither a digest collision nor any form of corruption can
 * ever surface a wrong schedule: malformed records count as misses
 * and are evicted (unlinked) on sight.
 *
 * Writes serialize into a hidden temp file in the destination shard
 * directory and publish with an atomic rename, so concurrent
 * engines — including separate processes — sharing one directory
 * never observe partial records.
 *
 * Capacity is a byte budget: each store tracks the approximate
 * resident size, and crossing the budget triggers a compaction that
 * walks the store and unlinks records oldest-mtime-first until the
 * budget holds again. Hits touch their record's mtime, making the
 * policy LRU-by-mtime.
 *
 * Counters (kCounters) live in the MetricRegistry the cache is
 * given: disk.hits, disk.misses, disk.stores, disk.corruptEvicted
 * (records unlinked because they failed verification) and
 * disk.compacted (records unlinked by budget compaction).
 */

#ifndef GPSCHED_ENGINE_DISK_CACHE_HH
#define GPSCHED_ENGINE_DISK_CACHE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/gp_scheduler.hh"
#include "engine/loop_key.hh"
#include "support/telemetry.hh"

namespace gpsched
{

/** Sharded on-disk record store keyed by LoopKey. */
class DiskCache
{
  public:
    /** Every counter name the cache keeps in its registry. */
    static constexpr const char *kCounters[] = {
        "disk.hits", "disk.misses", "disk.stores",
        "disk.corruptEvicted", "disk.compacted"};

    /**
     * Opens (creating if needed) the store rooted at @p dir.
     * Fatal — a user error, not a crash — when the directory cannot
     * be created or written.
     *
     * @param max_bytes resident-size budget; 0 = unlimited
     * @param metrics counter store (must outlive the cache); null
     *        counts into a registry the cache owns
     */
    DiskCache(std::string dir, std::uint64_t max_bytes,
              MetricRegistry *metrics = nullptr);

    DiskCache(const DiskCache &) = delete;
    DiskCache &operator=(const DiskCache &) = delete;

    /**
     * Loads @p key's record if present and valid. Any malformed or
     * mismatched-version record is evicted and reported as a miss.
     */
    bool lookup(const LoopKey &key, CompiledLoop &out);

    /**
     * Publishes @p key -> @p value atomically (write-then-rename).
     * I/O failures are counted, never fatal: a cache store is always
     * allowed to fail.
     */
    void store(const LoopKey &key, const CompiledLoop &value);

    /** Bytes currently resident (walks the store). */
    std::uint64_t residentBytes() const;

    /** Root directory. */
    const std::string &dir() const { return dir_; }

  private:
    /**
     * Unlinks records oldest-mtime-first until the resident size is
     * within budget. Runs when stores cross the budget.
     */
    void compact();

    std::string shardDir(const LoopKey &key) const;
    std::string recordPath(const LoopKey &key) const;

    std::string dir_;
    std::uint64_t maxBytes_;

    /** Approximate resident bytes; re-synced by each compaction.
     *  Signed so concurrent add/subtract races can transiently dip
     *  below zero instead of wrapping. */
    std::atomic<std::int64_t> approxBytes_{0};

    /** Serializes compactions within this process. */
    std::mutex compactMutex_;

    /** Distinguishes concurrent stores' temp files (with the pid
     *  and this-pointer; see store()). */
    std::atomic<std::uint64_t> tempSeq_{0};

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
