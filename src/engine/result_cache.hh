/**
 * @file
 * Sharded, mutex-striped LRU cache of compiled-loop results keyed by
 * LoopKey fingerprints. A lookup or insertion locks only the shard
 * the key's digest maps to, so concurrent workers compiling
 * different loops rarely contend. Keys compare by their full
 * canonical encoding, never by digest alone, so a hit is always an
 * exact job match.
 *
 * The cached CompiledLoop carries the loop *shape*'s result; the
 * engine patches the requesting loop's name onto a hit because names
 * are excluded from the fingerprint (see loop_key.hh).
 *
 * The cache keeps no counters; the engine counts its traffic.
 */

#ifndef GPSCHED_ENGINE_RESULT_CACHE_HH
#define GPSCHED_ENGINE_RESULT_CACHE_HH

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/gp_scheduler.hh"
#include "engine/loop_key.hh"

namespace gpsched
{

/** N-way sharded LRU map from LoopKey to CompiledLoop. */
class ResultCache
{
  public:
    /**
     * @param capacity total cached entries over all shards (>= 1)
     * @param num_shards lock stripes (>= 1); capacity is split evenly
     *        with each shard holding at least one entry
     */
    explicit ResultCache(std::size_t capacity,
                         std::size_t num_shards = 16);

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /**
     * Looks @p key up; on a hit copies the value into @p out,
     * refreshes recency and returns true.
     */
    bool lookup(const LoopKey &key, CompiledLoop &out);

    /**
     * Inserts (or refreshes) @p key -> @p value, evicting the shard's
     * least-recently-used entry when at capacity.
     */
    void insert(const LoopKey &key, const CompiledLoop &value);

    /** Entries currently cached over all shards. */
    std::size_t size() const;

  private:
    struct Entry
    {
        LoopKey key;
        CompiledLoop value;
    };

    /** One lock stripe: an LRU list plus an index into it. */
    struct Shard
    {
        mutable std::mutex mutex;
        std::list<Entry> lru; ///< front = most recently used
        std::unordered_map<LoopKey, std::list<Entry>::iterator> index;
    };

    Shard &shardFor(const LoopKey &key);

    std::size_t capacityPerShard_;
    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace gpsched

#endif // GPSCHED_ENGINE_RESULT_CACHE_HH
