#include "engine/result_cache.hh"

#include "support/logging.hh"

namespace gpsched
{

ResultCache::ResultCache(std::size_t capacity, std::size_t num_shards)
{
    GPSCHED_ASSERT(capacity >= 1, "cache capacity must be >= 1");
    GPSCHED_ASSERT(num_shards >= 1, "cache needs >= 1 shard");
    if (num_shards > capacity)
        num_shards = capacity;
    capacityPerShard_ = (capacity + num_shards - 1) / num_shards;
    shards_.reserve(num_shards);
    for (std::size_t i = 0; i < num_shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
}

ResultCache::Shard &
ResultCache::shardFor(const LoopKey &key)
{
    return *shards_[key.digest % shards_.size()];
}

bool
ResultCache::lookup(const LoopKey &key, CompiledLoop &out)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it == shard.index.end())
        return false;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    out = it->second->value;
    return true;
}

void
ResultCache::insert(const LoopKey &key, const CompiledLoop &value)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
        it->second->value = value;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        return;
    }
    if (shard.lru.size() >= capacityPerShard_) {
        shard.index.erase(shard.lru.back().key);
        shard.lru.pop_back();
    }
    shard.lru.push_front(Entry{key, value});
    shard.index.emplace(key, shard.lru.begin());
}

std::size_t
ResultCache::size() const
{
    std::size_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->lru.size();
    }
    return total;
}

} // namespace gpsched
