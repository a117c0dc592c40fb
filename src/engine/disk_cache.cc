#include "engine/disk_cache.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include <unistd.h>

#include "serialize/record.hh"
#include "support/logging.hh"

namespace fs = std::filesystem;

namespace gpsched
{

namespace
{

constexpr const char *recordExtension = ".gpc";
constexpr const char *tempPrefix = ".tmp-";

/** Reads a whole file; false when it cannot be opened or read. */
bool
readFile(const fs::path &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad())
        return false;
    out = buffer.str();
    return true;
}

/** One record found by a store walk. */
struct WalkEntry
{
    fs::path path;
    std::uint64_t size = 0;
    fs::file_time_type mtime;
};

/**
 * Collects every record (and, separately, leftover temp files) under
 * @p root. Filesystem races with concurrent engines are expected;
 * every stat uses the error_code overloads and skips on failure.
 */
void
walkStore(const fs::path &root, std::vector<WalkEntry> &records,
          std::vector<fs::path> &temps)
{
    std::error_code ec;
    for (const fs::directory_entry &shard :
         fs::directory_iterator(root, ec)) {
        if (!shard.is_directory(ec))
            continue;
        std::error_code shardEc;
        for (const fs::directory_entry &entry :
             fs::directory_iterator(shard.path(), shardEc)) {
            const std::string name = entry.path().filename().string();
            if (name.rfind(tempPrefix, 0) == 0) {
                temps.push_back(entry.path());
                continue;
            }
            if (entry.path().extension() != recordExtension)
                continue;
            std::error_code statEc;
            WalkEntry record;
            record.path = entry.path();
            record.size = entry.file_size(statEc);
            if (statEc)
                continue;
            record.mtime = entry.last_write_time(statEc);
            if (statEc)
                continue;
            records.push_back(std::move(record));
        }
    }
}

} // namespace

DiskCache::DiskCache(std::string dir, std::uint64_t max_bytes,
                     MetricRegistry *metrics)
    : dir_(std::move(dir)), maxBytes_(max_bytes),
      ownedMetrics_(metrics == nullptr
                        ? std::make_unique<MetricRegistry>()
                        : nullptr)
{
    MetricRegistry &registry =
        metrics != nullptr ? *metrics : *ownedMetrics_;
    hits_ = &registry.counter("disk.hits");
    misses_ = &registry.counter("disk.misses");
    stores_ = &registry.counter("disk.stores");
    corruptEvicted_ = &registry.counter("disk.corruptEvicted");
    compacted_ = &registry.counter("disk.compacted");

    GPSCHED_ASSERT(!dir_.empty(), "disk cache without a directory");
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec) {
        GPSCHED_FATAL("cannot create cache directory '", dir_,
                      "': ", ec.message());
    }
    // Probe writability now: a cache that cannot store is a user
    // error worth a diagnostic at startup, not a silent no-op.
    const fs::path probe =
        fs::path(dir_) / (std::string(tempPrefix) + "probe");
    {
        std::ofstream out(probe, std::ios::binary);
        if (!out) {
            GPSCHED_FATAL("cache directory '", dir_,
                          "' is not writable");
        }
    }
    fs::remove(probe, ec);

    std::vector<WalkEntry> records;
    std::vector<fs::path> temps;
    walkStore(dir_, records, temps);
    std::uint64_t total = 0;
    for (const WalkEntry &record : records)
        total += record.size;
    approxBytes_.store(static_cast<std::int64_t>(total),
                       std::memory_order_relaxed);
}

std::string
DiskCache::shardDir(const LoopKey &key) const
{
    return (fs::path(dir_) / hexDigest(key.digest >> 56, 2))
        .string();
}

std::string
DiskCache::recordPath(const LoopKey &key) const
{
    return (fs::path(shardDir(key)) /
            (hexDigest(key.digest, 16) + recordExtension))
        .string();
}

bool
DiskCache::lookup(const LoopKey &key, CompiledLoop &out)
{
    const fs::path path = recordPath(key);
    std::string bytes;
    if (!readFile(path, bytes)) {
        misses_->add();
        return false;
    }

    LoopKey storedKey;
    CompiledLoop storedValue;
    if (!decodeCacheRecord(bytes, storedKey, storedValue)) {
        // Malformed, truncated or version-mismatched: evict so the
        // slot is rewritten with a fresh record on the next store.
        std::error_code ec;
        fs::remove(path, ec);
        if (!ec) {
            approxBytes_.fetch_sub(
                static_cast<std::int64_t>(bytes.size()),
                std::memory_order_relaxed);
        }
        corruptEvicted_->add();
        misses_->add();
        return false;
    }
    if (storedKey.canonical != key.canonical) {
        // A full-digest collision: the record is valid, it is just
        // someone else's. Leave it in place.
        misses_->add();
        return false;
    }

    // Touch for LRU-by-mtime compaction.
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);

    out = std::move(storedValue);
    hits_->add();
    return true;
}

void
DiskCache::store(const LoopKey &key, const CompiledLoop &value)
{
    const std::string record = encodeCacheRecord(key, value);
    const fs::path shard = shardDir(key);
    const fs::path path = recordPath(key);

    std::error_code ec;
    fs::create_directories(shard, ec);
    if (ec)
        return;

    // Unique temp name per (process, cache object, store): crashed
    // writers leave only temp files behind, never partial records,
    // and concurrent processes sharing one directory can never open
    // the same temp file.
    const std::uint64_t seq =
        tempSeq_.fetch_add(1, std::memory_order_relaxed);
    const fs::path temp =
        shard / (std::string(tempPrefix) +
                 std::to_string(::getpid()) + "-" +
                 hexDigest(reinterpret_cast<std::uintptr_t>(this),
                           16) +
                 "-" + std::to_string(seq));
    {
        std::ofstream out(temp, std::ios::binary);
        if (!out)
            return;
        out.write(record.data(),
                  static_cast<std::streamsize>(record.size()));
        // The final flush happens in close(); a short write there
        // must not reach the rename below.
        out.close();
        if (!out) {
            fs::remove(temp, ec);
            return;
        }
    }

    std::uint64_t replaced = 0;
    const std::uint64_t oldSize = fs::file_size(path, ec);
    if (!ec)
        replaced = oldSize;

    // rename(2) is atomic within a filesystem: readers see either
    // the old complete record or the new complete record.
    fs::rename(temp, path, ec);
    if (ec) {
        fs::remove(temp, ec);
        return;
    }
    stores_->add();

    const std::int64_t delta =
        static_cast<std::int64_t>(record.size()) -
        static_cast<std::int64_t>(replaced);
    const std::int64_t approx =
        approxBytes_.fetch_add(delta, std::memory_order_relaxed) +
        delta;
    if (maxBytes_ > 0 &&
        approx > static_cast<std::int64_t>(maxBytes_))
        compact();
}

void
DiskCache::compact()
{
    std::lock_guard<std::mutex> lock(compactMutex_);

    std::vector<WalkEntry> records;
    std::vector<fs::path> temps;
    walkStore(dir_, records, temps);

    // Reap temp files abandoned by crashed writers. Anything older
    // than an hour cannot belong to an in-flight store.
    const auto now = fs::file_time_type::clock::now();
    for (const fs::path &temp : temps) {
        std::error_code ec;
        const auto mtime = fs::last_write_time(temp, ec);
        if (!ec && now - mtime > std::chrono::hours(1))
            fs::remove(temp, ec);
    }

    std::uint64_t total = 0;
    for (const WalkEntry &record : records)
        total += record.size;

    if (maxBytes_ > 0 && total > maxBytes_) {
        std::sort(records.begin(), records.end(),
                  [](const WalkEntry &a, const WalkEntry &b) {
                      if (a.mtime != b.mtime)
                          return a.mtime < b.mtime;
                      return a.path < b.path;
                  });
        for (const WalkEntry &record : records) {
            if (total <= maxBytes_)
                break;
            std::error_code ec;
            fs::remove(record.path, ec);
            if (ec)
                continue;
            total -= std::min(record.size, total);
            compacted_->add();
        }
    }
    approxBytes_.store(static_cast<std::int64_t>(total),
                       std::memory_order_relaxed);
}

std::uint64_t
DiskCache::residentBytes() const
{
    std::vector<WalkEntry> records;
    std::vector<fs::path> temps;
    walkStore(dir_, records, temps);
    std::uint64_t total = 0;
    for (const WalkEntry &record : records)
        total += record.size;
    return total;
}

} // namespace gpsched
