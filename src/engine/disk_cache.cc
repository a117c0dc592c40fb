#include "engine/disk_cache.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "serialize/record.hh"
#include "support/logging.hh"

namespace fs = std::filesystem;

namespace gpsched
{

namespace
{

constexpr const char *packExtension = ".gpp";

/** Numbers the caches of this process, naming their packs apart. */
std::atomic<std::uint64_t> cacheInstances{0};

/** One pack file found in the store directory. */
struct PackFile
{
    fs::path path;
    std::uint64_t size = 0;
    fs::file_time_type mtime;
};

/**
 * Every pack under @p dir, oldest-mtime-first. Races with concurrent
 * caches are expected: a pack whose stat fails is skipped.
 */
std::vector<PackFile>
listPacks(const std::string &dir)
{
    std::vector<PackFile> packs;
    std::error_code ec;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(dir, ec)) {
        if (entry.path().extension() != packExtension)
            continue;
        std::error_code statEc;
        PackFile pack;
        pack.path = entry.path();
        pack.size = entry.file_size(statEc);
        if (!statEc)
            pack.mtime = entry.last_write_time(statEc);
        if (!statEc)
            packs.push_back(std::move(pack));
    }
    std::sort(packs.begin(), packs.end(),
              [](const PackFile &a, const PackFile &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.path < b.path;
              });
    return packs;
}

} // namespace

DiskCache::DiskCache(std::string dir, std::uint64_t max_bytes,
                     MetricRegistry *metrics)
    : dir_(std::move(dir)),
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
    const fs::path probe = fs::path(dir_) / ".probe";
    {
        std::ofstream out(probe, std::ios::binary);
        if (!out) {
            GPSCHED_FATAL("cache directory '", dir_,
                          "' is not writable");
        }
    }
    fs::remove(probe, ec);

    std::vector<PackFile> packs = listPacks(dir_);
    std::uint64_t total = 0;
    for (const PackFile &pack : packs)
        total += pack.size;
    for (std::size_t i = 0; i < packs.size(); ++i) {
        const PackFile &pack = packs[i];
        const bool over = (max_bytes > 0 && total > max_bytes) ||
                          packs.size() - i > kMaxPacks;
        if (over && fs::remove(pack.path, ec)) {
            total -= pack.size;
            compacted_->add();
            continue;
        }
        const int fd =
            ::open(pack.path.c_str(), O_RDONLY | O_CLOEXEC);
        if (fd < 0)
            continue;
        packs_.push_back(fd);
        corruptEvicted_->add(scanPack(packs_.size() - 1, pack.size));
    }
}

DiskCache::~DiskCache()
{
    for (int fd : packs_)
        ::close(fd);
}

std::uint64_t
DiskCache::scanPack(std::size_t pack, std::uint64_t size)
{
    // The pack is read through this window, never held whole.
    std::vector<char> window(64 << 10);
    std::uint64_t start = 0;
    std::uint64_t filled = 0;
    // The @p n bytes at @p at (n within the window), or null past
    // @p size: a writer may still be appending beyond it.
    auto bytesAt = [&](std::uint64_t at,
                       std::size_t n) -> const char * {
        if (at < start || at + n > start + filled) {
            const ssize_t got = ::pread(
                packs_[pack], window.data(),
                std::min<std::uint64_t>(window.size(), size - at),
                static_cast<off_t>(at));
            start = at;
            filled = got > 0 ? static_cast<std::uint64_t>(got) : 0;
        }
        return at + n <= start + filled ? window.data() + (at - start)
                                        : nullptr;
    };

    std::uint64_t rejected = 0;
    for (std::uint64_t at = 0; at < size;) {
        // The header plus the key's length prefix: every valid
        // record is longer than that.
        const char *head = bytesAt(at, recordHeaderSize + 4);
        if (head == nullptr)
            return rejected + 1;
        ByteReader in(head, recordHeaderSize + 4);
        const bool framed = in.u32() == diskRecordMagic &&
                            in.u32() == recordFormatVersion &&
                            in.u32() == keySchemaVersion;
        const std::uint64_t payload = in.u64();
        in.u64(); // checksum: verified by lookup
        const std::uint64_t keyLength = in.u32();
        if (!framed || payload > size - at - recordHeaderSize)
            return rejected + 1;
        // The key's digest follows its canonical string.
        const char *digest =
            keyLength + 12 <= payload
                ? bytesAt(at + recordHeaderSize + 4 + keyLength, 8)
                : nullptr;
        if (digest != nullptr) {
            index_[ByteReader(digest, 8).u64()] =
                Slot{pack, at, recordHeaderSize + payload};
        } else {
            ++rejected;
        }
        at += recordHeaderSize + payload;
    }
    return rejected;
}

bool
DiskCache::lookup(const LoopKey &key, CompiledLoop &out)
{
    Slot slot;
    int fd;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = index_.find(key.digest);
        if (it == index_.end()) {
            misses_->add();
            return false;
        }
        slot = it->second;
        fd = packs_[slot.pack];
    }

    // One read buffer per thread, grown to the longest record it
    // has read and reused, so a hit allocates nothing for the record
    // bytes; the stored key is compared in place.
    thread_local std::vector<char> bytes;
    if (bytes.size() < slot.length)
        bytes.resize(slot.length);
    const RecordMatch match =
        ::pread(fd, bytes.data(), slot.length,
                static_cast<off_t>(slot.offset)) ==
                static_cast<ssize_t>(slot.length)
            ? matchCacheRecord(bytes.data(), slot.length, key, out)
            : RecordMatch::Corrupt;
    if (match == RecordMatch::Corrupt) {
        // Short, malformed or version-mismatched: drop it from the
        // index (once, should lookups race) so the next store
        // replaces it.
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = index_.find(key.digest);
        if (it != index_.end() && it->second.pack == slot.pack &&
            it->second.offset == slot.offset) {
            index_.erase(it);
            corruptEvicted_->add();
        }
        misses_->add();
        return false;
    }
    if (match == RecordMatch::OtherKey) {
        // A full-digest collision: the record is valid, it is just
        // someone else's. Leave it in place.
        misses_->add();
        return false;
    }
    hits_->add();
    return true;
}

void
DiskCache::store(const LoopKey &key, const CompiledLoop &value)
{
    const std::string record = encodeCacheRecord(key, value);
    std::lock_guard<std::mutex> lock(mutex_);
    if (own_ < 0) {
        // O_EXCL: a pack left by an earlier process with this pid
        // is never appended to; try the next name.
        const std::string stem =
            (fs::path(dir_) /
             (std::to_string(::getpid()) + "-" +
              std::to_string(cacheInstances.fetch_add(1)) + "-"))
                .string();
        int fd = -1;
        for (int n = 0; fd < 0; ++n) {
            fd = ::open((stem + std::to_string(n) + packExtension)
                            .c_str(),
                        O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
            if (fd < 0 && errno != EEXIST)
                return;
        }
        packs_.push_back(fd);
        own_ = static_cast<int>(packs_.size() - 1);
    }

    const int fd = packs_[own_];
    if (::pwrite(fd, record.data(), record.size(),
                 static_cast<off_t>(ownEnd_)) !=
        static_cast<ssize_t>(record.size())) {
        // Cut the torn bytes off so no later scan meets them; the
        // next store overwrites them should this fail too.
        [[maybe_unused]] const int cut =
            ::ftruncate(fd, static_cast<off_t>(ownEnd_));
        return;
    }
    index_[key.digest] =
        Slot{static_cast<std::size_t>(own_), ownEnd_, record.size()};
    ownEnd_ += record.size();
    stores_->add();
}

std::uint64_t
DiskCache::residentBytes() const
{
    std::uint64_t total = 0;
    for (const PackFile &pack : listPacks(dir_))
        total += pack.size;
    return total;
}

} // namespace gpsched
