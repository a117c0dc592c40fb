#include "support/trace.hh"

#include <algorithm>
#include <atomic>
#include <ctime>

#include "support/json.hh"

namespace gpsched
{

namespace
{

std::uint64_t
clockNanos(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t
monotonicNanos()
{
    return clockNanos(CLOCK_MONOTONIC);
}

} // namespace

void
TraceSink::complete(TraceEvent event)
{
    event.ph = 'X';
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(event));
}

void
TraceSink::asyncSpan(const std::string &name, const std::string &cat,
                     std::uint32_t pid, std::uint32_t tid,
                     std::uint64_t pairId, std::uint64_t startNanos,
                     std::uint64_t endNanos)
{
    TraceEvent begin;
    begin.name = name;
    begin.cat = cat;
    begin.ph = 'b';
    begin.pid = pid;
    begin.tid = tid;
    begin.tsNanos = startNanos;
    begin.id = pairId;
    TraceEvent end = begin;
    end.ph = 'e';
    end.tsNanos = std::max(endNanos, startNanos);
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(begin));
    events_.push_back(std::move(end));
}

void
TraceSink::metadata(const std::string &name, std::uint32_t pid,
                    std::uint32_t tid, const std::string &value)
{
    TraceEvent event;
    event.name = name;
    event.ph = 'M';
    event.pid = pid;
    event.tid = tid;
    event.args.emplace_back("name", value);
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(event));
}

std::vector<TraceEvent>
TraceSink::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
}

void
TraceSink::writeJson(std::ostream &os) const
{
    std::vector<TraceEvent> events = snapshot();
    // Metadata first, then by timestamp: keeps ts monotonic over the
    // non-metadata events, which the validator asserts.
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         bool metaA = a.ph == 'M';
                         bool metaB = b.ph == 'M';
                         if (metaA != metaB)
                             return metaA;
                         return a.tsNanos < b.tsNanos;
                     });
    JsonWriter json(os);
    json.beginObject();
    json.beginArray("traceEvents");
    for (const TraceEvent &event : events) {
        json.beginObject();
        json.member("name", event.name);
        if (!event.cat.empty())
            json.member("cat", event.cat);
        json.member("ph", std::string(1, event.ph));
        json.member("pid", static_cast<std::uint64_t>(event.pid));
        json.member("tid", static_cast<std::uint64_t>(event.tid));
        json.member("ts",
                    static_cast<double>(event.tsNanos) * 1e-3);
        if (event.ph == 'X')
            json.member("dur",
                        static_cast<double>(event.durNanos) * 1e-3);
        if (event.ph == 'b' || event.ph == 'e') {
            json.member("id", event.id);
            // The async scope: pair 'b'/'e' by (cat, id, scope).
            json.member("scope", "gpsched");
        }
        if (!event.args.empty()) {
            json.beginObject("args");
            for (const auto &kv : event.args)
                json.member(kv.first, kv.second);
            json.endObject();
        }
        json.endObject();
    }
    json.endArray();
    json.endObject();
    os << "\n";
}

std::uint64_t
traceNowNanos()
{
    // First caller pins the anchor; relaxed is fine because the value
    // is idempotent (ties broken by compare_exchange).
    static std::atomic<std::uint64_t> anchor{0};
    std::uint64_t now = monotonicNanos();
    std::uint64_t seen = anchor.load(std::memory_order_relaxed);
    if (seen == 0) {
        anchor.compare_exchange_strong(seen, now,
                                       std::memory_order_relaxed);
        seen = anchor.load(std::memory_order_relaxed);
    }
    // Two racing first callers can pin an anchor a hair after this
    // thread's read; saturate instead of wrapping.
    return now >= seen ? now - seen : 0;
}

std::uint64_t
threadCpuNanos()
{
    return clockNanos(CLOCK_THREAD_CPUTIME_ID);
}

std::uint32_t
traceThreadId()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local std::uint32_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

std::uint64_t
traceNextPairId()
{
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

} // namespace gpsched
