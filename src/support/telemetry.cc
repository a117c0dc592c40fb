#include "support/telemetry.hh"

#include <cmath>

#include "support/json.hh"
#include "support/logging.hh"

namespace gpsched
{

const char *
compilePhaseName(CompilePhase phase)
{
    switch (phase) {
      case CompilePhase::Mii:
        return "mii";
      case CompilePhase::Coarsen:
        return "coarsen";
      case CompilePhase::InitialPartition:
        return "initialPartition";
      case CompilePhase::Refine:
        return "refine";
      case CompilePhase::ModuloSchedule:
        return "moduloSchedule";
      case CompilePhase::TransferPlanning:
        return "transferPlanning";
      case CompilePhase::ListSchedule:
        return "listSchedule";
      case CompilePhase::NumPhases:
        break;
    }
    GPSCHED_PANIC("invalid CompilePhase ", static_cast<int>(phase));
}

bool
compilePhaseTraced(CompilePhase phase)
{
    return phase != CompilePhase::TransferPlanning;
}

void
CompileTrace::merge(const CompileTrace &other)
{
    for (std::size_t i = 0; i < kNumCompilePhases; ++i)
        phases[i].merge(other.phases[i]);
    wallNanos += other.wallNanos;
    cpuNanos += other.cpuNanos;
    compiles += other.compiles;
}

bool
CompileTrace::empty() const
{
    if (compiles != 0 || wallNanos != 0 || cpuNanos != 0)
        return false;
    for (const PhaseTotals &totals : phases)
        if (totals.count != 0)
            return false;
    return true;
}

TelemetryContext &
telemetryContext()
{
    thread_local TelemetryContext ctx;
    return ctx;
}

PhaseScope::PhaseScope(CompilePhase phase) : phase_(phase)
{
    const TelemetryContext &ctx = telemetryContext();
    if (ctx.trace == nullptr && ctx.sink == nullptr)
        return;
    active_ = true;
    startWall_ = traceNowNanos();
    startCpu_ = threadCpuNanos();
}

PhaseScope::~PhaseScope()
{
    if (!active_)
        return;
    const TelemetryContext &ctx = telemetryContext();
    std::uint64_t endWall = traceNowNanos();
    std::uint64_t wall = endWall - startWall_;
    std::uint64_t cpu = threadCpuNanos() - startCpu_;
    if (ctx.trace != nullptr) {
        PhaseTotals &totals = ctx.trace->phase(phase_);
        totals.wallNanos += wall;
        totals.cpuNanos += cpu;
        totals.count += 1;
    }
    if (ctx.sink != nullptr && compilePhaseTraced(phase_)) {
        TraceEvent event;
        event.name = compilePhaseName(phase_);
        event.cat = "phase";
        event.pid = ctx.pid;
        event.tid = traceThreadId();
        event.tsNanos = startWall_;
        event.durNanos = wall;
        ctx.sink->complete(std::move(event));
    }
}

MetricRegistry::Counter &
MetricRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

std::uint64_t
MetricRegistry::counterValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second->value();
}

MetricRegistry::Gauge &
MetricRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
MetricRegistry::histogram(const std::string &name, double lowest,
                          double growth, std::size_t buckets)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>(lowest, growth, buckets);
    return *slot;
}

void
MetricRegistry::writeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    JsonWriter json(os);
    json.beginObject();
    json.beginObject("counters");
    for (const auto &kv : counters_)
        json.member(kv.first, kv.second->value());
    json.endObject();
    json.beginObject("gauges");
    for (const auto &kv : gauges_)
        json.member(kv.first,
                    static_cast<std::int64_t>(kv.second->value()));
    json.endObject();
    json.beginObject("histograms");
    for (const auto &kv : histograms_) {
        const Histogram &h = *kv.second;
        json.beginObject(kv.first);
        json.member("count", static_cast<std::uint64_t>(h.count()));
        json.member("sum", h.sum());
        json.member("mean", h.mean());
        json.member("min", h.min());
        json.member("max", h.max());
        json.member("p50", h.p50());
        json.member("p95", h.p95());
        json.beginArray("buckets");
        for (const Histogram::Bucket &bucket : h.buckets()) {
            if (bucket.count == 0)
                continue;
            json.beginObject();
            // Prometheus-style bound; the overflow bucket is "+Inf"
            // (JsonWriter renders a bare inf as null).
            if (std::isinf(bucket.upperBound))
                json.member("le", "+Inf");
            else
                json.member("le", bucket.upperBound);
            json.member("count",
                        static_cast<std::uint64_t>(bucket.count));
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endObject();
    json.endObject();
    os << "\n";
}

void
writeCompileTracePhases(JsonWriter &json, const std::string &key,
                        const CompileTrace &trace)
{
    json.beginArray(key);
    for (std::size_t i = 0; i < kNumCompilePhases; ++i) {
        const PhaseTotals &totals = trace.phases[i];
        if (totals.count == 0)
            continue;
        json.beginObject();
        json.member("phase",
                    compilePhaseName(static_cast<CompilePhase>(i)));
        json.member("count", totals.count);
        json.member("wallMs",
                    static_cast<double>(totals.wallNanos) * 1e-6);
        json.member("cpuMs",
                    static_cast<double>(totals.cpuNanos) * 1e-6);
        json.endObject();
    }
    json.endArray();
}

} // namespace gpsched
