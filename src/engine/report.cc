#include "engine/report.hh"

#include <fstream>
#include <utility>

#include "graph/textio.hh"
#include "support/json.hh"
#include "support/logging.hh"

namespace gpsched
{

std::vector<CompileInput>
readCompileInputs(const std::vector<std::string> &files, bool keepGoing)
{
    std::vector<CompileInput> inputs;
    for (const std::string &path : files) {
        std::ifstream in(path);
        if (!in)
            GPSCHED_FATAL("cannot open DDG file '", path, "'");
        const std::size_t before = inputs.size();
        auto onBlock = [&](Ddg ddg) {
            CompileInput input;
            input.file = path;
            input.ddg = std::move(ddg);
            inputs.push_back(std::move(input));
        };
        auto onError = [&](const CompileError &error) {
            GPSCHED_WARN("skipping malformed DDG block in '", path,
                         "': ", error.what());
            CompileInput bad;
            bad.file = path;
            bad.parseError = error;
            inputs.push_back(std::move(bad));
        };
        if (keepGoing)
            readDdgBlocks(in, onBlock, onError);
        else
            readDdgBlocks(in, onBlock);
        if (inputs.size() == before)
            GPSCHED_FATAL("no DDGs found in '", path, "'");
    }
    return inputs;
}

bool
CompileReport::failed() const
{
    for (const CompileInput &input : inputs) {
        if (!input.parsed())
            return true;
    }
    for (const CompileResult &result : results) {
        if (!result.ok())
            return true;
    }
    for (const std::optional<sim::Verdict> &verdict : verdicts) {
        if (verdict && !verdict->ok())
            return true;
    }
    return false;
}

void
compileAll(Engine &engine, CompileReport &report)
{
    std::vector<EngineJob> batch;
    batch.reserve(report.schemes.size() * report.inputs.size());
    for (const SchedulerKind kind : report.schemes) {
        for (const CompileInput &input : report.inputs) {
            if (!input.parsed())
                continue;
            EngineJob job;
            job.loop = &input.ddg;
            job.machine = &report.machine;
            job.kind = kind;
            batch.push_back(job);
        }
    }
    for (int r = 0; r < report.repeat; ++r)
        report.results = engine.compileBatch(batch);

    report.verdicts.assign(report.results.size(), std::nullopt);
    if (report.simulate) {
        for (std::size_t i = 0; i < report.results.size(); ++i) {
            const CompileResult &result = report.results[i];
            if (!result.ok())
                continue;
            report.verdicts[i] = sim::verifyCompiled(
                *batch[i].loop, report.machine, result.loop);
            const sim::Verdict &verdict = *report.verdicts[i];
            if (!verdict.ok())
                GPSCHED_WARN("loop '", result.loop.loopName,
                             "' failed verification: ",
                             sim::toString(verdict.kind), ": ",
                             verdict.detail);
        }
    }
    // Without --keep-going the first compile failure ends the run
    // exactly like the historical fatal did.
    if (!report.keepGoing) {
        for (const CompileResult &result : report.results) {
            if (!result.ok())
                throw *result.error;
        }
    }
}

namespace
{

/** The report's error-object schema: kind, message, location. */
void
writeErrorObject(JsonWriter &json, const CompileError &error)
{
    json.beginObject("error");
    json.member("kind", toString(error.kind()));
    json.member("message", error.what());
    json.member("location", error.location());
    json.endObject();
}

} // namespace

void
writeCompileReport(std::ostream &os, const CompileReport &report,
                   const Engine &engine)
{
    JsonWriter json(os);
    json.beginObject();
    json.member("schemaVersion", 2);
    json.member("tool", "gpsched");
    const MachineConfig &machine = report.machine;
    json.beginObject("machine");
    json.member("name", machine.name());
    json.member("clusters", machine.numClusters());
    json.member("homogeneous", machine.homogeneous());
    json.member("totalIssueWidth", machine.totalIssueWidth());
    json.member("totalRegs", machine.totalRegs());
    json.member("buses", machine.numBuses());
    json.beginArray("clusterConfigs");
    for (int c = 0; c < machine.numClusters(); ++c) {
        const ClusterDesc &cluster = machine.cluster(c);
        json.beginObject();
        json.member("name", cluster.name);
        json.member("int", machine.fuInCluster(c, FuClass::Int));
        json.member("fp", machine.fuInCluster(c, FuClass::Fp));
        json.member("mem", machine.fuInCluster(c, FuClass::Mem));
        json.member("regs", cluster.regs);
        json.endObject();
    }
    json.endArray();
    json.beginArray("busClasses");
    for (int i = 0; i < machine.numBusClasses(); ++i) {
        json.beginObject();
        json.member("count", machine.busClass(i).count);
        json.member("latency", machine.busClass(i).latency);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    json.beginArray("loops");
    // Results cover the parsed inputs only, scheme-major in batch
    // order.
    std::size_t next = 0;
    for (const SchedulerKind kind : report.schemes) {
        for (const CompileInput &input : report.inputs) {
            json.beginObject();
            json.member("file", input.file);
            if (!input.parsed()) {
                json.member("name", input.parseError->loopName());
                json.member("scheme", toString(kind));
                writeErrorObject(json, *input.parseError);
                json.endObject();
                continue;
            }
            const std::size_t row = next++;
            const CompileResult &result = report.results[row];
            json.member("name", result.ok() ? result.loop.loopName
                                            : result.error->loopName());
            json.member("scheme", toString(kind));
            json.member("nodes", input.ddg.numNodes());
            json.member("edges", input.ddg.numEdges());
            json.member("tripCount", input.ddg.tripCount());
            // How this row was obtained and how long the engine
            // spent on it.
            json.member("source", compileSourceName(result.source));
            json.member("compileMs", result.compileMs);
            if (!result.ok()) {
                writeErrorObject(json, *result.error);
                json.endObject();
                continue;
            }
            const CompiledLoop &loop = result.loop;
            json.member("moduloScheduled", loop.moduloScheduled);
            json.member("mii", loop.mii);
            json.member("ii", loop.ii);
            json.member("scheduleLength", loop.scheduleLength);
            json.member("cycles", loop.cycles);
            json.member("ops", loop.ops);
            json.member("ipc", loop.ipc);
            json.member("busTransfers", loop.stats.busTransfers);
            json.member("memTransfers", loop.stats.memTransfers);
            json.member("spills", loop.stats.spills);
            json.member("partitionRuns", loop.partitionRuns);
            json.member("scheduleAttempts", loop.scheduleAttempts);
            // --simulate: the oracle verdict rides on the row.
            if (report.verdicts[row].has_value()) {
                const sim::Verdict &v = *report.verdicts[row];
                const sim::SimResult &s = v.sim;
                json.member("verdict", sim::toString(v.kind));
                if (!v.ok())
                    json.member("verdictDetail", v.detail);
                json.member("replayed", s.replayed);
                json.member("simOk", s.simOk);
                json.member("achievedII", s.achievedII);
                json.member("simCycles", s.simCycles);
                json.member("achievedIpc", s.achievedIpc);
                if (s.fault.has_value()) {
                    json.beginObject("simFault");
                    json.member("kind", sim::toString(s.fault->kind));
                    json.member("cycle", s.fault->cycle);
                    json.member("node", static_cast<int>(s.fault->node));
                    json.member("detail", s.fault->detail);
                    json.endObject();
                }
            }
            json.endObject();
        }
    }
    json.endArray();
    json.beginObject("engine");
    json.member("repeat", report.repeat);
    json.member("keepGoing", report.keepGoing);
    json.member("simulate", report.simulate);
    writeEngineJson(json, engine);
    json.endObject();
    json.endObject();
}

} // namespace gpsched
