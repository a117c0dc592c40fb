#include "core/pipeline.hh"

#include "core/metrics.hh"
#include "engine/engine.hh"
#include "support/logging.hh"

namespace gpsched
{

namespace
{

/**
 * Folds per-loop results (in loop order) into a ProgramResult.
 * Failed loops are skipped and reported: their diagnostics land in
 * ProgramResult::failures (with a stderr warning) and every
 * aggregate is computed over the successful loops only.
 */
ProgramResult
aggregateProgram(const Program &program,
                 std::vector<CompileResult> results)
{
    ProgramResult result;
    result.name = program.name;
    result.loops.reserve(results.size());
    for (CompileResult &item : results) {
        if (!item.ok()) {
            GPSCHED_WARN("skipping loop '", item.error->loopName(),
                         "' of program '", program.name,
                         "': ", item.error->what());
            result.failures.push_back(std::move(*item.error));
            continue;
        }
        CompiledLoop &compiled = item.loop;
        result.totalOps += compiled.ops;
        result.totalCycles += compiled.cycles;
        result.loops.push_back(std::move(compiled));
    }
    result.ipc = ipcOf(result.totalOps, result.totalCycles);
    return result;
}

/** The engine-less overloads' engine: defaults with one job, which
 *  runs inline on the calling thread. */
EngineOptions
oneJobOptions()
{
    EngineOptions options;
    options.jobs = 1;
    return options;
}

std::vector<EngineJob>
jobsFor(const Program &program, const MachineConfig &machine,
        SchedulerKind kind, const LoopCompilerOptions &options)
{
    std::vector<EngineJob> jobs;
    jobs.reserve(program.loops.size());
    for (const Ddg &loop : program.loops)
        jobs.push_back(EngineJob{&loop, &machine, kind, options});
    return jobs;
}

} // namespace

ProgramResult
compileProgram(Engine &engine, const Program &program,
               const MachineConfig &machine, SchedulerKind kind,
               const LoopCompilerOptions &options)
{
    return aggregateProgram(
        program,
        engine.compileBatch(jobsFor(program, machine, kind, options)));
}

SuiteResult
compileSuite(Engine &engine, const std::vector<Program> &suite,
             const MachineConfig &machine, SchedulerKind kind,
             const LoopCompilerOptions &options)
{
    // One flat batch over every loop of every program, so parallelism
    // spans program boundaries instead of draining per program.
    std::vector<EngineJob> jobs;
    for (const Program &program : suite) {
        std::vector<EngineJob> programJobs =
            jobsFor(program, machine, kind, options);
        jobs.insert(jobs.end(), programJobs.begin(),
                    programJobs.end());
    }
    std::vector<CompileResult> compiled = engine.compileBatch(jobs);

    SuiteResult result;
    result.programs.reserve(suite.size());
    std::vector<double> ipcs;
    std::size_t next = 0;
    for (const Program &program : suite) {
        std::vector<CompileResult> loops(
            std::make_move_iterator(compiled.begin() +
                                    static_cast<std::ptrdiff_t>(next)),
            std::make_move_iterator(
                compiled.begin() +
                static_cast<std::ptrdiff_t>(next +
                                            program.loops.size())));
        next += program.loops.size();
        ProgramResult pr =
            aggregateProgram(program, std::move(loops));
        ipcs.push_back(pr.ipc);
        result.failedLoops += pr.failures.size();
        result.programs.push_back(std::move(pr));
    }
    result.meanIpc = averageIpc(ipcs);
    return result;
}

ProgramResult
compileProgram(const Program &program, const MachineConfig &machine,
               SchedulerKind kind, const LoopCompilerOptions &options)
{
    Engine engine(oneJobOptions());
    return compileProgram(engine, program, machine, kind, options);
}

SuiteResult
compileSuite(const std::vector<Program> &suite,
             const MachineConfig &machine, SchedulerKind kind,
             const LoopCompilerOptions &options)
{
    Engine engine(oneJobOptions());
    return compileSuite(engine, suite, machine, kind, options);
}

} // namespace gpsched
