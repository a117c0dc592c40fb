/**
 * @file
 * Whole-program compilation pipeline: compiles every innermost loop
 * of a program with one scheme on one machine and aggregates IPC the
 * way the paper's evaluation does (Section 4.1). A "program" stands
 * for one SPECfp95 benchmark: a set of profiled innermost-loop DDGs
 * that cover ~95% of its execution time.
 *
 * All compilation routes through the batch engine (engine/engine.hh).
 * The Engine-taking overloads run the loops of a program — and, for
 * compileSuite, of the whole suite — as one concurrent batch and
 * reuse the engine's fingerprint cache; the engine-less overloads
 * run serially on a private default engine with one job (loops of
 * one shape repeated within the call compile once). Aggregates are
 * computed from results in submission order, so every overload is
 * bit-deterministic and independent of the worker count.
 *
 * Per-loop failures are skipped and reported, never fatal: a loop
 * the engine rejects (CompileError) is excluded from the aggregates,
 * recorded in ProgramResult::failures, and warned about on stderr —
 * the rest of the program and suite compiles normally.
 */

#ifndef GPSCHED_CORE_PIPELINE_HH
#define GPSCHED_CORE_PIPELINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/gp_scheduler.hh"
#include "graph/ddg.hh"
#include "machine/machine.hh"
#include "support/compile_error.hh"

namespace gpsched
{

class Engine;

/** One benchmark: a named set of profiled innermost loops. */
struct Program
{
    std::string name;
    std::vector<Ddg> loops;
};

/** Aggregated outcome of compiling one program. */
struct ProgramResult
{
    std::string name;

    /** Successfully compiled loops, in submission order; loops that
     *  failed are absent here and recorded in failures instead. */
    std::vector<CompiledLoop> loops;

    /** Per-loop diagnostics of the loops that failed to compile
     *  (excluded from every aggregate below). */
    std::vector<CompileError> failures;

    /** Program operations executed over all loops. */
    std::int64_t totalOps = 0;

    /** Execution cycles over all loops. */
    std::int64_t totalCycles = 0;

    /** totalOps / totalCycles. */
    double ipc = 0.0;
};

/** Outcome of compiling a whole suite. */
struct SuiteResult
{
    std::vector<ProgramResult> programs;

    /** Arithmetic mean of program IPCs (the paper's average bar). */
    double meanIpc = 0.0;

    /** Loops that failed across the whole suite (the per-program
     *  diagnostics live in ProgramResult::failures). */
    std::uint64_t failedLoops = 0;
};

/** Compiles every loop of @p program serially (one-job engine). */
ProgramResult compileProgram(const Program &program,
                             const MachineConfig &machine,
                             SchedulerKind kind,
                             const LoopCompilerOptions &options = {});

/** Compiles every program of @p suite serially (one-job engine). */
SuiteResult compileSuite(const std::vector<Program> &suite,
                         const MachineConfig &machine,
                         SchedulerKind kind,
                         const LoopCompilerOptions &options = {});

/** Compiles @p program's loops as one batch on @p engine. */
ProgramResult compileProgram(Engine &engine, const Program &program,
                             const MachineConfig &machine,
                             SchedulerKind kind,
                             const LoopCompilerOptions &options = {});

/** Compiles every loop of every program as one batch on @p engine. */
SuiteResult compileSuite(Engine &engine,
                         const std::vector<Program> &suite,
                         const MachineConfig &machine,
                         SchedulerKind kind,
                         const LoopCompilerOptions &options = {});

} // namespace gpsched

#endif // GPSCHED_CORE_PIPELINE_HH
