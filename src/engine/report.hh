/**
 * @file
 * The `gpsched compile` report (schema v2): text DDG files read into
 * one batch, compiled on an Engine for one machine and one or more
 * schemes, optionally held to the two-oracle contract, and written as
 * JSON with one `loops[]` row per input block and scheme.
 */

#ifndef GPSCHED_ENGINE_REPORT_HH
#define GPSCHED_ENGINE_REPORT_HH

#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.hh"
#include "sim/replay.hh"

namespace gpsched
{

/** One `ddg … end` input block: a parsed DDG, or the parse error
 *  --keep-going recorded for it. */
struct CompileInput
{
    std::string file;
    Ddg ddg;
    std::optional<CompileError> parseError;

    bool parsed() const { return !parseError.has_value(); }
};

/**
 * Reads every block of every file in order. A block that fails to
 * parse throws its CompileError unless @p keepGoing, in which case it
 * is warned about, recorded as an unparsed input, and reading resumes
 * at the next block. Fatal when a file cannot be opened or holds no
 * block.
 */
std::vector<CompileInput>
readCompileInputs(const std::vector<std::string> &files, bool keepGoing);

/** A compile batch and its outcome: what the report writes. */
struct CompileReport
{
    explicit CompileReport(MachineConfig target)
        : machine(std::move(target))
    {
    }

    MachineConfig machine;
    std::vector<SchedulerKind> schemes;
    std::vector<CompileInput> inputs;
    int repeat = 1;
    bool keepGoing = false;
    bool simulate = false;

    /** One per parsed input per scheme, scheme-major. */
    std::vector<CompileResult> results;

    /** Parallel to results; set for compiled rows under simulate. */
    std::vector<std::optional<sim::Verdict>> verdicts;

    /** True if an input failed to parse or compile, or a verdict is
     *  not pass: the CLI's exit status 1. */
    bool failed() const;
};

/**
 * Compiles every parsed input of @p report under each of its schemes,
 * report.repeat times over @p engine, and fills results (and, under
 * simulate, verdicts, warning about each non-pass verdict). Without
 * keepGoing the first failed compile is thrown.
 */
void compileAll(Engine &engine, CompileReport &report);

/** Writes @p report as the schema-v2 JSON document; the engine block
 *  comes from writeEngineJson(@p engine). */
void writeCompileReport(std::ostream &os, const CompileReport &report,
                        const Engine &engine);

} // namespace gpsched

#endif // GPSCHED_ENGINE_REPORT_HH
