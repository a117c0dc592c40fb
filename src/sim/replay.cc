#include "sim/replay.hh"

#include <sstream>

#include "sched/validate.hh"

namespace gpsched::sim
{

namespace
{

std::string
faultText(const SimResult &sim)
{
    return sim.fault ? sim.fault->toString() : std::string("ok");
}

void
mismatch(ReplayReport &report, const std::string &program,
         const std::string &loop, std::string detail)
{
    report.mismatches.push_back({program, loop, std::move(detail)});
}

void
verifyInto(ReplayReport &report, const std::string &program_name,
           const Ddg &ddg, const CompiledLoop &loop,
           const MachineConfig &machine)
{
    Verdict verdict = verifyCompiled(ddg, machine, loop);
    ++report.loopsChecked;
    if (verdict.sim.replayed)
        ++report.loopsReplayed;
    if (!verdict.ok())
        mismatch(report, program_name, loop.loopName,
                 std::string(toString(verdict.kind)) + ": " +
                     verdict.detail);
}

void
replayInto(ReplayReport &report, const Program &program,
           const ProgramResult &result, const MachineConfig &machine)
{
    // result.loops holds the successes in submission order; walk the
    // program's DDGs with a cursor so skipped failures stay aligned.
    std::size_t next = 0;
    for (const CompiledLoop &loop : result.loops) {
        while (next < program.loops.size() &&
               program.loops[next].name() != loop.loopName)
            ++next;
        if (next == program.loops.size()) {
            mismatch(report, program.name, loop.loopName,
                     "compiled loop not found in the program's DDGs");
            continue;
        }
        verifyInto(report, program.name, program.loops[next], loop,
                   machine);
        ++next;
    }
}

} // namespace

const char *
toString(VerdictKind kind)
{
    switch (kind) {
      case VerdictKind::Pass:
        return "pass";
      case VerdictKind::OracleDisagree:
        return "oracle-disagree";
      case VerdictKind::ScheduleRejected:
        return "schedule-rejected";
      case VerdictKind::MetricMismatch:
        return "metric-mismatch";
      default:
        return "?";
    }
}

Verdict
verifyCompiled(const Ddg &ddg, const MachineConfig &machine,
               const CompiledLoop &loop)
{
    Verdict verdict;
    verdict.sim = simulate(ddg, machine, loop);
    const SimResult &s = verdict.sim;
    auto fail = [&](VerdictKind kind, std::string detail) {
        verdict.kind = kind;
        verdict.detail = std::move(detail);
        return verdict;
    };

    // The list-scheduling fallback records no placements, so only
    // the simulator's recomputed cycle model can check it.
    if (loop.moduloScheduled) {
        ValidationResult v = validateSchedule(ddg, machine, loop);
        if (v.valid != s.simOk)
            return fail(VerdictKind::OracleDisagree,
                        "validator says '" +
                            (v.valid ? std::string("ok")
                                     : v.message) +
                            "', simulator says " + faultText(s));
        if (!v.valid)
            return fail(VerdictKind::ScheduleRejected,
                        "validator: " + v.message +
                            "; simulator: " + faultText(s));
    } else if (!s.simOk) {
        return fail(VerdictKind::ScheduleRejected,
                    "simulator rejects list-scheduled record: " +
                        faultText(s));
    }

    std::ostringstream mm;
    if (loop.moduloScheduled && s.achievedII != loop.ii)
        mm << " achievedII " << s.achievedII << " != ii " << loop.ii;
    if (s.simCycles != loop.cycles)
        mm << " simCycles " << s.simCycles << " != cycles "
           << loop.cycles;
    if (s.achievedIpc != loop.ipc)
        mm << " achievedIpc " << s.achievedIpc << " != ipc "
           << loop.ipc;
    if (!mm.str().empty())
        return fail(VerdictKind::MetricMismatch, mm.str().substr(1));
    return verdict;
}

std::string
ReplayReport::summary() const
{
    std::ostringstream oss;
    oss << "replayed " << loopsReplayed << "/" << loopsChecked
        << " loops, " << mismatches.size() << " mismatches";
    if (!mismatches.empty()) {
        const ReplayMismatch &m = mismatches.front();
        oss << " (first: " << m.program << "/" << m.loop << ": "
            << m.detail << ")";
    }
    return oss.str();
}

ReplayReport
replaySuite(const std::vector<Program> &suite,
            const SuiteResult &result, const MachineConfig &machine)
{
    ReplayReport report;
    for (const ProgramResult &pr : result.programs) {
        for (const Program &p : suite) {
            if (p.name == pr.name) {
                replayInto(report, p, pr, machine);
                break;
            }
        }
    }
    return report;
}

} // namespace gpsched::sim
