/**
 * @file
 * `.machine` files: a validating, line-oriented text format for
 * clustered-machine descriptions, so a new processor scenario is a
 * ten-line file instead of a code change.
 *
 * Grammar (one directive per line; '#' starts a comment; blank lines
 * are ignored):
 *
 *   machine NAME                             # first directive
 *   cluster NAME int N fp N mem N regs N     # one per cluster
 *   buses COUNT latency N                    # one per bus class
 *   latency OPCODE N [occupancy N]           # timing override
 *   end                                      # last directive
 *
 * The four cluster resource keywords may appear in any order but each
 * exactly once. A cluster may declare 0 units of a class as long as
 * the machine keeps at least one unit of that class somewhere; a
 * multi-cluster machine needs at least one bus. OPCODE uses the
 * mnemonics of machine/op.hh ("ialu", "fmul", "load", ...).
 *
 * Parsing never aborts the process: malformed input yields a
 * MachineParseError with the offending file and line. The tests'
 * writer (tests/testing/machine_text.hh) emits a canonical form that
 * parses back to an identical MachineConfig.
 */

#ifndef GPSCHED_MACHINE_MACHINE_DESC_HH
#define GPSCHED_MACHINE_MACHINE_DESC_HH

#include <iosfwd>
#include <optional>
#include <string>

#include "machine/machine.hh"

namespace gpsched
{

/** One line-anchored parse diagnostic. */
struct MachineParseError
{
    std::string file; ///< display name of the input
    int line = 0;     ///< 1-based; 0 when the input ended early
    std::string message;

    /** "file:line: message" (the classic compiler diagnostic shape). */
    std::string toString() const;
};

/**
 * Parses one `.machine` description from @p in. @p filename is used
 * in diagnostics only. Returns std::nullopt and fills @p error (when
 * non-null) on malformed input.
 */
std::optional<MachineConfig>
parseMachineDesc(std::istream &in, const std::string &filename,
                 MachineParseError *error = nullptr);

/** Opens and parses @p path; unreadable files are a parse error. */
std::optional<MachineConfig>
parseMachineDescFile(const std::string &path,
                     MachineParseError *error = nullptr);

/** File parse for tools: fatal with the full diagnostic on failure. */
MachineConfig loadMachineFile(const std::string &path);

} // namespace gpsched

#endif // GPSCHED_MACHINE_MACHINE_DESC_HH
