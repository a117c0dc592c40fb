/**
 * @file
 * Line-oriented text serialization of DDGs so loops can be dumped,
 * versioned and re-loaded (e.g. to reproduce a single interesting
 * loop outside the workload generator).
 *
 * Format:
 *   ddg <name> <trip-count>
 *   node <opcode> [label]
 *   edge <src> <dst> <latency> <distance> [flow|order]
 *   end
 * '#' starts a comment; blank lines are ignored. A file may hold
 * several blocks (readDdgBlocks).
 */

#ifndef GPSCHED_GRAPH_TEXTIO_HH
#define GPSCHED_GRAPH_TEXTIO_HH

#include <functional>
#include <istream>
#include <ostream>

#include "graph/ddg.hh"
#include "support/compile_error.hh"

namespace gpsched
{

/** Writes @p ddg in the text format. */
void writeDdgText(std::ostream &os, const Ddg &ddg);

/**
 * Parses one DDG. Malformed input throws CompileError (kind Parse,
 * support/compile_error.hh) so a batch front-end can report the bad
 * block and keep going; the loop name is attached once the `ddg`
 * header line has been seen.
 */
Ddg readDdgText(std::istream &is);

/**
 * Parses every `ddg ... end` block of @p is in order and hands each
 * to @p onBlock; blank and comment lines between blocks are skipped.
 * A malformed block throws its CompileError unless @p onError is
 * set: then @p onError receives it and parsing resumes at the next
 * `ddg` line, so one bad block cannot swallow the rest of the input.
 */
void readDdgBlocks(
    std::istream &is, const std::function<void(Ddg)> &onBlock,
    const std::function<void(const CompileError &)> &onError = {});

} // namespace gpsched

#endif // GPSCHED_GRAPH_TEXTIO_HH
