/**
 * @file
 * The one checked way to write an output file. Every report, corpus,
 * trace, artifact and bench JSON goes through writeOutput, so a full
 * disk or an unwritable path ends the process with a diagnostic that
 * names the path instead of exiting 0 with nothing written.
 */

#ifndef GPSCHED_SUPPORT_OUTPUT_HH
#define GPSCHED_SUPPORT_OUTPUT_HH

#include <functional>
#include <ostream>
#include <string>

namespace gpsched
{

/**
 * Runs @p emit on std::cout when @p path is "-". Otherwise opens
 * @p path for writing (truncating it), runs @p emit on the file,
 * closes it and checks the stream: fatal, naming @p path, when the
 * file cannot be opened or any write failed.
 */
void writeOutput(const std::string &path,
                 const std::function<void(std::ostream &)> &emit);

} // namespace gpsched

#endif // GPSCHED_SUPPORT_OUTPUT_HH
