/**
 * @file
 * Error and status reporting helpers in the spirit of gem5's
 * base/logging.hh.
 *
 * panic()  -- an internal invariant was violated (a gpsched bug);
 *             aborts so a debugger/core dump can capture state.
 * fatal()  -- the simulation cannot continue because of a user error
 *             (bad configuration, inconsistent parameters); exits
 *             with a non-zero status.
 * warn()   -- something is questionable but execution continues.
 */

#ifndef GPSCHED_SUPPORT_LOGGING_HH
#define GPSCHED_SUPPORT_LOGGING_HH

#include <sstream>
#include <string>

namespace gpsched
{

/** Terminates with an abort after printing an internal-bug message. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Terminates with exit(1) after printing a user-error message. */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Prints a warning to stderr; execution continues. */
void warnImpl(const char *file, int line, const std::string &msg);

/** Builds a message from stream-style arguments. */
template <typename... Args>
std::string
buildMessage(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

} // namespace gpsched

#define GPSCHED_PANIC(...)                                                 \
    ::gpsched::panicImpl(__FILE__, __LINE__,                               \
                         ::gpsched::buildMessage(__VA_ARGS__))

#define GPSCHED_FATAL(...)                                                 \
    ::gpsched::fatalImpl(__FILE__, __LINE__,                               \
                         ::gpsched::buildMessage(__VA_ARGS__))

#define GPSCHED_WARN(...)                                                  \
    ::gpsched::warnImpl(__FILE__, __LINE__,                                \
                        ::gpsched::buildMessage(__VA_ARGS__))

/**
 * Invariant check that stays active in release builds. Use for
 * conditions that indicate a gpsched bug rather than a user error.
 */
#define GPSCHED_ASSERT(cond, ...)                                          \
    do {                                                                   \
        if (!(cond)) {                                                     \
            GPSCHED_PANIC("assertion '" #cond "' failed: ",                \
                          ::gpsched::buildMessage(__VA_ARGS__));           \
        }                                                                  \
    } while (0)

#endif // GPSCHED_SUPPORT_LOGGING_HH
