#include "support/logging.hh"

#include <cstdlib>
#include <iostream>
#include <mutex>

namespace gpsched
{

namespace
{

/**
 * Serializes every log write so messages from concurrent engine
 * workers never interleave mid-line. Each message is also built into
 * one string and written with a single stream insertion, so even a
 * non-gpsched writer to stderr can at worst split between messages.
 */
std::mutex &
logMutex()
{
    static std::mutex mutex;
    return mutex;
}

void
writeLine(const std::string &line)
{
    std::lock_guard<std::mutex> lock(logMutex());
    std::cerr << line << std::endl;
}

} // namespace

void
panicImpl(const char *file, int line, const std::string &msg)
{
    writeLine(buildMessage("panic: ", msg, "\n  at ", file, ":",
                           line));
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    writeLine(buildMessage("fatal: ", msg, "\n  at ", file, ":",
                           line));
    std::exit(1);
}

void
warnImpl(const char *file, int line, const std::string &msg)
{
    writeLine(buildMessage("warn: ", msg, " (", file, ":", line,
                           ")"));
}

} // namespace gpsched
