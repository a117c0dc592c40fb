#include "support/args.hh"

#include <cerrno>
#include <cstdlib>
#include <iostream>

namespace gpsched
{

int
parseCount(const char *argv0, const std::string &flag,
           const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    long value = std::strtol(text.c_str(), &end, 10);
    if (errno != 0 || end == text.c_str() || *end != '\0' ||
        value < 0 || value > 1 << 20) {
        std::cerr << argv0 << ": " << flag
                  << " needs a non-negative integer, got '" << text
                  << "'\n";
        std::exit(2);
    }
    return static_cast<int>(value);
}

} // namespace gpsched
