#include "support/output.hh"

#include <fstream>
#include <iostream>

#include "support/logging.hh"

namespace gpsched
{

void
writeOutput(const std::string &path,
            const std::function<void(std::ostream &)> &emit)
{
    if (path == "-") {
        emit(std::cout);
        return;
    }
    std::ofstream out(path);
    if (!out)
        GPSCHED_FATAL("cannot open '", path, "' for writing");
    emit(out);
    out.close();
    if (!out)
        GPSCHED_FATAL("cannot write '", path, "'");
}

} // namespace gpsched
