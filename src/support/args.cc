#include "support/args.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <iostream>

#include "support/logging.hh"

namespace gpsched
{

ArgParser::ArgParser(std::string prog, std::string operands)
    : prog_(std::move(prog)), operands_(std::move(operands))
{
}

ArgParser &
ArgParser::option(const std::string &name, const std::string &metavar,
                  const std::string &help, Action action)
{
    for (const Flag &other : flags_)
        GPSCHED_ASSERT(other.name != name, name, " declared twice");
    flags_.push_back({name, metavar, help, std::move(action)});
    return *this;
}

ArgParser &
ArgParser::flag(const std::string &name, const std::string &help,
                bool &target)
{
    return option(name, "", help,
                  [&target](const std::string &) { target = true; });
}

ArgParser &
ArgParser::option(const std::string &name, const std::string &metavar,
                  const std::string &help, std::string &target)
{
    return option(name, metavar, help,
                  [&target](const std::string &value) {
                      target = value;
                  });
}

std::vector<std::string>
ArgParser::parse(const std::vector<std::string> &args)
{
    std::vector<std::string> operands;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--help" || arg == "-h") {
            printUsage(std::cout);
            std::exit(0);
        }
        // "-" alone is an operand (conventionally stdin/stdout).
        if (arg.size() < 2 || arg[0] != '-') {
            if (operands_.empty())
                fail("unexpected argument '" + arg + "'");
            operands.push_back(arg);
            continue;
        }
        auto flag = std::find_if(
            flags_.begin(), flags_.end(),
            [&](const Flag &f) { return f.name == arg; });
        if (flag == flags_.end())
            fail("unknown option '" + arg + "'");
        seen_.insert(arg);
        if (flag->metavar.empty()) {
            flag->apply("");
        } else if (i + 1 < args.size()) {
            flag->apply(args[++i]);
        } else {
            fail(arg + " needs a value (" + flag->metavar + ")");
        }
    }
    return operands;
}

bool
ArgParser::seen(const std::string &name) const
{
    return seen_.count(name) != 0;
}

std::uint64_t
ArgParser::integer(const std::string &what, const std::string &text,
                   std::uint64_t lo, std::uint64_t hi) const
{
    // strtoull would skip blanks and accept a sign.
    if (!text.empty() &&
        std::isdigit(static_cast<unsigned char>(text[0]))) {
        char *end = nullptr;
        errno = 0;
        unsigned long long value = std::strtoull(text.c_str(), &end, 0);
        if (errno == 0 && *end == '\0' && value >= lo && value <= hi)
            return value;
    }
    fail(what + " needs an integer in [" + std::to_string(lo) + ", " +
         std::to_string(hi) + "], got '" + text + "'");
}

void
ArgParser::fail(const std::string &message) const
{
    std::cerr << prog_ << ": " << message << "\n";
    printUsage(std::cerr);
    std::exit(2);
}

void
ArgParser::printUsage(std::ostream &os) const
{
    os << "usage: " << prog_ << " [options]"
       << (operands_.empty() ? "" : " " + operands_) << "\noptions:\n";
    auto row = [&os](std::string head, const std::string &help) {
        constexpr std::size_t column = 22;
        head = "  " + head;
        // A long flag puts its help on the next line.
        if (head.size() >= column) {
            os << head << "\n";
            head.clear();
        }
        head.resize(column, ' ');
        os << head << help << "\n";
    };
    for (const Flag &flag : flags_)
        row(flag.name + (flag.metavar.empty() ? "" : " " + flag.metavar),
            flag.help);
    row("-h, --help", "print this help and exit");
}

} // namespace gpsched
