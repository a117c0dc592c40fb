/**
 * @file
 * The one command-line flag parser of every front end (the `gpsched`
 * subcommands and the bench drivers). Each flag is declared once —
 * name, value or no value, help line, target — and the usage text is
 * generated from the declarations. `--help`/`-h` prints the usage to
 * stdout and exits 0; an unknown flag, a missing value, a bad number
 * or an unexpected operand prints "<prog>: <what>" and the usage to
 * stderr and exits 2. Integers parse strictly: base 0 (decimal,
 * 0x-hex, 0-octal), the whole text, no sign, within the range.
 */

#ifndef GPSCHED_SUPPORT_ARGS_HH
#define GPSCHED_SUPPORT_ARGS_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace gpsched
{

class ArgParser
{
  public:
    /** Receives a flag's value ("" for a switch). */
    using Action = std::function<void(const std::string &value)>;

    /**
     * @p prog prefixes every diagnostic; @p operands names the
     * positional arguments in the usage line (empty: none accepted).
     */
    explicit ArgParser(std::string prog, std::string operands = {});

    ArgParser(const ArgParser &) = delete;
    ArgParser &operator=(const ArgParser &) = delete;

    /** The general form; an empty @p metavar declares a switch. */
    ArgParser &option(const std::string &name,
                      const std::string &metavar,
                      const std::string &help, Action action);

    /** A switch that sets @p target. */
    ArgParser &flag(const std::string &name, const std::string &help,
                    bool &target);

    ArgParser &option(const std::string &name,
                      const std::string &metavar,
                      const std::string &help, std::string &target);

    /** An integer in [@p lo, @p hi]. */
    template <typename Int,
              typename = std::enable_if_t<std::is_integral_v<Int>>>
    ArgParser &
    option(const std::string &name, const std::string &metavar,
           const std::string &help, Int &target, std::uint64_t lo = 0,
           std::uint64_t hi = std::numeric_limits<Int>::max())
    {
        return option(name, metavar, help,
                      [this, name, &target, lo,
                       hi](const std::string &value) {
                          target = static_cast<Int>(
                              integer(name, value, lo, hi));
                      });
    }

    /** One of @p choices' names; its value is stored in @p target. */
    template <typename T>
    ArgParser &
    choice(const std::string &name, const std::string &help,
           T &target, std::vector<std::pair<std::string, T>> choices)
    {
        std::string metavar;
        for (const auto &entry : choices)
            metavar += (metavar.empty() ? "" : "|") + entry.first;
        return option(
            name, metavar, help,
            [this, name, metavar, &target,
             choices = std::move(choices)](const std::string &value) {
                for (const auto &[text, result] : choices) {
                    if (text == value) {
                        target = result;
                        return;
                    }
                }
                fail(name + " wants " + metavar + ", got '" + value +
                     "'");
            });
    }

    /** Applies @p args in order and returns the operands. */
    std::vector<std::string> parse(const std::vector<std::string> &args);

    /** Whether @p name appeared in the parsed arguments. */
    bool seen(const std::string &name) const;

    /** @p text as an integer in [@p lo, @p hi], or fail() naming
     *  @p what and the range. */
    std::uint64_t integer(const std::string &what,
                          const std::string &text, std::uint64_t lo,
                          std::uint64_t hi) const;

    /** Prints "<prog>: <message>" and the usage to stderr; exit 2. */
    [[noreturn]] void fail(const std::string &message) const;

    void printUsage(std::ostream &os) const;

  private:
    struct Flag
    {
        std::string name;
        std::string metavar; ///< empty for a switch
        std::string help;
        Action apply;
    };

    std::string prog_;
    std::string operands_;
    std::vector<Flag> flags_;
    std::set<std::string> seen_;
};

} // namespace gpsched

#endif // GPSCHED_SUPPORT_ARGS_HH
