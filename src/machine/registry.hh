/**
 * @file
 * Named machine registry: serves the paper's Table-1 presets and
 * resolves user-supplied names or `.machine` file paths for the CLI
 * and bench drivers.
 */

#ifndef GPSCHED_MACHINE_REGISTRY_HH
#define GPSCHED_MACHINE_REGISTRY_HH

#include <string>
#include <vector>

#include "machine/machine.hh"

namespace gpsched
{

/** Ordered collection of named machine configurations. */
class MachineRegistry
{
  public:
    /** Builds a registry holding every Table-1 preset
     *  (machine/configs.hh). */
    MachineRegistry();

    /** Shared read-only instance with the built-in presets. */
    static const MachineRegistry &builtin();

    /** Registered names, in registration order. */
    std::vector<std::string> names() const;

    /** Registered names joined for diagnostics ("a|b|c"). */
    std::string namesSummary() const;

    /** Looks @p name up; nullptr when absent. */
    const MachineConfig *find(const std::string &name) const;

    /** Registers @p config under its name; fatal on duplicates. */
    void add(MachineConfig config);

    /**
     * Resolves a user-supplied machine spec: a registered name, or a
     * path to a `.machine` file (recognized by a '/' or a ".machine"
     * suffix). Fatal with a helpful message when neither works.
     */
    MachineConfig resolve(const std::string &name_or_path) const;

    /**
     * Resolves every file machineFilesIn(@p dir) lists, in its order.
     * Fatal when a file fails to parse.
     */
    std::vector<MachineConfig>
    resolveDirectory(const std::string &dir) const;

    /** Number of registered machines. */
    int size() const { return static_cast<int>(configs_.size()); }

    /** Registered machine @p i in registration order. */
    const MachineConfig &at(int i) const;

  private:
    std::vector<MachineConfig> configs_;
};

/**
 * Paths of the `.machine` files directly under @p dir, sorted by
 * file name so results are stable across filesystems: the one
 * directory listing of resolveDirectory (the bench_corpus sweep, the
 * property tests' corpus coverage) and the fuzz machine list, so
 * they can never drift. Fatal when @p dir cannot be read; empty for
 * a directory without `.machine` files.
 */
std::vector<std::string> machineFilesIn(const std::string &dir);

} // namespace gpsched

#endif // GPSCHED_MACHINE_REGISTRY_HH
