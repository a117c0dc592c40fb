/**
 * @file
 * The `.machine` writer the parser round-trip tests check against:
 * canonical text that parses back to an identical MachineConfig.
 */

#ifndef GPSCHED_TESTS_TESTING_MACHINE_TEXT_HH
#define GPSCHED_TESTS_TESTING_MACHINE_TEXT_HH

#include <optional>
#include <string>

#include "machine/machine.hh"
#include "machine/machine_desc.hh"

namespace gpsched::testing
{

/** @p machine in canonical `.machine` form. */
std::string machineDescText(const MachineConfig &machine);

/** Parses @p text (diagnostics name it "<string>"). */
std::optional<MachineConfig>
parseMachineDescText(const std::string &text,
                     MachineParseError *error = nullptr);

} // namespace gpsched::testing

#endif // GPSCHED_TESTS_TESTING_MACHINE_TEXT_HH
