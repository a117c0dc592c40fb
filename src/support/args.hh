/**
 * @file
 * Command-line argument helpers shared by the bench drivers and the
 * gpsched_cli front end.
 */

#ifndef GPSCHED_SUPPORT_ARGS_HH
#define GPSCHED_SUPPORT_ARGS_HH

#include <string>

namespace gpsched
{

/**
 * Strict non-negative integer parse of @p text, the value of
 * @p flag; prints "<argv0>: <flag> needs a non-negative integer"
 * and exits 2 on any other text.
 */
int parseCount(const char *argv0, const std::string &flag,
               const std::string &text);

} // namespace gpsched

#endif // GPSCHED_SUPPORT_ARGS_HH
