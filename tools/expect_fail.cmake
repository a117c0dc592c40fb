# Runs a command that must fail: nonzero exit status (a clean
# diagnostic exit, not a crash) and a gem5-style file:line diagnostic
# on stderr. Used by the `gpsched compile` error-path CTest entries.
#
# Variables:
#   GPSCHED  path to the gpsched binary
#   ARGS     semicolon-separated arguments (subcommand first)
#   PATTERN  extra regex stderr must match (the diagnostic's content)

if(NOT DEFINED GPSCHED OR NOT DEFINED ARGS)
  message(FATAL_ERROR "expect_fail.cmake needs -DGPSCHED=... -DARGS=...")
endif()

execute_process(
  COMMAND ${GPSCHED} ${ARGS}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)

if(status STREQUAL "0")
  message(FATAL_ERROR "command unexpectedly succeeded: ${GPSCHED} ${ARGS}")
endif()

# Crashes surface as signal names ("Segmentation fault", "Aborted")
# in RESULT_VARIABLE instead of a small integer exit code.
if(NOT status MATCHES "^[0-9]+$")
  message(FATAL_ERROR
    "command died abnormally (${status}) instead of exiting with a "
    "diagnostic: ${GPSCHED} ${ARGS}\nstderr: ${err}")
endif()

# Every fatal diagnostic ends with "  at <file>:<line>".
if(NOT err MATCHES "at .*\\.(cc|hh):[0-9]+")
  message(FATAL_ERROR
    "stderr lacks a file:line diagnostic\nstderr: ${err}")
endif()

if(DEFINED PATTERN AND NOT err MATCHES "${PATTERN}")
  message(FATAL_ERROR
    "stderr does not match '${PATTERN}'\nstderr: ${err}")
endif()
