# The --keep-going contract, end to end: over a file mixing healthy
# blocks with a parse-broken block and an engine-rejected block, the
# CLI must (a) exit 1 — nonzero iff any loop failed — without dying,
# (b) emit a report whose bad loops carry typed error objects
# ({kind, message, location}) while the good loops carry schedules,
# (c) count the engine-stage failure in the stats block, and
# (d) still exit 0 in --keep-going mode when every loop is healthy.
# Without --keep-going the same file must die on the first error
# with the historical fatal file:line diagnostic.
#
# A fourth case pins the resync edge condition: when the *last*
# block of a multi-DDG file is malformed (truncated before its
# `end`), readDdgBlocks' resync runs off the end of the file — the
# good blocks before it must still compile, the truncated block must
# get its parse error object, and the exit status must be 1.
#
# Variables:
#   GPSCHED path to the gpsched binary
#   MIXED   the mixed good/bad fixture (mixed_loops.ddg)
#   CLEAN   an all-good fixture (sample_loop.ddg)
#   TRUNC   fixture whose last block is truncated (truncated_last.ddg)
#   OUT     scratch path for the JSON report

foreach(var GPSCHED MIXED CLEAN TRUNC OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_keep_going.cmake needs -D${var}=...")
  endif()
endforeach()

# --- keep-going over the mixed file: exit 1, full report ----------
execute_process(
  COMMAND ${GPSCHED} compile --keep-going --jobs 2 --json ${OUT} ${MIXED}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR
    "--keep-going over a mixed batch must exit 1, got '${status}'\n"
    "stderr: ${err}")
endif()

file(READ ${OUT} report)

# The parse failure and the engine rejection each surface as a typed
# error object attributed to the right loop...
if(NOT report MATCHES "\"kind\": \"parse\"")
  message(FATAL_ERROR "no parse-kind error object:\n${report}")
endif()
if(NOT report MATCHES "\"kind\": \"invalid-input\"")
  message(FATAL_ERROR "no invalid-input error object:\n${report}")
endif()
if(NOT report MATCHES "\"name\": \"stale_latency\"")
  message(FATAL_ERROR "rejected loop not named:\n${report}")
endif()
if(NOT report MATCHES "\"location\": \"[^\"]*\\.(cc|hh):[0-9]+\"")
  message(FATAL_ERROR "error object lacks file:line:\n${report}")
endif()

# ...the healthy loops still compiled (schedule metrics present)...
if(NOT report MATCHES "\"name\": \"good_one\"")
  message(FATAL_ERROR "good_one missing from report:\n${report}")
endif()
if(NOT report MATCHES "\"name\": \"good_two\"")
  message(FATAL_ERROR "good_two missing from report:\n${report}")
endif()
if(NOT report MATCHES "\"ipc\"")
  message(FATAL_ERROR "no compiled loop metrics:\n${report}")
endif()

# ...and the stats block counts exactly the engine-stage failure
# (the parse failure never reached the engine).
if(NOT report MATCHES "\"failed\": 1")
  message(FATAL_ERROR "engine failed-counter wrong:\n${report}")
endif()
if(NOT report MATCHES "\"keepGoing\": true")
  message(FATAL_ERROR "keepGoing flag not recorded:\n${report}")
endif()

# --- keep-going over a clean file: exit 0 --------------------------
execute_process(
  COMMAND ${GPSCHED} compile --keep-going --json ${OUT}.clean ${CLEAN}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR
    "--keep-going over a clean batch must exit 0, got '${status}'\n"
    "stderr: ${err}")
endif()

# --- keep-going with a truncated *last* block ----------------------
execute_process(
  COMMAND ${GPSCHED} compile --keep-going --json ${OUT}.trunc ${TRUNC}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR
    "truncated-last-block batch must exit 1, got '${status}'\n"
    "stderr: ${err}")
endif()

file(READ ${OUT}.trunc report)
if(NOT report MATCHES "\"name\": \"trunc_good_one\"")
  message(FATAL_ERROR "trunc_good_one missing:\n${report}")
endif()
if(NOT report MATCHES "\"name\": \"trunc_good_two\"")
  message(FATAL_ERROR "trunc_good_two missing:\n${report}")
endif()
if(NOT report MATCHES "\"kind\": \"parse\"")
  message(FATAL_ERROR
    "truncated block produced no parse error object:\n${report}")
endif()
if(NOT report MATCHES "end of input")
  message(FATAL_ERROR
    "truncated block's diagnostic missing:\n${report}")
endif()

# --- without --keep-going: first error is fatal --------------------
execute_process(
  COMMAND ${GPSCHED} compile ${MIXED}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(status STREQUAL "0")
  message(FATAL_ERROR "mixed batch without --keep-going succeeded")
endif()
if(NOT status MATCHES "^[0-9]+$")
  message(FATAL_ERROR
    "CLI died abnormally (${status}) instead of a diagnostic exit\n"
    "stderr: ${err}")
endif()
if(NOT err MATCHES "fatal: ")
  message(FATAL_ERROR "no fatal diagnostic on stderr:\n${err}")
endif()
if(NOT err MATCHES "at .*\\.(cc|hh):[0-9]+")
  message(FATAL_ERROR "diagnostic lacks file:line:\n${err}")
endif()
