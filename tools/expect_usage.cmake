# Runs gpsched with a missing (no ARGS) or unknown subcommand: it
# must exit 2 and list every subcommand on stderr.
# Variables: GPSCHED (gpsched path), ARGS (optional arguments).

execute_process(
  COMMAND ${GPSCHED} ${ARGS}
  RESULT_VARIABLE status
  ERROR_VARIABLE err
)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "gpsched ${ARGS} exited '${status}', want 2\n${err}")
endif()
foreach(command compile import "fuzz gen" "fuzz sweep" "fuzz repro")
  string(FIND "${err}" "  ${command} " at)
  if(at EQUAL -1)
    message(FATAL_ERROR "usage does not list '${command}':\n${err}")
  endif()
endforeach()
