# The import pipeline, end to end:
#   (a) a healthy JSON dump converts to .ddg text and the result
#       compiles through `gpsched compile`;
#   (b) a malformed dump (NaN latency) dies with a diagnostic whose
#       message carries the *input* file:line;
#   (c) --keep-going over bad+good files exits 1 but still emits the
#       good loops.
#
# Variables:
#   GPSCHED path to the gpsched binary
#   GOOD    healthy fixture (sample_import.json)
#   BAD     malformed fixture (bad_import.json)
#   OUT     scratch path prefix

foreach(var GPSCHED GOOD BAD OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_import.cmake needs -D${var}=...")
  endif()
endforeach()

# --- (a) good dump: convert, then compile --------------------------
execute_process(
  COMMAND ${GPSCHED} import --out ${OUT}.ddg ${GOOD}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR
    "import of healthy dump failed ('${status}')\nstderr: ${err}")
endif()
file(STRINGS ${OUT}.ddg headers REGEX "^ddg ")
list(LENGTH headers nloops)
if(NOT nloops EQUAL 2)
  message(FATAL_ERROR "expected 2 imported loops, got ${nloops}")
endif()

execute_process(
  COMMAND ${GPSCHED} compile --scheme all --json - ${OUT}.ddg
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR
    "imported loops failed to compile ('${status}')\nstderr: ${err}")
endif()
if(NOT out MATCHES "\"name\": \"imported_daxpy\"")
  message(FATAL_ERROR "imported loop missing from report:\n${out}")
endif()

# --- (b) bad dump: input file:line diagnostic ----------------------
execute_process(
  COMMAND ${GPSCHED} import ${BAD}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(status STREQUAL "0")
  message(FATAL_ERROR "import of NaN-latency dump succeeded")
endif()
if(NOT status MATCHES "^[0-9]+$")
  message(FATAL_ERROR
    "gpsched import died abnormally (${status})\nstderr: ${err}")
endif()
if(NOT err MATCHES "bad_import\\.json:[0-9]+.*NaN")
  message(FATAL_ERROR
    "diagnostic lacks input file:line + NaN cause:\n${err}")
endif()

# --- (c) keep-going: bad file skipped, good loops emitted ----------
execute_process(
  COMMAND ${GPSCHED} import --keep-going --out ${OUT}.keep.ddg ${BAD} ${GOOD}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR
    "--keep-going over bad+good must exit 1, got '${status}'")
endif()
file(STRINGS ${OUT}.keep.ddg headers REGEX "^ddg ")
list(LENGTH headers nloops)
if(NOT nloops EQUAL 2)
  message(FATAL_ERROR
    "--keep-going emitted ${nloops} loops, want the 2 good ones")
endif()
