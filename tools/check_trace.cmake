# Drive `gpsched compile` with --trace and validate the emitted Chrome
# trace-event files with check_trace.py (after running the validator's
# own self-test, so a broken checker cannot vacuously pass). Uses
# --jobs 4 to get genuinely concurrent compile spans across worker
# tids, plus a --cache-dir so cache-probe/disk-IO spans appear too.
#
# Variables: GPSCHED (gpsched path), DDG (input file), PYTHON
# (interpreter), CHECK (check_trace.py path), OUT (trace output path
# prefix), CACHE (scratch cache dir), PHASES (the GPSCHED_TELEMETRY
# option — phase spans only exist when they are compiled in).

if(NOT DEFINED GPSCHED OR NOT DEFINED DDG OR NOT DEFINED PYTHON OR
   NOT DEFINED CHECK OR NOT DEFINED OUT OR NOT DEFINED CACHE)
  message(FATAL_ERROR
    "need -DGPSCHED=... -DDDG=... -DPYTHON=... -DCHECK=... -DOUT=... "
    "-DCACHE=...")
endif()

execute_process(
  COMMAND ${PYTHON} ${CHECK} --self-test
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT status EQUAL 0)
  message(FATAL_ERROR
    "check_trace.py self-test failed (${status}):\n${out}${err}")
endif()

file(REMOVE_RECURSE "${CACHE}")

# Two runs over the same cache dir: the cold one traces compile +
# phase + disk-store spans, the warm one disk-lookup hits.
foreach(run cold warm)
  set(trace_file "${OUT}.${run}.json")
  file(REMOVE "${trace_file}")
  execute_process(
    COMMAND ${GPSCHED} compile --scheme all --jobs 4 --repeat 2
            --cache-dir ${CACHE} --trace ${trace_file} --json -
            ${DDG}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE ignored
    ERROR_VARIABLE err
  )
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${run} --trace run failed (${status}): "
                        "${err}")
  endif()

  execute_process(
    COMMAND ${PYTHON} ${CHECK} ${trace_file}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out_text
    ERROR_VARIABLE err
  )
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
      "${run} trace failed validation (${status}):\n${out_text}"
      "${err}")
  endif()
endforeach()

# Well-formed is not enough: each trace must contain its expected
# slice of the span taxonomy. Cold compiles (compile + phase spans +
# disk stores); warm is served from the persistent cache (disk
# lookups, no compiles).
set(needles
    "\"name\": \"compile\"" "\"name\": \"cache-probe\""
    "\"name\": \"disk-store\"" "\"name\": \"process_name\"")
if(PHASES)
  list(APPEND needles "\"cat\": \"phase\"")
endif()
file(READ "${OUT}.cold.json" cold_trace)
foreach(needle IN LISTS needles)
  if(NOT cold_trace MATCHES "${needle}")
    message(FATAL_ERROR
      "cold trace is missing ${needle}:\n${cold_trace}")
  endif()
endforeach()

file(READ "${OUT}.warm.json" warm_trace)
if(NOT warm_trace MATCHES "\"name\": \"disk-lookup\"")
  message(FATAL_ERROR
    "warm trace has no disk-lookup span:\n${warm_trace}")
endif()
if(warm_trace MATCHES "\"cat\": \"phase\"")
  message(FATAL_ERROR
    "warm trace recompiled (phase spans present):\n${warm_trace}")
endif()

file(REMOVE_RECURSE "${CACHE}")
