# Cold-then-warm `gpsched compile` run over one --cache-dir: the warm run
# uses a fresh engine (fresh process, fresh in-memory cache), so
# every unique loop shape must be served by the persistent layer —
# diskHits > 0 and cacheMisses (compilations) == 0 — and the per-loop
# metrics must be identical to the cold run's.
#
# Variables: GPSCHED (gpsched path), DDG (input file), CACHE (dir).

if(NOT DEFINED GPSCHED OR NOT DEFINED DDG OR NOT DEFINED CACHE)
  message(FATAL_ERROR "need -DGPSCHED=... -DDDG=... -DCACHE=...")
endif()

file(REMOVE_RECURSE "${CACHE}")

foreach(run cold warm)
  execute_process(
    COMMAND ${GPSCHED} compile --scheme all --jobs 2 --cache-dir ${CACHE}
            --json - ${DDG}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE ${run}_out
    ERROR_VARIABLE err
  )
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${run} run failed (${status}): ${err}")
  endif()
endforeach()

if(NOT cold_out MATCHES "\"diskStores\": [1-9]")
  message(FATAL_ERROR "cold run stored nothing:\n${cold_out}")
endif()
if(NOT warm_out MATCHES "\"diskHits\": [1-9]")
  message(FATAL_ERROR "warm run hit nothing:\n${warm_out}")
endif()
if(NOT warm_out MATCHES "\"cacheMisses\": 0")
  message(FATAL_ERROR "warm run recompiled:\n${warm_out}")
endif()

# Every warm loop must come off the persistent layer, and the cold
# run must have compiled at least one loop from scratch (duplicates
# may coalesce or hit the in-memory cache under --jobs 2).
if(warm_out MATCHES "\"source\": \"compiled\"")
  message(FATAL_ERROR "warm run compiled a loop:\n${warm_out}")
endif()
if(NOT warm_out MATCHES "\"source\": \"disk\"")
  message(FATAL_ERROR "warm run has no disk-sourced loop:\n${warm_out}")
endif()
if(NOT cold_out MATCHES "\"source\": \"compiled\"")
  message(FATAL_ERROR "cold run compiled nothing:\n${cold_out}")
endif()

# The per-loop reports must agree metric for metric. Strip the
# engine-stats block and the per-run wall-clock / provenance fields
# (compileMs, source) before comparing. The engine block is flat
# here: its nested phases array only appears under --stats-json /
# --trace, which this test does not pass.
foreach(run cold warm)
  string(REGEX REPLACE "\"engine\": {[^}]*}" "" ${run}_trim
         "${${run}_out}")
  string(REGEX REPLACE "\"compileMs\": [^,}\n]*" "" ${run}_trim
         "${${run}_trim}")
  string(REGEX REPLACE "\"source\": \"[a-z]*\"" "" ${run}_trim
         "${${run}_trim}")
endforeach()
if(NOT cold_trim STREQUAL warm_trim)
  message(FATAL_ERROR
    "warm report differs from cold report\n--- cold ---\n${cold_out}"
    "\n--- warm ---\n${warm_out}")
endif()

file(REMOVE_RECURSE "${CACHE}")
