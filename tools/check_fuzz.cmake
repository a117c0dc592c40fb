# The differential-fuzzing contract, end to end (the smoke-sized
# CTest entry on every build; the nightly sweep runs the same binary
# with GPSCHED_FUZZ_LOOPS=1000):
#
#   (a) a clean smoke sweep — every generated loop compiled under all
#       3 schemes across the machine corpus, validator and simulator
#       agreeing with bit-exact metrics — exits 0 with no artifacts;
#   (b) the injected-corruption canary (--corrupt cluster) exits 1,
#       proving the two-oracle harness can actually fail;
#   (c) the canary's failures are minimized to <= 25% of the original
#       node count, with .min.ddg/.orig.ddg/.repro artifacts;
#   (d) the emitted reproducer command line, run verbatim, reproduces
#       the recorded failure (exit 0 from `gpsched fuzz repro`);
#   (e) the metric-mismatch canary (--corrupt cycles) is caught too.
#
# Variables:
#   GPSCHED  path to the gpsched binary
#   OUT   scratch directory

foreach(var GPSCHED OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_fuzz.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})

# --- (a) clean smoke sweep ----------------------------------------
execute_process(
  COMMAND ${GPSCHED} fuzz sweep --smoke --seed 0xf022c0de5eed
          --failures ${OUT}/clean --out ${OUT}/corpus.ddg
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR
    "clean smoke sweep must exit 0, got '${status}'\n"
    "stdout: ${out}\nstderr: ${err}")
endif()
if(NOT out MATCHES "failing cases:  0")
  message(FATAL_ERROR "clean sweep reports failures:\n${out}")
endif()
if(EXISTS ${OUT}/clean)
  file(GLOB stray ${OUT}/clean/*)
  if(stray)
    message(FATAL_ERROR "clean sweep left artifacts: ${stray}")
  endif()
endif()
# The corpus artifact (what the nightly job uploads) really is a
# multi-DDG stream of the requested size.
file(STRINGS ${OUT}/corpus.ddg headers REGEX "^ddg ")
list(LENGTH headers nloops)
if(NOT nloops EQUAL 50)
  message(FATAL_ERROR "corpus has ${nloops} loops, want 50")
endif()

# --- (b)+(c) schedule-corruption canary ---------------------------
execute_process(
  COMMAND ${GPSCHED} fuzz sweep --count 6 --seed 0xf022c0de5eed
          --corrupt cluster --failures ${OUT}/canary
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR
    "corrupted sweep must exit 1, got '${status}'\n"
    "stdout: ${out}\nstderr: ${err}")
endif()

file(GLOB min_ddgs ${OUT}/canary/*.min.ddg)
file(GLOB repros ${OUT}/canary/*.repro)
if(NOT min_ddgs OR NOT repros)
  message(FATAL_ERROR
    "canary produced no minimized/.repro artifacts\nstdout: ${out}")
endif()

list(GET min_ddgs 0 min_ddg)
string(REPLACE ".min.ddg" ".orig.ddg" orig_ddg ${min_ddg})
file(STRINGS ${min_ddg} min_nodes REGEX "^node ")
file(STRINGS ${orig_ddg} orig_nodes REGEX "^node ")
list(LENGTH min_nodes nmin)
list(LENGTH orig_nodes norig)
math(EXPR bound "${norig} / 4")
if(nmin GREATER bound)
  message(FATAL_ERROR
    "minimizer left ${nmin}/${norig} nodes (> 25%): ${min_ddg}")
endif()

# --- (d) the emitted reproducer line reproduces -------------------
list(GET repros 0 repro_file)
file(READ ${repro_file} repro_cmd)
string(STRIP "${repro_cmd}" repro_cmd)
separate_arguments(repro_args UNIX_COMMAND "${repro_cmd}")
execute_process(
  COMMAND ${repro_args}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR
    "reproducer '${repro_cmd}' did not reproduce (exit '${status}')\n"
    "stdout: ${out}\nstderr: ${err}")
endif()
if(NOT out MATCHES "reproduced: ")
  message(FATAL_ERROR "reproducer output unexpected:\n${out}")
endif()

# --- (e) estimator-mismatch canary --------------------------------
execute_process(
  COMMAND ${GPSCHED} fuzz sweep --count 4 --seed 0xf022c0de5eed
          --corrupt cycles --failures ${OUT}/cycles
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR
    "cycles-corruption sweep must exit 1, got '${status}'\n"
    "stdout: ${out}\nstderr: ${err}")
endif()
if(NOT out MATCHES "metric-mismatch")
  message(FATAL_ERROR "no metric-mismatch verdict:\n${out}")
endif()
