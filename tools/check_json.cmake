# CTest helper: run `gpsched compile` on a DDG file, then strictly parse
# the JSON report and assert the fields the bench trajectory and
# downstream tooling rely on. Variables: GPSCHED, DDG, PYTHON, OUT.
execute_process(
  COMMAND ${GPSCHED} compile --scheme all --jobs 2 --repeat 2 --json ${OUT} ${DDG}
  RESULT_VARIABLE cli_result)
if(NOT cli_result EQUAL 0)
  message(FATAL_ERROR "gpsched compile failed with status ${cli_result}")
endif()

execute_process(
  COMMAND ${PYTHON} -c "
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
assert report['schemaVersion'] == 2
assert report['machine']['clusters'] >= 1
loops = report['loops']
assert loops, 'no loops in report'
for loop in loops:
    assert loop['ii'] >= 0 and loop['cycles'] > 0 and loop['ops'] > 0
    assert 0.0 < loop['ipc'] <= 16.0
engine = report['engine']
assert engine['jobsSubmitted'] == len(loops) * 2  # --repeat 2
# The second repeat is deterministically all hits. First-pass
# dedupe of stencil_b against stencil_a is timing-dependent under
# --jobs 2 (identical in-flight jobs are not coalesced), so only
# the repeat's hits are guaranteed.
assert engine['cacheHits'] >= len(loops)
print('cli JSON ok:', len(loops), 'loops, hitRate',
      engine['hitRate'])
" ${OUT}
  RESULT_VARIABLE py_result)
if(NOT py_result EQUAL 0)
  message(FATAL_ERROR "JSON validation failed")
endif()
