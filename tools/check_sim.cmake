# The --simulate contract, end to end: (a) over a healthy batch the
# CLI exits 0 and every loop row carries "verdict": "pass" and sim
# fields that agree with the compile record (simOk true, achievedII
# == ii for modulo-scheduled loops, achievedIpc == ipc exactly); (b)
# over a mixed good/bad batch with --keep-going the failed loops keep
# their typed error objects untouched (no sim fields) while the good
# loops still carry agreeing verdicts, and the run exits 1 because
# loops failed to compile — not because any verdict failed.
#
# Variables:
#   GPSCHED path to the gpsched binary
#   CLEAN   an all-good fixture (sample_loop.ddg)
#   MIXED   the mixed good/bad fixture (mixed_loops.ddg)
#   PYTHON  python3 interpreter for the strict JSON checks
#   OUT     scratch path prefix for the JSON reports

foreach(var GPSCHED CLEAN MIXED PYTHON OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_sim.cmake needs -D${var}=...")
  endif()
endforeach()

# --- healthy batch: exit 0, every row sim-verified -----------------
execute_process(
  COMMAND ${GPSCHED} compile --simulate --scheme all --json ${OUT}.clean.json
          ${CLEAN}
  RESULT_VARIABLE status
  ERROR_VARIABLE err
)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR
    "--simulate over a clean batch must exit 0, got '${status}'\n"
    "stderr: ${err}")
endif()

execute_process(
  COMMAND ${PYTHON} -c "
import json, sys
report = json.load(open(sys.argv[1]))
loops = report['loops']
assert loops, 'no loop rows'
assert report['engine']['simulate'] is True, 'simulate not recorded'
for row in loops:
    assert 'error' not in row, 'unexpected error row: %r' % row
    assert row['verdict'] == 'pass', '%s: %s' % (
        row['name'], row.get('verdictDetail'))
    assert row['simOk'] is True, 'replay rejected %s' % row['name']
    if row['moduloScheduled']:
        assert row['replayed'] is True, row['name']
        assert row['achievedII'] == row['ii'], \
            '%s: achieved II %s != scheduled II %s' % (
                row['name'], row['achievedII'], row['ii'])
    assert row['achievedIpc'] == row['ipc'], \
        '%s: achieved IPC %s != reported %s' % (
            row['name'], row['achievedIpc'], row['ipc'])
    assert row['simCycles'] == row['cycles'], row['name']
    assert 'simFault' not in row, row['name']
print('checked', len(loops), 'sim-verified rows')
" ${OUT}.clean.json
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "clean-report sim checks failed:\n${err}")
endif()

# --- mixed batch with --keep-going: error rows untouched -----------
execute_process(
  COMMAND ${GPSCHED} compile --simulate --keep-going --json ${OUT}.mixed.json
          ${MIXED}
  RESULT_VARIABLE status
  ERROR_VARIABLE err
)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR
    "--simulate --keep-going over a mixed batch must exit 1 "
    "(compile failures), got '${status}'\nstderr: ${err}")
endif()

execute_process(
  COMMAND ${PYTHON} -c "
import json, sys
report = json.load(open(sys.argv[1]))
good = bad = 0
for row in report['loops']:
    if 'error' in row:
        bad += 1
        # A failed loop has no schedule to replay: its error object
        # must ride alone, without sim fields.
        for key in ('verdict', 'simOk', 'replayed', 'achievedII',
                    'achievedIpc', 'simFault'):
            assert key not in row, '%s leaked into error row %s' % (
                key, row['name'])
        assert set(row['error']) == {'kind', 'message', 'location'}
    else:
        good += 1
        assert row['verdict'] == 'pass', row['name']
        assert row['simOk'] is True, 'replay rejected %s' % row['name']
        assert row['achievedIpc'] == row['ipc'], row['name']
assert good >= 2 and bad >= 2, 'fixture shape changed: %d/%d' % (
    good, bad)
print('checked', good, 'good +', bad, 'error rows')
" ${OUT}.mixed.json
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "mixed-report sim checks failed:\n${err}")
endif()
