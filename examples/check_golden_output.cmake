# ctest wrapper for byte-for-byte stdout goldens: runs BIN, requires exit
# 0, and compares its stdout with GOLDEN.
# On a mismatch the actual stdout is written to ACTUAL for diffing; after
# an intentional output change, regenerate GOLDEN by running BIN > GOLDEN.
#
# Usage: cmake -DBIN=<path> -DGOLDEN=<file> -DACTUAL=<file>
#              -P check_golden_output.cmake

if(NOT DEFINED BIN OR NOT DEFINED GOLDEN OR NOT DEFINED ACTUAL)
  message(FATAL_ERROR "BIN, GOLDEN and ACTUAL are required")
endif()

execute_process(COMMAND "${BIN}"
  OUTPUT_VARIABLE actual
  ERROR_VARIABLE err
  RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${BIN} exited ${code}\nstderr: ${err}")
endif()

file(READ "${GOLDEN}" golden)
if(NOT actual STREQUAL golden)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR
    "stdout of ${BIN} differs from ${GOLDEN}; actual output written to "
    "${ACTUAL} (diff the two)")
endif()
message(STATUS "golden OK: ${GOLDEN}")
