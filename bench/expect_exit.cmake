# ctest helper: runs BENCH with one argument ARG and fails unless the
# process exits with EXPECTED_EXIT and its stderr matches STDERR_REGEX.
#
#   cmake -DBENCH=<binary> -DARG=<key=value> -DEXPECTED_EXIT=<code>
#         -DSTDERR_REGEX=<regex> -P expect_exit.cmake
execute_process(COMMAND "${BENCH}" "${ARG}"
  RESULT_VARIABLE code
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECTED_EXIT}")
  message(FATAL_ERROR
    "${BENCH} ${ARG} exited '${code}', expected ${EXPECTED_EXIT}; stderr:\n${err}")
endif()
if(NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR
    "${BENCH} ${ARG}: stderr does not match '${STDERR_REGEX}':\n${err}")
endif()
