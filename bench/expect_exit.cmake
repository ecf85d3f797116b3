# ctest helper: runs a command and fails unless the process exits with
# EXPECTED_EXIT and its stderr matches STDERR_REGEX. The command is every
# argument after `--`: the binary, then its arguments.
#
#   cmake -DEXPECTED_EXIT=<code> -DSTDERR_REGEX=<regex>
#         -P expect_exit.cmake -- <binary> [key=value ...]
set(command "")
set(in_command FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(in_command)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(in_command TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "expect_exit.cmake: no command after --")
endif()
list(JOIN command " " shown)

execute_process(COMMAND ${command}
  RESULT_VARIABLE code
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECTED_EXIT}")
  message(FATAL_ERROR
    "${shown} exited '${code}', expected ${EXPECTED_EXIT}; stderr:\n${err}")
endif()
if(NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR
    "${shown}: stderr does not match '${STDERR_REGEX}':\n${err}")
endif()
