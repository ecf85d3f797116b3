# ctest helper: resuming a copy of a simulation checkpoint must leave the
# original alone. Runs `ccdctl simulate` checkpointing into
# WORK_DIR/a.ckpt, copies that file to b.ckpt, resumes b.ckpt for more
# rounds without checkpoint=, and fails unless a.ckpt still holds its bytes
# and b.ckpt holds the longer run.
#
#   cmake -DCCDCTL=<ccdctl> -DWORK_DIR=<dir> -P resume_copy.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(original "${WORK_DIR}/a.ckpt")
set(copy "${WORK_DIR}/b.ckpt")

# Runs ccdctl with the given arguments; its stdout lands in `out`.
function(ccdctl)
  execute_process(COMMAND "${CCDCTL}" ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT code STREQUAL "0")
    list(JOIN ARGN " " shown)
    message(FATAL_ERROR "ccdctl ${shown} exited '${code}':\n${stderr}")
  endif()
  set(out "${stdout}" PARENT_SCOPE)
endfunction()

ccdctl(simulate rounds=10 workers=8 malicious=2 seed=3
       checkpoint=${original} checkpoint_every=5)
file(COPY_FILE "${original}" "${copy}")
file(SHA256 "${original}" before)

ccdctl(simulate resume=${copy} rounds=20)
file(SHA256 "${original}" after)
if(NOT after STREQUAL before)
  message(FATAL_ERROR "resuming ${copy} rewrote ${original}")
endif()
file(SHA256 "${copy}" copy_after)
if(copy_after STREQUAL before)
  message(FATAL_ERROR "resuming ${copy} left it at its first 10 rounds")
endif()

# The copy now holds all 20 rounds.
ccdctl(simulate resume=${copy} rounds=20)
if(NOT out MATCHES "resuming from [^\n]*b\\.ckpt: 20/20 round\\(s\\) done")
  message(FATAL_ERROR "the resumed copy does not hold 20 rounds:\n${out}")
endif()
