# Golden-output check, run as a script:
#
#   cmake -DEXE=<program> [-DARGS="<args>"] -DGOLDEN=<file> -P compare_stdout.cmake
#
# Runs EXE with ARGS (split like a shell command line), requires exit code
# 0, and requires its stdout to equal GOLDEN byte for byte. Stderr passes
# through untouched. On a mismatch the actual stdout is written to
# <golden name>.actual in the working directory, for diffing. A change that
# alters the output on purpose regenerates GOLDEN in the same commit.
foreach(var EXE GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_stdout.cmake: -D${var}= is required")
  endif()
endforeach()
separate_arguments(args UNIX_COMMAND "${ARGS}")

execute_process(COMMAND "${EXE}" ${args}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name "${GOLDEN}" NAME)
  file(WRITE "${name}.actual" "${actual}")
  message(FATAL_ERROR "stdout of ${EXE} differs from ${GOLDEN}; "
                      "actual output written to ${name}.actual")
endif()
