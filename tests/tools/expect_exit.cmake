# ctest helper: run a command and require an exact exit code and an
# output match. Plain add_test only tells zero from nonzero; the report
# tools and benches promise specific codes (2 = malformed input or bad
# usage, 3 = a usage error thrown out of a bench's main), so their error
# paths are pinned through this script.
#
#   cmake -DEXPECT_EXIT=N -DEXPECT_OUTPUT=REGEX -P expect_exit.cmake -- CMD ARGS...
#
# Passes when CMD exits with N and its stdout + stderr matches REGEX.
set(cmd)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "expect_exit: no command after --")
endif()

execute_process(COMMAND ${cmd} RESULT_VARIABLE code OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
set(output "${out}${err}")
if(NOT code STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR
          "expect_exit: exit ${code}, expected ${EXPECT_EXIT}\n${output}")
endif()
if(NOT output MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR
          "expect_exit: output does not match /${EXPECT_OUTPUT}/\n${output}")
endif()
message(STATUS "exit ${code} as expected:\n${output}")
