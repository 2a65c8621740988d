# Runs a command and requires its exit code and a match on its stderr
# (EXPECT_STDERR) or on its stdout (EXPECT_STDOUT):
#
#   cmake -DEXPECT_EXIT=<code> -DEXPECT_STDERR=<regex> -P expect.cmake
#         <command> [args...]
#
# ctest's PASS_REGULAR_EXPRESSION ignores the exit code; usage errors must
# both say what is wrong and exit 2.
math(EXPR last "${CMAKE_ARGC} - 1")
set(command)
set(script_index -1)
foreach(i RANGE ${last})
  if(script_index GREATER_EQUAL 0 AND i GREATER script_index)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "-P")
    math(EXPR script_index "${i} + 1")
  endif()
endforeach()
execute_process(COMMAND ${command} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL EXPECT_EXIT)
  message(FATAL_ERROR "exit code ${rc}, expected ${EXPECT_EXIT}\n${err}")
endif()
if(DEFINED EXPECT_STDERR AND NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
if(DEFINED EXPECT_STDOUT AND NOT out MATCHES "${EXPECT_STDOUT}")
  message(FATAL_ERROR "stdout does not match '${EXPECT_STDOUT}':\n${out}")
endif()
