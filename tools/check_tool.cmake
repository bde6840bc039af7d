# Runs a command-line tool and checks its exit code and output: passes when
# the command exits 0 (non-zero with -DEXPECT_FAILURE=ON) and its combined
# stdout and stderr match the regex EXPECT.
#
#   cmake -DEXPECT=<regex> [-DEXPECT_FAILURE=ON] -P check_tool.cmake \
#         -- <command> [args...]
cmake_minimum_required(VERSION 3.20)

set(command)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()

execute_process(COMMAND ${command} RESULT_VARIABLE rc
                OUTPUT_VARIABLE output ERROR_VARIABLE output)
if(EXPECT_FAILURE AND rc EQUAL 0)
  message(FATAL_ERROR "expected a non-zero exit, got 0:\n${output}")
elseif(NOT EXPECT_FAILURE AND NOT rc EQUAL 0)
  message(FATAL_ERROR "expected exit 0, got ${rc}:\n${output}")
endif()
if(NOT output MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match '${EXPECT}':\n${output}")
endif()
