# Runs one stindex_cli invocation that must be rejected as a usage error:
# exit status 2 and a stderr message matching EXPECT.
#
#   cmake -DCLI=path/to/stindex_cli -DEXPECT=regex -P cli_usage_test.cmake \
#         -- <stindex_cli arguments...>
set(args)
set(collect OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(collect)
    list(APPEND args "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(collect ON)
  endif()
endforeach()

execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
string(JOIN " " command stindex_cli ${args})
if(NOT status EQUAL 2)
  message(FATAL_ERROR "${command}: exit status ${status}, want 2\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "${command}: stderr does not match '${EXPECT}'\n"
                      "stderr: ${err}")
endif()
