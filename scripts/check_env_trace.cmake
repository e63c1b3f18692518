# Runs a test_obs TraceSession test under CNTI_TRACE and checks the trace
# file the process writes at exit: well formed (trace_check) and still
# holding the spans the session recorded, because a session's drain hands
# them to the env sink as well.
#
#   cmake -DTEST_OBS=<test_obs> -DTRACE_CHECK=<trace_check> \
#         -DTRACE=<output.json> -P scripts/check_env_trace.cmake
file(REMOVE "${TRACE}")
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env "CNTI_TRACE=${TRACE}" "${TEST_OBS}"
          --gtest_filter=Trace.SessionCapturesSpansAcrossThreadsSortedByStart
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "test_obs failed under CNTI_TRACE (exit ${rc})")
endif()
execute_process(COMMAND "${TRACE_CHECK}" --trace "${TRACE}" --min-events 2
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "trace_check rejected ${TRACE}")
endif()
file(READ "${TRACE}" body)
foreach(span test.outer test.worker)
  string(FIND "${body}" "\"name\":\"${span}\"" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "span ${span} is missing from the CNTI_TRACE file")
  endif()
endforeach()
