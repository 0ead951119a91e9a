# eclp-serve on a request file with one malformed line, run as `cmake -P`
# by the tool-smoke ctest label.
#
# Inputs (all -D): ECLP_SERVE (tool path), WORK_DIR (scratch directory,
# recreated every run).
#
# A four-line request file whose third line names an unknown algorithm
# must be refused as a whole: exit code 2, a message naming the file and
# line 3, and neither an uncaught-exception abort nor a source path.
foreach(var ECLP_SERVE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "serve_bad_request.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(requests "${WORK_DIR}/requests.jsonl")
file(WRITE "${requests}" [=[
{"id": "ok-1", "algo": "cc", "input": "rmat16.sym", "scale": "tiny"}
{"id": "ok-2", "algo": "gc", "input": "rmat16.sym", "scale": "tiny"}
{"id": "bad", "algo": "nope", "input": "rmat16.sym", "scale": "tiny"}
{"id": "ok-3", "algo": "mis", "input": "internet", "scale": "tiny"}
]=])

execute_process(
  COMMAND "${ECLP_SERVE}" --requests=${requests}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
set(all "${out}${err}")
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit code 2, got ${rc}:\n${all}")
endif()
string(FIND "${all}" "requests.jsonl: line 3: unknown algo 'nope'" at)
if(at EQUAL -1)
  message(FATAL_ERROR "the error does not name line 3:\n${all}")
endif()
foreach(forbidden "terminate" ".cpp:")
  string(FIND "${all}" "${forbidden}" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "output contains '${forbidden}':\n${all}")
  endif()
endforeach()
message(STATUS "eclp-serve bad request line: ok")
