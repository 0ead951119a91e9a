# eclp-run stdout golden, run as `cmake -P` by the tool-smoke ctest label.
#
# Inputs (all -D): ECLP_GEN, ECLP_CONVERT, ECLP_RUN (tool paths), GOLDEN
# (the committed tests/golden/eclp_run.txt), WORK_DIR (scratch directory,
# recreated every run).
#
# Runs a fixed list of eclp-run invocations (the tool_run_* tests with
# --verify, plus the symmetrize, weights, reorder and LLC notes and an
# unknown --algo) and compares their stdout and exit codes, concatenated,
# against the golden. The two host-dependent figures, "N ms wall" and
# "peak rss: N MiB", are masked first. Regenerate with
#   ECLP_UPDATE_GOLDEN=1 ctest -R tool_run_golden
foreach(var ECLP_GEN ECLP_CONVERT ECLP_RUN GOLDEN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "eclp_run_golden.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# The --graph input of tool_run_cc, rebuilt here so the script stands alone.
execute_process(
  COMMAND "${ECLP_GEN}" --input=rmat16.sym --scale=tiny --out=t.eclg
  WORKING_DIRECTORY "${WORK_DIR}" RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  execute_process(
    COMMAND "${ECLP_CONVERT}" t.eclg t.mtx
    WORKING_DIRECTORY "${WORK_DIR}" RESULT_VARIABLE rc
    OUTPUT_VARIABLE out ERROR_VARIABLE err)
endif()
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "building t.mtx failed (${rc}):\n${out}\n${err}")
endif()

set(runs
  "--algo=cc --graph=t.mtx --verify"
  "--algo=mis --input=internet --scale=tiny --seed=7 --verify"
  "--algo=scc --input=cold-flow --scale=tiny --verify --timeline"
  "--algo=mst --input=USA-road-d.NY --scale=tiny --verify"
  "--algo=gc --input=rmat16.sym --scale=tiny --verify"
  "--algo=cc --input=cold-flow --scale=tiny --verify"
  "--algo=mst --input=rmat16.sym --scale=tiny --weights=9 --verify"
  "--algo=cc --input=rmat16.sym --scale=tiny --reorder=hub --llc=on --verify"
  "--algo=bfs --input=rmat16.sym --scale=tiny")

set(actual "")
foreach(run IN LISTS runs)
  separate_arguments(args UNIX_COMMAND "${run}")
  execute_process(
    COMMAND "${ECLP_RUN}" ${args}
    WORKING_DIRECTORY "${WORK_DIR}" RESULT_VARIABLE rc
    OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(REGEX REPLACE "[0-9]+ ms wall" "N ms wall" out "${out}")
  string(REGEX REPLACE "peak rss: [0-9]+ MiB" "peak rss: N MiB" out "${out}")
  string(APPEND actual "$ eclp-run ${run}\n${out}-> exit ${rc}\n\n")
endforeach()

if(DEFINED ENV{ECLP_UPDATE_GOLDEN})
  file(WRITE "${GOLDEN}" "${actual}")
  message(STATUS "updated golden ${GOLDEN}")
  return()
endif()
if(NOT EXISTS "${GOLDEN}")
  message(FATAL_ERROR
          "missing golden ${GOLDEN} (regenerate with ECLP_UPDATE_GOLDEN=1)")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${WORK_DIR}/eclp_run.actual.txt" "${actual}")
  message(FATAL_ERROR "eclp-run stdout differs from ${GOLDEN}; actual "
                      "output in ${WORK_DIR}/eclp_run.actual.txt:\n"
                      "${actual}")
endif()
message(STATUS "eclp-run golden: ok")
