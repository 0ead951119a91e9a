# Reorder smoke check, run as `cmake -P` by the reorder-smoke ctest label.
#
# Inputs (all -D): ECLP_RUN, ECLP_PROFILE_DIFF (tool paths), ALGO, INPUT
# (suite input name), WORK_DIR (scratch directory, recreated every run).
#
# Steps:
#  1. eclp-run --algo=$ALGO --input=$INPUT --scale=tiny --reorder=hub
#     --profile=a.json — the reordered run must succeed, verify, and write
#     a profile artifact;
#  2. eclp-profile-diff --check a.json — schema validation;
#  3. a second identical run into b.json, then a self-diff that must report
#     zero regressions (reordering is memoized + deterministic, so two runs
#     of the same spec are bit-identical);
#  4. one LLC-enabled run (--llc=on) whose artifact must also pass the
#     schema check — covers the optional llc fields in the profile format;
#  5. two --reorder=gorder runs and a self-diff that must report zero
#     regressions — Gorder is deterministic too.
foreach(var ECLP_RUN ECLP_PROFILE_DIFF ALGO INPUT WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "reorder_smoke.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(profile_a "${WORK_DIR}/a.json")
set(profile_b "${WORK_DIR}/b.json")
set(profile_llc "${WORK_DIR}/llc.json")
set(profile_gorder_a "${WORK_DIR}/gorder_a.json")
set(profile_gorder_b "${WORK_DIR}/gorder_b.json")

execute_process(
  COMMAND "${ECLP_RUN}" --algo=${ALGO} --input=${INPUT} --scale=tiny
          --reorder=hub --verify --profile=${profile_a}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "eclp-run --reorder=hub failed (${rc}):\n${out}\n${err}")
endif()
if(NOT EXISTS "${profile_a}")
  message(FATAL_ERROR "reordered run did not write ${profile_a}")
endif()

execute_process(
  COMMAND "${ECLP_PROFILE_DIFF}" --check=${profile_a}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "schema validation failed (${rc}):\n${out}\n${err}")
endif()

execute_process(
  COMMAND "${ECLP_RUN}" --algo=${ALGO} --input=${INPUT} --scale=tiny
          --reorder=hub --verify --profile=${profile_b}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "second reordered run failed (${rc}):\n${out}\n${err}")
endif()

execute_process(
  COMMAND "${ECLP_PROFILE_DIFF}" "${profile_a}" "${profile_b}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "self-diff reported regressions (${rc}):\n${out}\n${err}")
endif()

execute_process(
  COMMAND "${ECLP_RUN}" --algo=${ALGO} --input=${INPUT} --scale=tiny
          --reorder=hub --llc=on --verify --profile=${profile_llc}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "LLC-enabled run failed (${rc}):\n${out}\n${err}")
endif()

execute_process(
  COMMAND "${ECLP_PROFILE_DIFF}" --check=${profile_llc}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "LLC profile schema validation failed (${rc}):\n${out}\n${err}")
endif()

foreach(profile "${profile_gorder_a}" "${profile_gorder_b}")
  execute_process(
    COMMAND "${ECLP_RUN}" --algo=${ALGO} --input=${INPUT} --scale=tiny
            --reorder=gorder --verify --profile=${profile}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "eclp-run --reorder=gorder failed (${rc}):\n${out}\n${err}")
  endif()
endforeach()

execute_process(
  COMMAND "${ECLP_PROFILE_DIFF}" "${profile_gorder_a}" "${profile_gorder_b}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "gorder self-diff reported regressions (${rc}):\n${out}\n${err}")
endif()

message(STATUS "reorder smoke ${ALGO}/${INPUT}: ok")
