# Telemetry smoke check, run as `cmake -P` by the metrics-smoke ctest label.
#
# Inputs (all -D): ECLP_SERVE, ECLP_METRICS (tool paths), WORK_DIR
# (scratch directory, recreated every run).
#
# Steps:
#  1. serve a mixed request file with --metrics/--trace/--stats-json: the
#     snapshot JSONL, its Prometheus twin, and the trace log must all be
#     written;
#  2. schema: eclp-metrics --check must validate every snapshot line, and
#     the snapshot's counters must agree with --stats-json (completed,
#     failed, pool hits/misses) — the registry and ServerStats are two
#     views of one serving run;
#  3. self-diff: eclp-metrics between the run's snapshots and themselves
#     must report zero regressions and exit 0; a copy of the last snapshot
#     with one more serve.failed must fail the gate with exit 1;
#  4. tracing: the trace log must contain admitted/started/pool/finished
#     events for a known request id, and a "cause" on the failing one;
#  5. slow-request hook: --slow-ms=0 must write one span tree per
#     completed request into --slow-dir, and a second serving with a huge
#     threshold must write none.
foreach(var ECLP_SERVE ECLP_METRICS WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "metrics_smoke.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(requests "${WORK_DIR}/requests.jsonl")
file(WRITE "${requests}" [=[
# metrics-smoke request mix: shared graphs, every status, one failure
{"id": "cc-rmat", "algo": "cc", "input": "rmat16.sym", "scale": "tiny"}
{"id": "gc-rmat", "algo": "gc", "input": "rmat16.sym", "scale": "tiny"}
{"id": "mis-inet", "algo": "mis", "input": "internet", "scale": "tiny"}
{"id": "scc-bad", "algo": "scc", "input": "rmat16.sym", "scale": "tiny"}
]=])

# --- 1. serve with telemetry on ----------------------------------------------
execute_process(
  COMMAND "${ECLP_SERVE}" --requests=${requests} --threads=4
          --out=${WORK_DIR}/out.jsonl
          --metrics=${WORK_DIR}/metrics.jsonl
          --trace=${WORK_DIR}/trace.jsonl
          --stats-json=${WORK_DIR}/stats.json
          --slow-ms=0 --slow-dir=${WORK_DIR}/slow
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
# scc-bad fails by design, so eclp-serve exits 1; anything else is wrong.
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "telemetry serving: expected exit 1 (one failing "
          "request), got ${rc}:\n${out}\n${err}")
endif()
foreach(artifact metrics.jsonl metrics.prom trace.jsonl stats.json)
  if(NOT EXISTS "${WORK_DIR}/${artifact}")
    message(FATAL_ERROR "telemetry serving did not write ${artifact}")
  endif()
endforeach()

# --- 2. schema + stats agreement ---------------------------------------------
execute_process(
  COMMAND "${ECLP_METRICS}" --check=${WORK_DIR}/metrics.jsonl
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "snapshot failed schema validation (${rc}):\n${out}\n${err}")
endif()

file(READ "${WORK_DIR}/metrics.jsonl" snapshots)
string(REPLACE "\n" ";" snapshot_lines "${snapshots}")
list(GET snapshot_lines -1 last)
if(last STREQUAL "")
  list(GET snapshot_lines -2 last)
endif()
file(READ "${WORK_DIR}/stats.json" stats)
foreach(pair "completed;serve.completed" "failed;serve.failed"
             "rejected;serve.rejected")
  list(GET pair 0 stats_key)
  list(GET pair 1 metric)
  string(JSON from_stats GET "${stats}" ${stats_key})
  string(JSON from_metrics GET "${last}" counters ${metric})
  if(NOT from_stats EQUAL from_metrics)
    message(FATAL_ERROR "stats-json ${stats_key}=${from_stats} disagrees "
            "with snapshot ${metric}=${from_metrics}")
  endif()
endforeach()
string(JSON pool_hits GET "${stats}" graph_pool hits)
string(JSON metric_hits GET "${last}" counters pool.hits)
if(NOT pool_hits EQUAL metric_hits)
  message(FATAL_ERROR "stats-json pool hits=${pool_hits} disagrees with "
          "snapshot pool.hits=${metric_hits}")
endif()
string(JSON queue_peak GET "${stats}" queue_peak)
if(queue_peak LESS 1)
  message(FATAL_ERROR "stats-json queue_peak must be >= 1, got ${queue_peak}")
endif()

# --- 3. self-diff is clean ---------------------------------------------------
execute_process(
  COMMAND "${ECLP_METRICS}" "${WORK_DIR}/metrics.jsonl"
          "${WORK_DIR}/metrics.jsonl"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "self-diff reported regressions (${rc}):\n${out}\n${err}")
endif()

string(JSON failed GET "${last}" counters serve.failed)
math(EXPR failed "${failed} + 1")
string(JSON worse SET "${last}" counters serve.failed ${failed})
string(REPLACE "\n" "" worse "${worse}")
file(WRITE "${WORK_DIR}/worse.jsonl" "${worse}\n")
execute_process(
  COMMAND "${ECLP_METRICS}" "${WORK_DIR}/metrics.jsonl"
          "${WORK_DIR}/worse.jsonl"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT out MATCHES "REGRESSED +counter/serve.failed")
  message(FATAL_ERROR "one more serve.failed must fail the gate with exit "
          "1, got ${rc}:\n${out}\n${err}")
endif()

# --- 4. trace events ---------------------------------------------------------
file(READ "${WORK_DIR}/trace.jsonl" trace)
foreach(event admitted started pool finished)
  string(REGEX MATCH "\"id\":\"cc-rmat\",\"event\":\"${event}\"" hit "${trace}")
  if(NOT hit)
    message(FATAL_ERROR "trace log lacks the ${event} event for cc-rmat:\n"
            "${trace}")
  endif()
endforeach()
string(REGEX MATCH "\"id\":\"scc-bad\",\"event\":\"finished\",[^\n]*\"cause\""
       failure_cause "${trace}")
if(NOT failure_cause)
  message(FATAL_ERROR "failing request's finished event lacks a cause:\n"
          "${trace}")
endif()

# --- 5. slow-request hook ----------------------------------------------------
foreach(id cc-rmat gc-rmat mis-inet)
  if(NOT EXISTS "${WORK_DIR}/slow/${id}.json")
    message(FATAL_ERROR "--slow-ms=0 did not write slow/${id}.json")
  endif()
endforeach()
execute_process(
  COMMAND "${ECLP_SERVE}" --requests=${requests} --threads=4
          --out=${WORK_DIR}/out2.jsonl
          --slow-ms=1000000 --slow-dir=${WORK_DIR}/slow_none
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "second serving: expected exit 1, got "
          "${rc}:\n${out}\n${err}")
endif()
file(GLOB slow_none_files "${WORK_DIR}/slow_none/*.json")
if(slow_none_files)
  message(FATAL_ERROR "a huge --slow-ms still wrote span trees: "
          "${slow_none_files}")
endif()

message(STATUS "metrics smoke: ok")
