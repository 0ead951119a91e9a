#!/usr/bin/env bash
# Build eclp-e2e from source (incrementally) and run one workload:
#
#   bash bench/e2e/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to standard error, so the last line of standard output
# is eclp-e2e's result object. --trace 1 adds the traced pass and reports
# the per-layer metrics; its Chrome traces land in build/e2e/trace/.
set -euo pipefail
cd "$(dirname "$0")/../.."

workload="" seed=1 seconds=20 trace=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload=$2 ;;
    --seed) seed=$2 ;;
    --seconds) seconds=$2 ;;
    --trace) trace=$2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
  shift 2
done
[ -n "$workload" ] || { echo "run.sh: --workload is required" >&2; exit 2; }

build=build/e2e
{
  [ -f "$build/CMakeCache.txt" ] ||
    cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" -j4 --target eclp-e2e
} >&2

args=(--workload="$workload" --seed="$seed" --seconds="$seconds"
      --json="$build/result-$workload.json")
if [ "$trace" = 1 ]; then args+=(--trace="$build/trace"); fi
exec "$build/eclp-e2e" "${args[@]}"
