#!/usr/bin/env bash
# benchmark/run.sh <workload> [--trace] [--seed S] [--seconds N] [--quick]
# Builds the benchmark offline and runs one workload. The last line of the
# output is the JSON result; a traced run also writes results/trace_<w>.json.
set -euo pipefail
cd "$(dirname "$0")/.."
workload=${1:?usage: benchmark/run.sh <spmv|krylov|storm|cold_pipeline> [--trace] [--seed S] [--seconds N] [--quick]}
shift
args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --trace) args+=(--trace 1) ;;
    --seed | --seconds) args+=("$1" "$2"); shift ;;
    --quick) args+=(--quick) ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  --workload "$workload" "${args[@]}"
