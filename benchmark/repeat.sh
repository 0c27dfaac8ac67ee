#!/usr/bin/env bash
# benchmark/repeat.sh N [SECONDS]
# Runs N full sets (all four workloads, untraced) of one build, set k on seed
# default + k - 1, prints per metric min / max / relative spread, writes the
# raw sets to benchmark/results/repeatability.json, and fails if a metric's
# quartile spread over the sets exceeds its bound in BENCHMARK.json (the
# driver's acceptance rule; setup_s is printed, not judged).
set -euo pipefail
cd "$(dirname "$0")/.."
sets=${1:?usage: benchmark/repeat.sh N [SECONDS]}
seconds=${2:-15}
default_seed=20250911
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bench="${CARGO_TARGET_DIR:-benchmark/target}/release/bench"
mkdir -p benchmark/tmp
raw="benchmark/tmp/repeat_$$.jsonl"
trap 'rm -f "$raw"' EXIT
: > "$raw"
for set in $(seq 1 "$sets"); do
  seed=$((default_seed + set - 1))
  for workload in spmv krylov storm cold_pipeline; do
    result=$("$bench" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
    echo "{\"set\":$set,\"workload\":\"$workload\",\"seed\":$seed,\"result\":$result}" >> "$raw"
    echo "set $set/$sets  $workload  done" >&2
  done
done
"$bench" --summarize "$raw"
