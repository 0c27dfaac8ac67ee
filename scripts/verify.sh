#!/usr/bin/env sh
# Offline verification gate: warning-free release build, full test suite
# (workspace and the standalone benchmark package), lint-clean clippy,
# warning-free rustdoc, a formatted tree, the lint and public-surface gates,
# the wall-clock microbenchmark and observability smoke runs, and the results
# gate. Run from anywhere; operates on the workspace containing this script.
set -eu

cd "$(dirname "$0")/.."

RUSTFLAGS="-D warnings" cargo build --release --offline --workspace
cargo test -q --offline --workspace
# The benchmark package is its own workspace, so nothing above compiles it:
# build and test it here to catch an engine API it imports disappearing.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo clippy --offline --workspace --all-targets -- -D warnings
# Rustdoc: no public doc links to a private item, no broken or ambiguous
# link, no redundant link target.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
# Formatting: the workspace is kept exactly as `cargo fmt` writes it.
cargo fmt --check

# Static lint gate (plus its injected-violation self-test).
./scripts/check_lint.sh
# Public-surface gate: every library pub fn is named outside its crate.
./scripts/check_surface.sh

cargo build --release --offline -p pygko-bench
bin=./target/release
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

# Smoke-run the wall-clock microbenchmarks end to end (quick suite); each is
# also a ratio gate (COO over CSR, dot over AXPY, the MTX writer over one
# `{:?}` line per entry). Their output goes to the scratch directory: the
# committed micro_*.csv files are full-size wall-clock runs.
for b in micro_spmv micro_solvers micro_facade; do
    PYGKO_BENCH_QUICK=1 PYGKO_RESULTS_DIR="$scratch/smoke" "$bin/$b"
done

# Observability gate: detector self-tests, every scrape route live over raw
# TCP, an anomaly-free /runs report beside a strict /metrics exposition on
# omp-2; one rooted span tree whose chunk spans tile every pool dispatch, the
# Chrome export, the flame endpoints and HEAD parity on omp-16.
PYGKO_BENCH_QUICK=1 "$bin/observe_probe"

# Results gate: every figure and table bin plus spmv_formats, at full size,
# and each file they write must be byte-identical to the committed one in
# results/, and every committed file but micro_*.csv must be one they
# write. Everything they write is virtual time or a count, so a rerun of the
# same code writes the same bytes; a change that moves a figure must commit
# the regenerated file with it.
unset PYGKO_BENCH_QUICK
mkdir -p "$scratch/results" "$scratch/logs"
for b in fig3a_spmv_gpu fig3b_spmv_cpu fig3c_solver_gpu fig4_representative \
    fig5a_devices fig5bc_overhead solver_cpu tab1_types tab2_matrices \
    ablations spmv_formats; do
    echo "results: $b"
    PYGKO_RESULTS_DIR="$scratch/results" "$bin/$b" >"$scratch/logs/$b.log" 2>&1 || {
        cat "$scratch/logs/$b.log" >&2
        echo "verify: FAIL — $b exited nonzero" >&2
        exit 1
    }
done
moved="" checked=0
for f in "$scratch"/results/*; do
    name="$(basename "$f")"
    checked=$((checked + 1))
    cmp -s "$f" "results/$name" || moved="$moved $name"
done
if [ -n "$moved" ]; then
    echo "verify: FAIL — the code writes other bytes than results/ holds for:$moved" >&2
    echo "  (regenerate: cargo run --release --offline -p pygko-bench --bin <bin>)" >&2
    exit 1
fi
# And the other way: every committed file except the wall-clock micro_*.csv
# must be one the run wrote, or a file a bin stops writing stays unchecked.
stale=""
for f in results/*; do
    name="$(basename "$f")"
    case "$name" in micro_*.csv) continue ;; esac
    [ -e "$scratch/results/$name" ] || stale="$stale $name"
done
if [ -n "$stale" ]; then
    echo "verify: FAIL — results/ holds files no gated bin writes:$stale" >&2
    echo "  (delete them, or gate the bin that writes them)" >&2
    exit 1
fi
echo "results: $checked files byte-identical to results/"

echo "verify: OK"
