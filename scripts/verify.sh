#!/usr/bin/env sh
# Offline verification gate: warning-free release build, full test suite
# (workspace and the standalone benchmark package), lint-clean clippy, and
# one wall-clock benchmark smoke run. Run from anywhere; operates on the
# workspace containing this script.
set -eu

cd "$(dirname "$0")/.."

RUSTFLAGS="-D warnings" cargo build --release --offline --workspace
cargo test -q --offline --workspace
# The benchmark package is its own workspace, so nothing above compiles it:
# build and test it here to catch an engine API it imports disappearing.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo clippy --offline --workspace --all-targets -- -D warnings

# Static lint gate (plus its injected-violation self-test).
./scripts/check_lint.sh

# Smoke-run the wall-clock microbenchmarks end to end (quick suite); each is
# also a ratio gate (COO over CSR, dot over AXPY, the MTX writer over one
# `{:?}` line per entry). Quick-mode output goes to
# a scratch directory so it never overwrites the committed full-size
# results/ files.
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
PYGKO_BENCH_QUICK=1 PYGKO_RESULTS_DIR="$SMOKE_DIR" \
    cargo run --release --offline -p pygko-bench --bin micro_spmv
PYGKO_BENCH_QUICK=1 PYGKO_RESULTS_DIR="$SMOKE_DIR" \
    cargo run --release --offline -p pygko-bench --bin micro_solvers
PYGKO_BENCH_QUICK=1 PYGKO_RESULTS_DIR="$SMOKE_DIR" \
    cargo run --release --offline -p pygko-bench --bin micro_facade

# Benchmark regression gate (plus its injected-slowdown self-test).
./scripts/check_bench.sh

# Observability gate: every scrape route live, detector self-tests, rooted
# span trees with tiled chunks, flame endpoints + differential attribution.
./scripts/check_observe.sh

echo "verify: OK"
