#!/usr/bin/env sh
# Observability gate: builds and runs the end-to-end probe, which drives real
# CG solves through the facade's `Solver::observe` with the HTTP exporter
# serving and scrapes every route over raw TCP: detector self-tests and an
# anomaly-free /runs report next to a strict /metrics exposition on omp-2;
# one rooted span tree whose chunk spans tile every pool dispatch, the
# Chrome export, the flame endpoints (JSON + folded grammar + diff) and HEAD
# parity on omp-16. Then proves bench_gate's differential attribution has
# teeth: with a uniform injected slowdown forcing regressions and one
# injected 100x-slow kernel path (PROFILE_INJECT=csr), a csr span path must
# surface as the top attributed regression. Run from anywhere.
set -eu

cd "$(dirname "$0")/.."

cargo build --release --offline -p pygko-bench --bin observe_probe --bin bench_gate

PYGKO_BENCH_QUICK=1 ./target/release/observe_probe

# Attribution self-test: the injected slowdown must fail the gate AND the
# injected 100x csr path must rank first among the attributed span paths.
out="$(BENCH_GATE_INJECT=2.0 PROFILE_INJECT=csr ./target/release/bench_gate 2>&1)" && {
    echo "check_observe: FAIL — gate accepted an injected 2x slowdown" >&2
    exit 1
}
echo "$out" | grep -q "ATTRIBUTED" || {
    echo "check_observe: FAIL — regressed run printed no ATTRIBUTED paths" >&2
    echo "$out" >&2
    exit 1
}
first_attr="$(echo "$out" | grep "ATTRIBUTED" | head -n 1)"
echo "$first_attr" | grep -q "csr" || {
    echo "check_observe: FAIL — injected 100x csr kernel is not the top attributed path:" >&2
    echo "$first_attr" >&2
    exit 1
}
echo "check_observe: top attribution is the injected csr path (self-test OK)"
echo "check_observe: observability gate OK"
