#!/usr/bin/env bash
# Full pre-merge gate: formatting, repo-native lint, build, tests.
# Everything here runs offline (the workspace has no external deps).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> turbopool-lint (no findings beyond crates/lint/lint_baseline.json)"
# The JSON report is kept as a CI artifact; new findings fail the gate.
cargo run -q -p turbopool-lint -- --format json > LINT_REPORT.json
cat LINT_REPORT.json

echo "==> turbopool-lint (seeded fixtures must fail)"
if cargo run -q -p turbopool-lint -- crates/lint/fixtures >/dev/null 2>&1; then
    echo "ERROR: linter exited 0 on the seeded-violation fixtures" >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test -q --workspace

echo "==> bench targets build warning-free (lint L6 does not reach benches/)"
# A discarded `Result` in a bench would time an error path silently.
RUSTFLAGS=-Dwarnings cargo bench --no-run -q -p turbopool-bench

echo "==> benchmark/ builds against the facade and passes its own gates"
# Nothing else builds the standalone benchmark package: the smoke run fails
# on a broken facade signature, reps that disagree to the bit, a traced rep
# that differs from the untraced one, or audit violations. Standard output
# is the eight result lines (one JSON object each); failures go to stderr.
benchmark/run.sh --smoke >/dev/null
(cd benchmark && cargo test -q)

echo "==> fault matrix (invariant auditor compiled out: --no-default-features)"
cargo test -q --no-default-features --test fault_injection --test crash_torture

echo "==> WAL replay fuzz, long variant (differential + seeded log mutation, <= 20 s)"
cargo test -q --release -p turbopool-wal -- --ignored

echo "==> bulk-loaded images at the benchmark's sizes (pinned fingerprints)"
cargo test -q --release --test setup_image -- --ignored

echo "==> crash-schedule sweep (strided, all five designs)"
cargo test -q --release --test crash_schedule quick_sweep_all_designs

echo "==> parallel-driver determinism incl. brownout replay (strict invariants on)"
cargo test -q --release --features strict-invariants --test driver_determinism

echo "==> driver scaling bench (quick, emits BENCH_driver_scaling.json)"
TURBO_QUICK=1 cargo bench -q -p turbopool-bench --bench driver_scaling

echo "==> brownout bench (quick, asserts CW/DW/LC >= 2x noSSD while degraded)"
TURBO_QUICK=1 cargo bench -q -p turbopool-bench --bench brownout

echo "==> recovery bench (quick, emits BENCH_recovery.json)"
TURBO_QUICK=1 cargo bench -q -p turbopool-bench --bench recovery

echo "All checks passed."
