#!/usr/bin/env bash
# Full pre-merge gate: formatting, clippy, build, tests.
# Everything here runs offline (the workspace has no external deps).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> mutant kit: each mutant's old text occurs exactly once (no build)"
# The full run, `scripts/mutants.sh [rev]`, rebuilds the workspace once
# per mutant; this step only keeps scripts/mutants.txt from rotting.
scripts/mutants.sh --check

echo "==> paired-run verdicts on canned numbers (scripts/pairs.sh, no build)"
scripts/pairs.sh --selftest

echo "==> cargo clippy (the static checks of DESIGN §7.2)"
# Clippy's default groups are off; what is checked is what the crates'
# scoped `deny` attributes and `clippy.toml` list. `disallowed_methods`
# (wall clock, OS threads) belongs to `clippy::all`, so it is re-enabled
# after the `-A`. A stale `#[expect]` fails through `-D warnings`.
cargo clippy -q --workspace --all-targets -- -A clippy::all -D clippy::disallowed_methods -D warnings

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test -q --workspace

echo "==> bench targets build warning-free in the bench profile"
# A discarded `Result` in a bench would time an error path silently; the
# clippy step's `unused_must_use` checks the dev profile, this one the
# optimised build the benches actually run.
RUSTFLAGS=-Dwarnings cargo bench --no-run -q -p turbopool-bench

echo "==> benchmark/ builds against the facade and passes its own gates"
# Nothing else builds the standalone benchmark package: the smoke run fails
# on a broken facade signature, reps that disagree to the bit, a traced rep
# that differs from the untraced one, or audit violations. Standard output
# is the eight result lines (one JSON object each); failures go to stderr.
benchmark/run.sh --smoke >/dev/null
(cd benchmark && cargo test -q)

echo "==> WAL replay fuzz, long variant (differential + seeded log mutation, <= 20 s)"
cargo test -q --release -p turbopool-wal -- --ignored

echo "==> SSD frame verification model, long variant (identity, then frame_sum; <= 10 s)"
cargo test -q --release -p turbopool-iosim -- --ignored

echo "==> same-page first touches on real OS threads, long variant (<= 5 s)"
cargo test -q --release --test pool_unpin_threads -- --ignored

echo "==> bulk-loaded images at the benchmark's sizes (pinned fingerprints)"
cargo test -q --release --test setup_image -- --ignored

echo "==> crash-schedule sweep (strided, all five designs)"
cargo test -q --release --test crash_schedule quick_sweep_all_designs

echo "==> domain determinism: a fleet equals each domain run alone, incl. fault and brownout replay"
cargo test -q --release --test driver_determinism

echo "==> brownout bench (quick, asserts CW/DW/LC >= 2x noSSD while degraded)"
TURBO_QUICK=1 cargo bench -q -p turbopool-bench --bench brownout

echo "==> paper bench (quick: one slice of the cell table, every view, through workload::runs)"
TURBO_QUICK=1 cargo bench -q -p turbopool-bench --bench paper

echo "==> golden paper outputs (full length; table1, paper's fig5-fig9 and table3, warmstart, ablation vs results/)"
scripts/figures.sh

echo "All checks passed."
