#!/usr/bin/env bash
# The one command: build turbobench (release) and run it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh --smoke      every workload at 1/20 span, both trace modes
#   benchmark/run.sh --suite      10 seeds x every workload + one traced run each
#   benchmark/run.sh --compare out/suite_a.json out/suite_b.json
#
# Runs from any directory; a relative CARGO_TARGET_DIR is taken relative to
# the caller's directory, as cargo does.
set -euo pipefail
here="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target/benchmark}"
exec cargo run --release --quiet --manifest-path "$here/Cargo.toml" -- "$@"
