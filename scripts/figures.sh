#!/usr/bin/env bash
# Golden paper outputs: rerun each deterministic paper bench at full length
# and fail on any difference from its checked-in file under results/.
#
#   scripts/figures.sh              table1, fig5-fig9, table3, warmstart and ablation
#   scripts/figures.sh fig7 table3  only the named benches
#
# Each bench runs through results/README.md's recipe, so a file under
# results/ is exactly what this script compares against. A change that moves
# a paper output on purpose regenerates the file with that recipe in the
# same commit. `ablation` is checked without its §3.3.4 table, which is
# wall-clock: `deterministic` cuts it from both sides.
# Everything runs in virtual time; the full set takes about two minutes on
# two cores once the bench targets are built.
set -uo pipefail
cd "$(dirname "$0")/.."

benches=("$@")
[[ ${#benches[@]} -gt 0 ]] || benches=(table1 fig5 fig6 fig7 fig8 fig9 table3 warmstart ablation)

cargo bench --no-run -q -p turbopool-bench || exit 1

# The part of bench $1's output that must not move: all of it, except
# ablation's §3.3.4 table (from its `== Ablation 4` header to the next `==`).
deterministic() {
    if [[ $1 == ablation ]]; then
        sed '/^== Ablation 4/,/^== /{/^== Ablation 4/d;/^== /!d}'
    else
        cat
    fi
}

out=$(mktemp)
want=$(mktemp)
trap 'rm -f "$out" "$want"' EXIT
failed=()
for b in "${benches[@]}"; do
    cargo bench -q -p turbopool-bench --bench "$b" 2>&1 \
        | sed 's|^wrote /.*/BENCH_|wrote BENCH_|' | deterministic "$b" >"$out"
    status=${PIPESTATUS[0]}
    if [[ $status != 0 ]]; then
        echo "$b: bench failed (exit $status)"
        tail -20 "$out"
        failed+=("$b")
    elif deterministic "$b" <"results/$b.txt" >"$want" && diff -u "$want" "$out"; then
        echo "$b: matches results/$b.txt"
    else
        echo "$b: differs from results/$b.txt"
        failed+=("$b")
    fi
done

if [[ ${#failed[@]} -gt 0 ]]; then
    echo "golden outputs moved: ${failed[*]}" >&2
    exit 1
fi
echo "all ${#benches[@]} golden outputs match"
