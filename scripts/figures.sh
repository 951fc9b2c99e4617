#!/usr/bin/env bash
# Golden paper outputs: rerun each deterministic paper bench at full length
# and fail on any difference from its checked-in file under results/.
#
#   scripts/figures.sh              table1, fig5-fig9, table3, warmstart and ablation
#   scripts/figures.sh fig7 table3  only the named benches
#
# Each bench runs through results/README.md's recipe, so a file under
# results/ is exactly what this script compares against. The compared text
# holds every cell's `digest` line (a hash of all its end counters and
# driver steps), so a changed counter fails here even when no printed rate
# moves. A change that moves a paper output on purpose regenerates the file
# with that recipe in the same commit. Two parts are wall-clock and are cut
# from both sides by `deterministic`: each bench's closing `timing` line and
# ablation's §3.3.4 table. The timing lines come out last as tab-separated
# rows (commit, bench, wall_s, steps, steps_per_s) for
# results/trajectory.tsv; the commit of an uncommitted tree ends in -dirty.
# Everything runs in virtual time; the full set takes about two minutes on
# two cores once the bench targets are built.
set -uo pipefail
cd "$(dirname "$0")/.."

benches=("$@")
[[ ${#benches[@]} -gt 0 ]] || benches=(table1 fig5 fig6 fig7 fig8 fig9 table3 warmstart ablation)

cargo bench --no-run -q -p turbopool-bench || exit 1

# The part of bench $1's output that must not move: all of it, except the
# `timing` line and ablation's §3.3.4 table (from its `== Ablation 4`
# header to the next `==`).
deterministic() {
    if [[ $1 == ablation ]]; then
        sed '/^timing /d;/^== Ablation 4/,/^== /{/^== Ablation 4/d;/^== /!d}'
    else
        sed '/^timing /d'
    fi
}

if commit=$(git rev-parse --short=7 HEAD 2>/dev/null); then
    git diff-index --quiet HEAD -- || commit+=-dirty
else
    commit=unknown
fi

raw=$(mktemp)
out=$(mktemp)
want=$(mktemp)
trap 'rm -f "$raw" "$out" "$want"' EXIT
failed=()
rows=()
for b in "${benches[@]}"; do
    cargo bench -q -p turbopool-bench --bench "$b" >"$raw" 2>&1
    status=$?
    deterministic "$b" <"$raw" >"$out"
    if [[ $status != 0 ]]; then
        echo "$b: bench failed (exit $status)"
        tail -20 "$out"
        failed+=("$b")
        continue
    elif deterministic "$b" <"results/$b.txt" >"$want" && diff -u "$want" "$out"; then
        echo "$b: matches results/$b.txt"
    else
        echo "$b: differs from results/$b.txt"
        failed+=("$b")
    fi
    rows+=("$(sed -En "s/^timing ([^ ]+) wall_s=([^ ]+) steps=([^ ]+) steps_per_s=([^ ]+)$/$commit\t\1\t\2\t\3\t\4/p" "$raw")")
done

printf 'commit\tbench\twall_s\tsteps\tsteps_per_s\n'
[[ ${#rows[@]} -eq 0 ]] || printf '%s\n' "${rows[@]}"

if [[ ${#failed[@]} -gt 0 ]]; then
    echo "golden outputs moved: ${failed[*]}" >&2
    exit 1
fi
echo "all ${#benches[@]} golden outputs match"
