#!/usr/bin/env bash
# Golden paper outputs: rerun each deterministic paper bench at full length
# and fail on any difference from its checked-in file under results/.
#
#   scripts/figures.sh              table1, fig5-fig9, table3, warmstart and ablation
#   scripts/figures.sh fig7 table3  only the named golden files
#
# fig5-fig9 and table3 are views of one target, `paper`, which runs each
# cell once and prints each view after a `view <name>` line; naming any of
# them runs `paper` once and compares only the named views. The other
# files are one target each. Each output is cut as results/README.md's
# recipe cuts it, so a file under results/ is exactly what this script
# compares against. The compared text holds every cell's `digest` line (a
# hash of all its end counters and driver steps), so a changed counter
# fails here even when no printed rate moves. A change that moves a paper
# output on purpose regenerates the file with that recipe in the same
# commit. Two parts are wall-clock and are cut from both sides: every
# `timing` line and ablation's §3.3.4 table. The timing lines come out last
# as tab-separated rows (commit, bench, wall_s, steps, steps_per_s) for
# results/trajectory.tsv, one per target and one per `paper` cell group;
# the commit of an uncommitted tree ends in -dirty. Everything runs in
# virtual time; the full set takes 25-35 s on two cores once the bench
# targets are built.
set -uo pipefail
cd "$(dirname "$0")/.."

files=("$@")
[[ ${#files[@]} -gt 0 ]] || files=(table1 fig5 fig6 fig7 fig8 fig9 table3 warmstart ablation)

# The bench target that prints golden file $1.
target() {
    case $1 in
    fig[5-9] | table3) echo paper ;;
    *) echo "$1" ;;
    esac
}

# What is wall-clock, cut from both sides: `timing` lines and ablation's
# §3.3.4 table (from its `== Ablation 4` header to the next `==`).
wallclock='/^timing /d;/^== Ablation 4/,/^== /{/^== Ablation 4/d;/^== /!d}'

# Golden file $1's part of its target's output on stdin: a `paper` view's
# lines between its `view` line and the next `view` or `timing` line, or
# all of another target's.
text() {
    if [[ $(target "$1") == paper ]]; then
        awk -v v="$1" '/^(view|timing) /{on = $1 == "view" && $2 == v; next} on'
    else
        cat
    fi
}

cargo bench --no-run -q -p turbopool-bench || exit 1

if commit=$(git rev-parse --short=7 HEAD 2>/dev/null); then
    git diff-index --quiet HEAD -- || commit+=-dirty
else
    commit=unknown
fi

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
failed=()
rows=()
for f in "${files[@]}"; do
    t=$(target "$f")
    if [[ ! -e $dir/$t.out ]]; then
        cargo bench -q -p turbopool-bench --bench "$t" >"$dir/$t.out" 2>&1
        echo $? >"$dir/$t.status"
        rows+=("$(sed -En "s/^timing ([^ ]+) wall_s=([^ ]+) steps=([^ ]+) steps_per_s=([^ ]+)$/$commit\t\1\t\2\t\3\t\4/p" "$dir/$t.out")")
    fi
    status=$(<"$dir/$t.status")
    if [[ $status != 0 ]]; then
        echo "$f: bench $t failed (exit $status)"
        tail -20 "$dir/$t.out"
        failed+=("$f")
    elif text "$f" <"$dir/$t.out" | sed "$wallclock" >"$dir/out" &&
        sed "$wallclock" "results/$f.txt" >"$dir/want" && diff -u "$dir/want" "$dir/out"; then
        echo "$f: matches results/$f.txt"
    else
        echo "$f: differs from results/$f.txt"
        failed+=("$f")
    fi
done

printf 'commit\tbench\twall_s\tsteps\tsteps_per_s\n'
[[ ${#rows[@]} -eq 0 ]] || printf '%s\n' "${rows[@]}"

if [[ ${#failed[@]} -gt 0 ]]; then
    echo "golden outputs moved: ${failed[*]}" >&2
    exit 1
fi
echo "all ${#files[@]} golden outputs match"
