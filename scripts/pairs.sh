#!/usr/bin/env bash
# Paired runs of one benchmark workload, parent against change: the
# procedure every performance claim follows (ROADMAP 5(c)).
#
#   scripts/pairs.sh --parent REV --seed S [--pairs N] WORKLOAD
#   scripts/pairs.sh --aa --seed S [--pairs N] WORKLOAD
#   scripts/pairs.sh --selftest
#
# Builds `turbobench` twice, each in a target directory of its own under
# PAIRS_DIR (default target/pairs): the parent from `git archive REV`
# and the change from the working tree. Then runs N alternating pairs
# (default 10) on seeds S, S+1, ...: parent first on even pairs, change
# first on odd ones, each run `turbobench --workload WORKLOAD --seed <n>
# --trace 0` at the benchmark's own run length. `--aa` builds only the
# working tree and runs it against itself, which measures the host's
# noise. Both the parent and the first seed are required: a seed that an
# earlier claim spent (ROADMAP 5(c)) must not be reused by default.
#
# Prints one line per pair with both sides' end-to-end metrics, then per
# metric each side's median [q1–q3] (linear-interpolated quartiles), the
# pairs the change wins, the median gap against the parent's
# inter-quartile distance, and a verdict:
#   better / worse  the change (the parent) wins at least 9 in 10 pairs
#                   and the medians are further apart than the parent's
#                   q1–q3 distance
#   identical       every pair's two values are equal to the bit
#   unresolved      anything else
# The run lines are kept in PAIRS_DIR/runs-WORKLOAD.tsv. `--selftest`
# checks the verdict logic on canned numbers, with no build.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)

# End-to-end metrics as BENCHMARK.json declares them, with the direction
# that is better.
metrics=(setup_s drive_s host_us_per_txn peak_rss_mb sim_tput_per_min sim_txn_slow5_ms)
better=(lower lower lower lower higher lower)

# verdicts: read `pair metric parent change` lines on stdin; print the
# per-metric summary and verdict lines.
verdicts() {
    sort -k2,2 -k1,1n | awk -v names="${metrics[*]}" -v dirs="${better[*]}" '
        function q(a, n, p,    x, i) {
            x = (n - 1) * p; i = int(x)
            return i + 1 < n ? a[i] + (x - i) * (a[i + 1] - a[i]) : a[i]
        }
        function sorted(src, dst, n,    i, j, x) {
            for (i = 0; i < n; i++) {
                x = src[i]
                for (j = i; j > 0 && dst[j - 1] > x; j--) dst[j] = dst[j - 1]
                dst[j] = x
            }
        }
        function flush(    n, pa, ch, pm, cm, iqr, gap, v, sign) {
            if (m == "") return
            n = cnt
            sorted(P, pa, n); sorted(C, ch, n)
            pm = q(pa, n, 0.5); cm = q(ch, n, 0.5); iqr = q(pa, n, 0.75) - q(pa, n, 0.25)
            sign = dir[m] == "higher" ? -1 : 1
            gap = sign * (pm - cm) + 0
            if (same == n) v = "identical"
            else if (10 * wins >= 9 * n && gap > iqr) v = "better"
            else if (10 * losses >= 9 * n && -gap > iqr) v = "worse"
            else v = "unresolved"
            printf "%s: parent %.6g [%.6g-%.6g]; change %.6g [%.6g-%.6g]; median %+.2f %%; change %s in %d/%d; gap %.4g vs parent IQR %.4g; %s\n", \
                m, pm, q(pa, n, 0.25), q(pa, n, 0.75), cm, q(ch, n, 0.25), q(ch, n, 0.75), \
                pm == 0 ? 0 : 100 * (cm - pm) / pm, dir[m], wins, n, gap, iqr, v
        }
        BEGIN { split(dirs, d, " "); split(names, nm, " "); for (i in nm) dir[nm[i]] = d[i] }
        $2 != m { flush(); m = $2; cnt = 0; wins = 0; losses = 0; same = 0 }
        {
            P[cnt] = $3 + 0; C[cnt] = $4 + 0; cnt++
            if ($3 == $4) same++
            else if ((dir[m] == "lower") == ($4 + 0 < $3 + 0)) wins++
            else losses++
        }
        END { flush() }
    '
}

selftest() {
    local out
    # 10 pairs: the change lower in all and far outside the parent's IQR;
    # one metric equal throughout; one higher-is-better metric the change
    # loses 9/10 by a wide margin; one that wins 8/10 only.
    out=$(
        for i in 0 1 2 3 4 5 6 7 8 9; do
            echo "$i peak_rss_mb $((203 + i % 2)).1 $((201 + i % 2)).9"
            echo "$i sim_tput_per_min 6012.5 6012.5"
            echo "$i sim_txn_slow5_ms 4.$i $((i == 0 ? 3 : 5)).$i"
            echo "$i host_us_per_txn 10.$i $((i < 8 ? 9 : 11)).$i"
        done | verdicts
    )
    local want=(
        "host_us_per_txn: .* change lower in 8/10; .*; unresolved"
        "peak_rss_mb: parent 203.6 \[203.1-204.1\]; change 202.4 \[201.9-202.9\]; .* change lower in 10/10; gap 1.2 vs parent IQR 1; better"
        "sim_tput_per_min: .* change higher in 0/10; .*; identical"
        "sim_txn_slow5_ms: .* change lower in 1/10; .*; worse"
    )
    local w
    for w in "${want[@]}"; do
        grep -Eq "^$w\$" <<<"$out" || {
            echo "pairs.sh selftest: no line matches '$w' in:" >&2
            echo "$out" >&2
            exit 1
        }
    done
    # A 9/10 win whose gap is inside the parent's spread stays unresolved.
    out=$(for i in 0 1 2 3 4 5 6 7 8 9; do
        echo "$i drive_s $((i * 10)) $((i == 9 ? 95 : i * 10 - 1))"
    done | verdicts)
    grep -q "change lower in 9/10; .*; unresolved$" <<<"$out" || {
        echo "pairs.sh selftest: narrow 9/10 win not unresolved: $out" >&2
        exit 1
    }
    echo "pairs.sh selftest: ok"
}

aa=0 parent= pairs=10 seed= workload=
while (($#)); do
    case $1 in
        --selftest)
            selftest
            exit 0
            ;;
        --aa) aa=1 ;;
        --parent) parent=${2:?--parent takes a revision} && shift ;;
        --pairs) pairs=${2:?--pairs takes a count} && shift ;;
        --seed) seed=${2:?--seed takes a number} && shift ;;
        -*)
            echo "unknown flag $1" >&2
            exit 2
            ;;
        *) workload=$1 ;;
    esac
    shift
done
# Exactly one of --parent and --aa names what the change runs against.
[[ -n $workload && -n $seed && ($aa == 1 && -z $parent || $aa == 0 && -n $parent) ]] || {
    echo "usage: scripts/pairs.sh (--parent REV | --aa) --seed S [--pairs N] WORKLOAD" >&2
    exit 2
}

dir=${PAIRS_DIR:-$root/target/pairs}
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)
build() { # build SRC TARGET_DIR: the turbobench binary of SRC
    CARGO_TARGET_DIR=$2 cargo build --release --quiet --manifest-path "$1/benchmark/Cargo.toml" >&2
    echo "$2/release/turbobench"
}
echo "==> building the change (working tree)" >&2
change_bin=$(build "$root" "$dir/change")
if [[ $aa == 1 ]]; then
    parent_bin=$change_bin
else
    echo "==> building the parent ($parent)" >&2
    # Re-extracted only when the tree differs, so a rerun rebuilds nothing.
    tree=$(git -C "$root" rev-parse "$parent^{tree}")
    if [[ $(cat "$dir/parent-src.tree" 2>/dev/null) != "$tree" ]]; then
        rm -rf "$dir/parent-src"
        mkdir -p "$dir/parent-src"
        git -C "$root" archive "$parent" | tar -x -C "$dir/parent-src"
        echo "$tree" >"$dir/parent-src.tree"
    fi
    parent_bin=$(build "$dir/parent-src" "$dir/parent")
fi

# run BIN SEED: the run's result line
run() {
    "$1" --workload "$workload" --seed "$2" --trace 0 | tail -n 1
}
# value LINE METRIC: the metric's value in a result line
value() {
    grep -oE "\"$2\": *\\{ *\"value\": *[^,} ]+" <<<"$1" | grep -oE '[^: ]+$'
}

runs=$dir/runs-$workload.tsv
: >"$runs"
printf 'pair seed %s\n' "$(printf '%s(parent->change) ' "${metrics[@]}")"
for ((i = 0; i < pairs; i++)); do
    s=$((seed + i))
    if ((i % 2 == 0)); then
        p=$(run "$parent_bin" "$s")
        c=$(run "$change_bin" "$s")
    else
        c=$(run "$change_bin" "$s")
        p=$(run "$parent_bin" "$s")
    fi
    row="$i $s"
    for m in "${metrics[@]}"; do
        pv=$(value "$p" "$m") cv=$(value "$c" "$m")
        echo "$i $m $pv $cv" >>"$runs"
        row+=" $pv->$cv"
    done
    for side in "$p" "$c"; do
        grep -q '"failed": *0[,}]' <<<"$side" || row+=" (failed: $(grep -oE '"failed": *[0-9]+' <<<"$side"))"
    done
    echo "$row"
done
echo "== $workload, $pairs pairs from seed $seed$([[ $aa == 1 ]] && echo ', A/A')"
verdicts <"$runs"
