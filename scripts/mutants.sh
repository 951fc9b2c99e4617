#!/usr/bin/env bash
# Mutation kit: measures what the test suite can see. Each mutant in
# scripts/mutants.txt is a one-place edit of the product code; it is applied
# alone to a clean copy of a revision and the workspace tests are run. A
# mutant the tests leave green is a missing test.
#
#   scripts/mutants.sh [REV]   run every mutant against REV (default HEAD)
#   scripts/mutants.sh --check only confirm that each mutant's old text occurs
#                              exactly once in the working tree; no build
#   --only PATH                (repeatable, with either form) take only the
#                              mutants whose file is PATH or lies under it
#
# The mutant list is always taken from this checkout, so a revision older
# than the list can be measured. A run copies it once, at its start, and
# reads only that copy: an edit to scripts/mutants.txt during a run takes
# effect from the next run on. Every mutant builds in one shared
# CARGO_TARGET_DIR (default: a directory next to the copy, removed on exit);
# a full run rebuilds the workspace once per mutant, ≈ 30 s each on two
# cores. Each test binary runs under a time limit of its own, so a mutant
# that makes a test loop costs at most that limit per binary it hangs (and
# the whole mutant at most 15 min); a timed-out binary kills the mutant.
# Output: one line per mutant — `red (killed by: TESTS; in: BINARIES)`,
# `green (survives)`, `refused (...)` or `build-error`, with the seconds
# its build and tests took — then the kill count. A binary stopped by its
# limit is marked `(timed out)`.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)

check=0
rev=HEAD
only=()
while (($#)); do
    case $1 in
        --check) check=1 ;;
        --only)
            only+=("${2:?--only takes a path}")
            shift
            ;;
        *) rev=$1 ;;
    esac
    shift
done

# wanted FILE: is FILE one of the --only paths or under one (all without)?
wanted() {
    ((${#only[@]} == 0)) && return 0
    local p
    for p in "${only[@]}"; do
        [[ $1 == "${p%/}" || $1 == "${p%/}"/* ]] && return 0
    done
    return 1
}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
list=$work/mutants.txt
cp "$root/scripts/mutants.txt" "$list"
if [[ $check == 1 ]]; then
    src=$root
else
    src=$work/src
    mkdir -p "$src"
    git -C "$root" archive "$rev" | tar -x -C "$src"
fi
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$work/target}

# mutate FILE CHECK: replace the mutant's old text (env MUT_OLD) with its
# new text (env MUT_NEW) in FILE if it occurs exactly once; with CHECK=1
# only count. Prints the occurrence count when it is not one.
mutate() {
    perl -e '
        my ($file, $check) = @ARGV;
        sub unescape { my $s = shift; $s =~ s/\\n/\n/g; $s }
        my ($old, $new) = (unescape($ENV{MUT_OLD}), unescape($ENV{MUT_NEW}));
        open(my $fh, "<", $file) or do { print "missing file"; exit 1 };
        my $text = do { local $/; <$fh> };
        close $fh;
        my ($n, $at, $from) = (0, -1, 0);
        while ((my $i = index($text, $old, $from)) >= 0) { $n++; $at = $i; $from = $i + 1 }
        if ($n != 1) { print "old text occurs $n times"; exit 1 }
        exit 0 if $check;
        substr($text, $at, length $old) = $new;
        open($fh, ">", $file) or die "$file: $!";
        print $fh $text;
        close $fh;
    ' "$1" "$2"
}

# Per test binary: the slowest unmutated one, paper_shape, takes ≈ 11 s in
# the dev profile on two cores.
bin_limit=120
host=$(rustc -vV | sed -n 's/^host: //p')
runner="CARGO_TARGET_$(tr 'a-z-' 'A-Z_' <<<"$host")_RUNNER"

run_tests() {
    (cd "$src" && env "$runner=timeout $bin_limit" timeout 900 \
        cargo test -q --no-fail-fast --workspace 2>&1)
}

# The test binaries that failed, as cargo's rerun hint names them
# (`-p turbopool --test paper_shape`), one stopped by its limit marked.
failed_bins() {
    awk '
        function add(b) { list = list sep b; sep = ", " }
        /^error: test failed, to rerun pass `/ {
            if (bin != "") add(bin)
            bin = $0; sub(/^[^`]*`/, "", bin); sub(/`$/, "", bin)
        }
        /^  process didn.t exit successfully: .*\(exit status: 124\)$/ && bin != "" {
            add(bin " (timed out)"); bin = ""
        }
        END { if (bin != "") add(bin); print list }
    '
}

if [[ $check == 0 ]]; then
    echo "baseline $rev: building and testing the unmutated copy"
    if ! out=$(run_tests); then
        echo "$out" | tail -40
        echo "baseline is red: the mutants would measure nothing" >&2
        exit 1
    fi
fi

total=0
killed=0
bad=0
while IFS=$'\t' read -r name file old new; do
    [[ -z $name || $name == \#* ]] && continue
    wanted "$file" || continue
    total=$((total + 1))
    if [[ $check == 1 ]]; then
        if ! why=$(MUT_OLD=$old MUT_NEW=$new mutate "$src/$file" 1); then
            echo "$name: refused ($file: $why)"
            bad=$((bad + 1))
        fi
        continue
    fi
    cp "$src/$file" "$work/original"
    if ! why=$(MUT_OLD=$old MUT_NEW=$new mutate "$src/$file" 0); then
        echo "$name: refused ($file: $why)"
        bad=$((bad + 1))
        continue
    fi
    started=$SECONDS
    if out=$(run_tests); then
        verdict="green (survives)"
    elif grep -q 'could not compile' <<<"$out"; then
        verdict=build-error
        bad=$((bad + 1))
    else
        failed=$(sed -n 's/^---- \(.*\) stdout ----$/\1/p' <<<"$out" | sort -u | tr '\n' ' ')
        bins=$(failed_bins <<<"$out")
        verdict="red (killed by: ${failed:-no test that reported}; in: ${bins:-the whole run, cut at 15 min})"
        killed=$((killed + 1))
    fi
    echo "$name: $verdict, $((SECONDS - started)) s"
    cp "$work/original" "$src/$file"
done <"$list"

if [[ $check == 1 ]]; then
    echo "$((total - bad)) of $total mutants apply to the working tree"
else
    echo "killed $killed of $total mutants at $rev"
fi
[[ $bad == 0 ]]
