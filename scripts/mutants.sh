#!/usr/bin/env bash
# Mutation kit: measures what the test suite can see. Each mutant in
# scripts/mutants.txt is a one-place edit of the product code; it is applied
# alone to a clean copy of a revision and the workspace tests are run. A
# mutant the tests leave green is a missing test.
#
#   scripts/mutants.sh [REV]   run every mutant against REV (default HEAD)
#   scripts/mutants.sh --check only confirm that each mutant's old text occurs
#                              exactly once in the working tree; no build
#
# The mutant list is always read from this checkout, so a revision older
# than the list can be measured. Every mutant builds in one shared
# CARGO_TARGET_DIR (default: a directory next to the copy, removed on exit);
# a full run rebuilds the workspace once per mutant, ≈ 1 min each on two
# cores. Output: one line per mutant — `red (killed by: ...)`, `green
# (survives)`, `refused (...)` or `build-error` — then the kill count.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
list="$root/scripts/mutants.txt"

check=0
rev=${1:-HEAD}
[[ $rev == --check ]] && check=1

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
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

run_tests() {
    (cd "$src" && timeout 900 cargo test -q --no-fail-fast --workspace 2>&1)
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
    if out=$(run_tests); then
        echo "$name: green (survives)"
    elif grep -q 'could not compile' <<<"$out"; then
        echo "$name: build-error"
        bad=$((bad + 1))
    else
        failed=$(sed -n 's/^---- \(.*\) stdout ----$/\1/p' <<<"$out" | sort -u | tr '\n' ' ')
        echo "$name: red (killed by: ${failed:-a test binary that did not report})"
        killed=$((killed + 1))
    fi
    cp "$work/original" "$src/$file"
done <"$list"

if [[ $check == 1 ]]; then
    echo "$((total - bad)) of $total mutants apply to the working tree"
else
    echo "killed $killed of $total mutants at $rev"
fi
[[ $bad == 0 ]]
