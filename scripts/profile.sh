#!/usr/bin/env bash
# Sampling profile of one benchmark workload, with no `perf`: where the host
# time of the drive loop goes, by function.
#
#   scripts/profile.sh <workload> [seconds]   e.g. scripts/profile.sh tpce_dw 10
#
# Builds turbobench with frame pointers and line tables into its own target
# directory (PROFILE_TARGET_DIR, default target/profile), preloads a small
# sampler compiled with `cc`, and runs `--workload <workload> --seed 1
# --seconds <seconds> --trace 0` (default 10 s). The sampler arms
# setitimer(ITIMER_PROF) on its own process only, at 1 ms of its CPU time;
# the kernel rounds that up to its tick (4 ms where HZ is 250, so a 10 s
# run of tpce_dw gives about 700 samples). Each sample is the interrupted
# instruction pointer and the frame-pointer chain of the main thread's
# stack; at exit the samples and /proc/self/maps go to PROF_OUT. The samples are symbolized with
# `nm -C` against the binary's load bias; the report covers the samples under
# the driver's `run_until` (the drive loop, not setup) and prints the top
# functions by self and by inclusive share, with each top self function's
# hottest line from `addr2line`. libc is stripped, so a leaf sample in it is
# shown as `libc` under its first caller with a symbol.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)

workload=${1:?usage: scripts/profile.sh <workload> [seconds]}
seconds=${2:-10}
for tool in cc nm addr2line perl; do
    command -v "$tool" >/dev/null || {
        echo "profile.sh needs '$tool', which is not installed" >&2
        exit 1
    }
done

target=${PROFILE_TARGET_DIR:-$root/target/profile}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "building turbobench with frame pointers into $target" >&2
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    CARGO_TARGET_DIR=$target \
    cargo build --release --quiet --manifest-path "$root/benchmark/Cargo.toml"
bin=$target/release/turbobench

cat >"$work/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define WORDS (1 << 23)
#define DEPTH 128
static uintptr_t words[WORDS]; /* per sample: frame count, then the frames */
static size_t used;
static uintptr_t lo, hi;       /* the main thread's stack */

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig, (void)si;
    greg_t *r = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    if (used + DEPTH + 2 > WORDS) return;
    size_t head = used++, n = 1;
    words[used++] = r[REG_RIP];
    for (uintptr_t fp = r[REG_RBP]; n < DEPTH && fp >= lo && fp + 16 <= hi && fp % 8 == 0; n++) {
        uintptr_t *frame = (uintptr_t *)fp;
        words[used++] = frame[1];
        if (frame[0] <= fp) { n++; break; }
        fp = frame[0];
    }
    words[head] = n;
}

__attribute__((constructor)) static void start(void) {
    if (!getenv("PROF_OUT")) return;
    pthread_attr_t a; void *base; size_t size;
    pthread_getattr_np(pthread_self(), &a);
    pthread_attr_getstack(&a, &base, &size);
    lo = (uintptr_t)base, hi = lo + size;
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void stop(void) {
    const char *path = getenv("PROF_OUT");
    FILE *out = path ? fopen(path, "w") : NULL;
    if (!out) return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    for (size_t i = 0; i < used; i += words[i] + 1, fputc('\n', out))
        for (size_t j = 1; j <= words[i]; j++) fprintf(out, "%lx ", (unsigned long)words[i + j]);
    fputs("maps\n", out);
    FILE *maps = fopen("/proc/self/maps", "r");
    for (int c; maps && (c = fgetc(maps)) != EOF;) fputc(c, out);
    if (maps) fclose(maps);
    fclose(out);
}
EOF
cc -O2 -shared -fPIC -o "$work/sampler.so" "$work/sampler.c"

echo "profiling $workload for $seconds s" >&2
PROF_OUT=$work/samples LD_PRELOAD=$work/sampler.so \
    "$bin" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 >/dev/null
nm -C --defined-only "$bin" >"$work/syms"

perl - "$bin" "$work/samples" "$work/syms" <<'EOF'
use strict;
use warnings;
no warnings 'portable'; # 64-bit addresses
use Cwd 'realpath';
my ($bin, $samples, $syms) = @ARGV;
$bin = realpath($bin);

# Text symbols, sorted by address, without their hash suffixes.
my (@addr, %name);
open(my $fh, '<', $syms) or die;
my %seen;
for (<$fh>) {
    next unless /^([0-9a-f]+) [tTwW] (.*)$/;
    my ($a, $n) = (hex $1, $2);
    $n =~ s/::h[0-9a-f]{16}$//;
    push @addr, $a unless $seen{$a}++;
    $name{$a} //= $n;
}
@addr = sort { $a <=> $b } @addr;

# The samples, then the maps at exit.
my (@stacks, @maps);
open($fh, '<', $samples) or die "no samples: did the run exit normally?";
my $in_maps = 0;
for (<$fh>) {
    chomp;
    if ($_ eq 'maps') { $in_maps = 1; next }
    if ($in_maps) { push @maps, [hex $1, hex $2, hex $3, $4 // ''] if /^([0-9a-f]+)-([0-9a-f]+) \S+ ([0-9a-f]+) \S+ \S+\s*(.*)$/ }
    else { push @stacks, [map { hex } split ' '] }
}

# Load bias: where the binary's first byte was mapped, for a position-
# independent executable (ELF type 3); none for a fixed one.
open(my $elf, '<:raw', $bin) or die;
read($elf, my $hdr, 18);
my $pie = unpack('v', substr($hdr, 16, 2)) == 3;
my ($bias) = map { $_->[0] } grep { $_->[3] eq $bin && $_->[2] == 0 } @maps;
$bias = 0 unless $pie && defined $bias;

sub region {
    my $a = shift;
    for (@maps) { return $_->[3] if $a >= $_->[0] && $a < $_->[1] }
    '';
}
sub symbol {
    my $a = shift;
    my $path = region($a);
    return 'libc' if $path =~ m{/libc[.-]};
    return "[$path]" if $path ne $bin;
    my $rel = $a - $bias;
    my ($l, $h) = (0, $#addr);
    return '?' if $h < 0 || $rel < $addr[0];
    while ($l < $h) { my $m = ($l + $h + 1) >> 1; if ($addr[$m] <= $rel) { $l = $m } else { $h = $m - 1 } }
    $name{$addr[$l]};
}

my $drive = qr/driver::D\w+::run_until$/;
my ($total, $under) = (scalar @stacks, 0);
my (%self, %incl, %leaf_ip);
for my $s (@stacks) {
    # Return addresses point past their call: look up the call itself.
    my @f = map { symbol($_ == 0 ? $s->[0] : $s->[$_] - 1) } 0 .. $#$s;
    my ($top) = grep { $f[$_] =~ $drive } 0 .. $#f;
    next unless defined $top;
    $under++;
    my $leaf = $f[0];
    if ($leaf eq 'libc') {
        my ($caller) = grep { $_ ne 'libc' } @f[1 .. $top];
        $leaf = 'libc (under ' . ($caller // '?') . ')';
    } else {
        $leaf_ip{$leaf}{$s->[0]}++;
    }
    $self{$leaf}++;
    my %once;
    $incl{$_}++ for grep { !$once{$_}++ } @f[0 .. $top];
}
printf "%d samples, %d under run_until (%.0f%%)\n", $total, $under, 100 * $under / ($total || 1);
exit 0 unless $under;

sub top {
    my ($title, $h) = @_;
    print "\n$title\n";
    my @k = (sort { $h->{$b} <=> $h->{$a} || $a cmp $b } keys %$h)[0 .. 24];
    for my $k (grep { defined } @k) {
        my $line = '';
        if ($title =~ /^self/ && $leaf_ip{$k}) {
            my ($ip) = sort { $leaf_ip{$k}{$b} <=> $leaf_ip{$k}{$a} } keys %{$leaf_ip{$k}};
            # Innermost inlined frame first; show the first in this repo.
            my @at = `addr2line -i -e '$bin' ${\ sprintf('%x', $ip - $bias)}`;
            chomp @at;
            my ($at) = (grep({ m{/(crates|benchmark)/} } @at), @at);
            $at =~ s{.*/(crates|benchmark)/}{$1/};
            $line = "  [$at]";
        }
        printf "%6.2f%%  %s%s\n", 100 * $h->{$k} / $under, $k, $line;
    }
}
top('self share of the drive samples (hottest line)', \%self);
top('inclusive share of the drive samples', \%incl);
EOF
