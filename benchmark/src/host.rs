//! Everything that touches the host: the wall clock, peak memory, and a
//! calibration loop that tells a slow machine from a slow program.
//!
//! Host time is what the simulator costs on this machine; it is noisy.
//! Virtual time (`Clk::now`) is what the modelled hardware would take; it
//! repeats exactly for a fixed seed. The two never mix in one metric.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds of host wall-clock since the first call. The single
/// wall-clock read of `benchmark/`.
pub fn wall_ns() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    // lint: allow(wallclock) — the benchmark exists to measure the simulator's host time; nothing here feeds the simulation
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Peak resident set size of this process (`VmHWM`), in MiB; 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed pure-CPU loop (xorshift, no memory traffic), in milliseconds.
/// This shared host drifts by ±10% and more between runs; compare the
/// loop's readings before blaming the program for a slow `drive_s`.
pub fn calib_ms() -> f64 {
    let t0 = wall_ns();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    (wall_ns() - t0) as f64 / 1e6
}

/// Cost of one `wall_ns()` call: every nanosecond-scale span carries about
/// this much of the timer itself.
pub fn timer_ns() -> f64 {
    const N: u64 = 200_000;
    let t0 = wall_ns();
    for _ in 0..N {
        std::hint::black_box(wall_ns());
    }
    (wall_ns() - t0) as f64 / N as f64
}

pub fn cores() -> f64 {
    std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)
}

/// `benchmark/out/`: traces and suite results. `cargo run` and `cargo test`
/// export the manifest directory; a bare binary is expected to run from the
/// repository root (where the driver runs the command) or from `benchmark/`.
pub fn out_dir() -> PathBuf {
    let base = match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => PathBuf::from(dir),
        None if std::path::Path::new("benchmark/Cargo.toml").exists() => PathBuf::from("benchmark"),
        None => PathBuf::from("."),
    };
    base.join("out")
}
