//! Shared infrastructure for the benchmark harnesses.
//!
//! Every table and figure of the paper has a `harness = false` bench
//! target in `benches/` that prints the same rows/series the paper
//! reports, next to the paper's numbers. The TPC-C/E/H cells themselves
//! run through `turbopool_workload::runs` (`run_oltp` over a list
//! of cells, `run_tpch` over a list of designs), the same runner the CLI
//! and the examples use; this library holds what only the harnesses
//! need: run-length knobs, plain-text table/series rendering and the
//! `BENCH_<name>.json` report.
//!
//! Environment knobs:
//!
//! * `TURBO_HOURS` — virtual hours per OLTP run (default 10, the paper's
//!   duration; smaller values finish faster with the same early shape).
//! * `TURBO_QUICK` — if set, shrinks runs for smoke testing.
//!
//! A list runs each cell in a share-nothing driver domain of its own,
//! one OS thread per cell.

pub mod json;
pub mod report;

pub use json::{BenchReport, Json, WallTimer};
pub use report::{fmt_hours, render_series, Table};

use turbopool_iosim::{Time, HOUR};

/// Virtual duration of OLTP runs, honoring `TURBO_HOURS` / `TURBO_QUICK`.
pub fn run_hours() -> Time {
    if std::env::var_os("TURBO_QUICK").is_some() {
        return HOUR;
    }
    let hours: f64 = std::env::var("TURBO_HOURS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10.0);
    (hours * HOUR as f64) as Time
}

/// TPC-H scale factors with their throughput-test stream counts (paper
/// Table 3): SF 30 with 4 streams and SF 100 with 5; SF 30 alone under
/// `TURBO_QUICK`. Figure 5 (g,h) and Table 3 are views of these runs.
pub fn tpch_scales() -> &'static [(u64, usize)] {
    &[(30, 4), (100, 5)][..if quick() { 1 } else { 2 }]
}

/// True when running in smoke-test mode.
pub fn quick() -> bool {
    std::env::var_os("TURBO_QUICK").is_some()
}
