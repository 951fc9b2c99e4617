//! Shared infrastructure for the benchmark harnesses.
//!
//! Every table and figure of the paper has a `harness = false` bench
//! target in `benches/` that prints the same rows/series the paper
//! reports, next to the paper's numbers. This library holds the pieces
//! they share: experiment runners (OLTP runs with checkpointer/cleaner
//! pseudo-clients attached) and plain-text table/series rendering.
//!
//! Environment knobs:
//!
//! * `TURBO_HOURS` — virtual hours per OLTP run (default 10, the paper's
//!   duration; smaller values finish faster with the same early shape).
//! * `TURBO_QUICK` — if set, shrinks runs for smoke testing.
//!
//! Multi-design runs take one OS thread per design (`run_oltp_set`).

pub mod json;
pub mod report;
pub mod runs;

pub use json::{BenchReport, Json, WallTimer};
pub use report::{fmt_hours, render_series, Table};
pub use runs::{run_oltp, run_oltp_set, OltpKind, OltpRun, OltpSet, RunOptions};

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

/// True when running in smoke-test mode.
pub fn quick() -> bool {
    std::env::var_os("TURBO_QUICK").is_some()
}
