//! Shared infrastructure for the benchmark harnesses.
//!
//! Every table and figure of the paper has a `harness = false` bench
//! target in `benches/`, or is a view of the `paper` target's one table
//! of cells ([`paper`]), printed next to the paper's numbers. The cells
//! run through `turbopool_workload::runs` (`run_oltp` over a list
//! of cells, `run_tpch` over a list of designs), the same runner the CLI
//! and the examples use; this library holds what only the harnesses
//! need: run-length knobs, plain-text table/series rendering and the
//! summary lines:
//!
//! * `digest <cell> <hex>` — one per cell that owns a database,
//!   `workload::runs::DbStats::digest` of its counters and driver steps. Deterministic,
//!   so `scripts/figures.sh` compares them with the rest of the output.
//! * `timing <bench> wall_s=… steps=… steps_per_s=…` — the bench's last
//!   line and its one wall-clock line (`paper` prints one per cell group
//!   first), which `scripts/figures.sh` cuts from the compared text and
//!   prints as a `results/trajectory.tsv` row.
//! * `view <name>` — `paper`'s line before each golden file's text.
//!
//! A check that needs neither a paper figure nor a wall clock is a tier-1
//! test, not a bench target; each `micro` rung names the open ROADMAP.md
//! item that reads it.
//!
//! Environment knobs:
//!
//! * `TURBO_HOURS` — virtual hours per OLTP run (default 10, the paper's
//!   duration; smaller values finish faster with the same early shape).
//! * `TURBO_QUICK` — if set, shrinks runs for smoke testing.
//!
//! A list runs each cell in a share-nothing driver domain of its own,
//! one OS thread per cell.

pub mod paper;
pub mod report;

pub use report::{render_series, Table};

use turbopool_iosim::{Time, HOUR};

/// Wall-clock stopwatch for the `timing` line, the one wall-clock reader
/// in library code (`clippy.toml` disallows `Instant::now` elsewhere): wall
/// seconds never feed back into the simulation.
pub struct WallTimer {
    start: std::time::Instant,
}

impl WallTimer {
    #[allow(clippy::new_without_default)]
    #[expect(
        clippy::disallowed_methods,
        reason = "bench reporting measures real elapsed time by definition; \
                  the value never influences virtual-time results"
    )]
    pub fn start() -> Self {
        WallTimer {
            start: std::time::Instant::now(),
        }
    }

    /// Seconds since `start()`.
    fn secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Print `bench`'s closing `timing` line: wall seconds since `start()`,
    /// the driver `steps` it ran and their rate.
    pub fn print_timing(&self, bench: &str, steps: u64) {
        let wall = self.secs();
        let rate = if wall > 0.0 { steps as f64 / wall } else { 0.0 };
        println!("\ntiming {bench} wall_s={wall:.3} steps={steps} steps_per_s={rate:.0}");
    }
}

/// Print cell `label`'s `digest` line: a `DbStats::digest` of its end
/// counters and driver steps.
pub fn print_digest(label: &str, digest: u64) {
    println!("digest {label} {digest:016x}");
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_timer_is_monotonic() {
        let t = WallTimer::start();
        assert!(t.secs() >= 0.0);
    }
}
