//! Figure 9 — effect of the checkpoint interval (40 min vs 5 h) on DW and
//! LC, TPC-E 20K customers.
//!
//! Paper shape:
//! * DW: frequent checkpoints help while the SSD is filling (checkpointed
//!   random pages are mirrored into the SSD, §3.2); once full, the long
//!   interval wins because checkpoint floods stop displacing useful pages.
//! * LC with a 5-hour interval runs ahead until the first checkpoint,
//!   which then takes very long (all accumulated dirty SSD pages must be
//!   flushed) and throughput collapses for the duration.

use turbopool_bench::{
    render_series, run_hours, run_oltp, BenchReport, OltpKind, RunOptions, WallTimer,
};
use turbopool_iosim::{HOUR, MINUTE};
use turbopool_workload::scenario::Design;

fn main() {
    let timer = WallTimer::start();
    // The paper runs this for 13 hours; honor TURBO_HOURS but add the
    // extra 3 hours so the post-first-checkpoint behaviour of LC-5h shows.
    let hours = run_hours()
        + if turbopool_bench::quick() {
            0
        } else {
            3 * HOUR
        };
    let customers = if turbopool_bench::quick() { 500 } else { 2_000 };
    println!(
        "== Figure 9: checkpoint interval 40 min vs 5 h (TPC-E {customers} scaled customers) =="
    );

    let mut steps = 0;
    for (panel, design) in [("(a) DW", Design::Dw), ("(b) LC", Design::Lc)] {
        println!("\n=== {panel} ===");
        for (label, interval, lambda) in [
            ("40 min", 40 * MINUTE, 0.01),
            // With the long interval the paper raises λ to 50% so LC can
            // actually accumulate dirty pages between checkpoints.
            ("5 hours", 5 * HOUR, 0.50),
        ] {
            let opts = RunOptions {
                duration: hours,
                checkpoint: Some(interval),
                lambda: if design == Design::Lc { lambda } else { 0.01 },
                ..RunOptions::tpce(hours)
            };
            let run = run_oltp(OltpKind::TpcE { customers }, design, &opts);
            steps += run.steps;
            println!(
                "\n--- checkpoint every {label} (last-hour rate {:.2}/min, checkpoint-cleaned SSD pages {}) ---",
                run.last_hour_per_min,
                run.ssd.map(|m| m.checkpoint_cleaned).unwrap_or(0),
            );
            print!("{}", render_series(&run.series, 22));
        }
    }
    BenchReport::new("fig9")
        .standard(timer.secs(), hours.saturating_mul(4), steps)
        .emit();
}
