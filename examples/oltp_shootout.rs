//! OLTP shootout: the paper's headline TPC-C comparison in miniature.
//!
//! Runs the TPC-C-lite workload (2K-warehouse-equivalent database) under
//! all five configurations — noSSD, CW, DW, LC, TAC — for a few virtual
//! hours and prints the steady-state tpmC and speedups, like Figure 5
//! (a–c).
//!
//! ```sh
//! cargo run --release --example oltp_shootout [virtual_hours] [warehouses]
//! ```

use turbopool::iosim::HOUR;
use turbopool::workload::runs::{run_oltp, Cell, OltpKind, RunOptions};
use turbopool::workload::scenario::Design;

fn main() {
    let hours: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let warehouses: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    println!(
        "TPC-C-lite, {warehouses} scaled warehouses (~{} GB equivalent), {hours} virtual hours, λ=50%\n",
        warehouses * 10
    );
    // One list: each design runs in a share-nothing domain of its own.
    let cells = [
        Design::NoSsd,
        Design::Cw,
        Design::Dw,
        Design::Tac,
        Design::Lc,
    ]
    .map(|d| Cell::new(OltpKind::TpcC { warehouses }, d, RunOptions::tpcc()));
    let set = run_oltp(&cells, hours * HOUR);

    println!(
        "{:>6}  {:>14}  {:>9}  {:>8}  {:>9}",
        "design", "tpmC (last h)", "speedup", "ssd hit%", "dirty hit%"
    );
    let base = set.runs[0].last_hour_per_min;
    for run in &set.runs {
        let rate = run.last_hour_per_min;
        let m = run.stats.ssd.unwrap_or_default();
        println!(
            "{:>6}  {:>14.2}  {:>8.1}x  {:>7.0}%  {:>9.0}%",
            run.design.label(),
            rate,
            rate / base.max(1e-9),
            m.hit_rate() * 100.0,
            m.dirty_hit_fraction() * 100.0,
        );
    }
    println!(
        "\n{} designs simulated together in {:.1}s of wall time (drive phase).",
        set.runs.len(),
        set.drive_secs
    );
    println!("\nPaper (Figure 5b, 2K warehouses): DW 1.9x, LC 9.4x, TAC 1.4x over noSSD.");
    println!("The write-back design wins on update-intensive, skewed OLTP because dirty");
    println!("pages are re-referenced and re-dirtied in the SSD instead of going to disk.");
}
