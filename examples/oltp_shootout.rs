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

use std::sync::Arc;

use turbopool::iosim::{HOUR, MINUTE};
use turbopool::workload::driver::{CleanerClient, Driver, ThroughputRecorder};
use turbopool::workload::scenario::Design;
use turbopool::workload::tpcc::Tpcc;

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
    println!(
        "{:>6}  {:>14}  {:>9}  {:>8}  {:>9}  {:>10}",
        "design", "tpmC (last h)", "speedup", "ssd hit%", "dirty hit%", "wall time"
    );

    let mut base = 0.0;
    for design in [
        Design::NoSsd,
        Design::Cw,
        Design::Dw,
        Design::Tac,
        Design::Lc,
    ] {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall clock on purpose: reports how long the host takes to simulate \
                      each design, next to the virtual-time throughput it measures"
        )]
        let wall = std::time::Instant::now();
        let t = Arc::new(Tpcc::setup(design, warehouses, 0.5));
        let tpmc = ThroughputRecorder::new(6 * MINUTE);
        let mut driver = Driver::new();
        for c in 0..25 {
            driver.add(0, Box::new(t.client(c, Arc::clone(&tpmc))));
        }
        if let Some(cleaner) = CleanerClient::for_db(&t.db) {
            driver.add(0, Box::new(cleaner));
        }
        let dur = hours * HOUR;
        driver.run_until(dur);

        let rate = tpmc.rate_between(dur.saturating_sub(HOUR), dur, MINUTE);
        if base == 0.0 {
            base = rate;
        }
        let m = t.db.ssd_metrics().unwrap_or_default();
        println!(
            "{:>6}  {:>14.2}  {:>8.1}x  {:>7.0}%  {:>9.0}%  {:>9.1}s",
            design.label(),
            rate,
            rate / base.max(1e-9),
            m.hit_rate() * 100.0,
            m.dirty_hit_fraction() * 100.0,
            wall.elapsed().as_secs_f64(),
        );
    }
    println!("\nPaper (Figure 5b, 2K warehouses): DW 1.9x, LC 9.4x, TAC 1.4x over noSSD.");
    println!("The write-back design wins on update-intensive, skewed OLTP because dirty");
    println!("pages are re-referenced and re-dirtied in the SSD instead of going to disk.");
}
