//! Figure 8 — I/O traffic to the disks and the SSD over a full TPC-E run
//! (20K customers, DW design).
//!
//! Paper shape: disk reads start high (pool-fill expansion), drop sharply
//! once the pool fills, then the steady state is gated by the disks'
//! aggregate random traffic (~6.5 MB/s full scale) while the SSD stays far
//! below its capacity; checkpoint write spikes are visible in both write
//! series.

use turbopool_bench::run_hours;
use turbopool_iosim::{Time, MINUTE};
use turbopool_workload::runs::{run_oltp, Cell, OltpKind, RunOptions};
use turbopool_workload::scenario::{Design, PAGE_SIZE, SCALE};

/// Scaled pages-per-bucket → full-scale MB/s equivalent.
fn mbps(pages: u64, bucket: Time) -> f64 {
    let bytes = pages as f64 * PAGE_SIZE as f64;
    let secs = bucket as f64 / 1e9;
    bytes / secs / 1e6 * SCALE
}

fn render(name: &str, series: &[(Time, u64, u64)], bucket: Time) {
    println!("\n--- {name} (full-scale-equivalent MB/s) ---");
    println!("{:>6} {:>10} {:>10}", "hour", "read", "write");
    let step = (series.len() / 25).max(1);
    for chunk in series.chunks(step) {
        let h = chunk[0].0 as f64 / 3.6e12;
        let n = chunk.len() as u64;
        let r: u64 = chunk.iter().map(|c| c.1).sum::<u64>() / n;
        let w: u64 = chunk.iter().map(|c| c.2).sum::<u64>() / n;
        let rbar = "#".repeat(((mbps(r, bucket) / 2.0) as usize).min(40));
        println!(
            "{h:6.2} {:10.2} {:10.2}  {rbar}",
            mbps(r, bucket),
            mbps(w, bucket)
        );
    }
}

fn main() {
    let timer = turbopool_bench::WallTimer::start();
    println!("== Figure 8: device traffic, TPC-E 20K customers, DW ==");
    let bucket = 6 * MINUTE;
    let opts = RunOptions {
        io_series: Some(bucket),
        ..RunOptions::tpce()
    };
    let customers = if turbopool_bench::quick() { 500 } else { 2_000 };
    let cell = Cell::new(OltpKind::TpcE { customers }, Design::Dw, opts);
    let run = run_oltp(&[cell], run_hours()).runs.remove(0);
    render("(a) disks", &run.disk_series, bucket);
    render("(b) SSD", &run.ssd_series, bucket);
    let (disk, ssd) = (run.stats.disk, run.stats.ssd_dev);
    println!(
        "\nSteady-state disk totals: {} reads, {} writes; SSD: {} reads, {} writes.",
        disk.read_pages, disk.write_pages, ssd.read_pages, ssd.write_pages
    );
    println!("Paper: disks saturate ~6.5 MB/s of random traffic; SSD peaks ~46 MB/s read,");
    println!("far below its ~95 MB/s capability — the disks are the bottleneck.");
    turbopool_bench::BenchReport::new("fig8")
        .standard(timer.secs(), run_hours(), run.steps)
        .emit();
}
