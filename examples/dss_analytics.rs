//! DSS analytics: the TPC-H-lite power test with per-query timings, then
//! the throughput test and QphH.
//!
//! Shows where the SSD helps a scan-dominated workload: the full-scan
//! queries are unchanged (striped disks out-stream the SSD), while the
//! index-lookup queries collapse from disk-seek-bound to SSD-latency-bound
//! — the effect behind the paper's §4.4 results.
//!
//! ```sh
//! cargo run --release --example dss_analytics [scale_factor]
//! ```

use turbopool::iosim::SECOND;
use turbopool::workload::runs::run_tpch;
use turbopool::workload::scenario::Design;

fn main() {
    let sf: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);
    println!(
        "TPC-H-lite power test, scale factor {sf} (~{:.0} GB equivalent)\n",
        sf as f64 * 1.5
    );

    let secs = |t: u64| t as f64 / SECOND as f64;
    let runs = run_tpch(sf, 4, &[Design::NoSsd, Design::Lc]);
    for run in &runs {
        let total: u64 = run.power.timings.iter().map(|(_, t)| t).sum();
        println!(
            "{:>6}: Power@{sf}SF = {:.0}  (total virtual time {:.0}s)",
            run.design.label(),
            run.power.power,
            secs(total)
        );
    }

    println!(
        "\n{:>5} {:>12} {:>12} {:>8}",
        "query", "noSSD (s)", "LC (s)", "speedup"
    );
    let (nossd, lc) = (&runs[0].power.timings, &runs[1].power.timings);
    for ((name, nossd), (_, lc)) in nossd.iter().zip(lc) {
        let (nossd, lc) = (secs(*nossd), secs(*lc));
        println!(
            "{name:>5} {nossd:>12.1} {lc:>12.1} {:>7.1}x",
            nossd / lc.max(1e-9)
        );
    }
    println!("\nScan-shaped queries (Q1, Q6, Q14, Q15) barely move; index-lookup queries");
    println!("(Q4, Q9, Q12, Q17-Q21) speed up by an order of magnitude once their random");
    println!("LINEITEM reads come from the SSD instead of the disk arms.");

    println!("\nThroughput test (4 streams) and QphH:");
    for run in &runs {
        let (design, tput, qphh) = (run.design.label(), run.throughput, run.qphh);
        println!("{design:>6}: Throughput@{sf}SF = {tput:.0}  QphH@{sf}SF = {qphh:.0}");
    }
}
