//! Figure 6 — full 10-hour throughput-vs-time curves.
//!
//! (a) TPC-C 2K warehouses, (b) TPC-C 4K warehouses,
//! (c) TPC-E 20K customers, (d) TPC-E 40K customers;
//! each with LC, DW, TAC and noSSD. Six-minute buckets, like the paper.
//!
//! The four designs of each panel are one `runs::run_oltp` list:
//! they run *concurrently* as share-nothing driver domains, one OS thread
//! each — results are bit-identical to running them one at a time, only
//! wall-clock time changes.
//!
//! Expected shape (paper §4.2.1 / §4.3.1):
//! * LC on TPC-C climbs steeply, then drops when the dirty SSD pages cross
//!   the λ=50% threshold (~1:50h at 2K, ~2:30h at 4K) and the cleaner
//!   starts consuming disk bandwidth.
//! * TPC-E ramps slowly (the SSD fills at the random-read speed of the
//!   disks); checkpoint dips every ~40 minutes.

use turbopool_bench::{print_digest, render_series, run_hours, WallTimer};
use turbopool_iosim::Time;
use turbopool_workload::runs::{run_oltp, Cell, OltpKind, RunOptions};
use turbopool_workload::scenario::Design;

const DESIGNS: [Design; 4] = [Design::Lc, Design::Dw, Design::Tac, Design::NoSsd];

/// Run panel `name` (its label starts with the panel's letter, `(a)`) and
/// print its curves; returns the steps it drove.
fn panel(name: &str, kind: OltpKind, opts: RunOptions, hours: Time) -> u64 {
    println!("\n== Figure 6 {name} ==");
    let cells: Vec<Cell> = DESIGNS.iter().map(|&d| Cell::new(kind, d, opts)).collect();
    let set = run_oltp(&cells, hours);
    for run in &set.runs {
        println!(
            "\n--- {} (last-hour rate {:.2}/min) ---",
            run.design.label(),
            run.last_hour_per_min
        );
        print!("{}", render_series(&run.series, 25));
    }
    for run in &set.runs {
        let label = format!("{} {}", &name[..3], run.design.label());
        print_digest(&label, run.stats.digest(run.steps));
    }
    set.steps
}

fn main() {
    let hours = run_hours();
    let quick = turbopool_bench::quick();
    let timer = WallTimer::start();
    let mut steps = 0u64;

    let (tpcc, tpce) = (RunOptions::tpcc(), RunOptions::tpce());
    let all = [
        (
            "(a): TPC-C 2K warehouses (tpmC*)",
            OltpKind::TpcC { warehouses: 20 },
            tpcc,
        ),
        (
            "(b): TPC-C 4K warehouses (tpmC*)",
            OltpKind::TpcC { warehouses: 40 },
            tpcc,
        ),
        (
            "(c): TPC-E 20K customers (trades/min*)",
            OltpKind::TpcE { customers: 2_000 },
            tpce,
        ),
        (
            "(d): TPC-E 40K customers (trades/min*)",
            OltpKind::TpcE { customers: 4_000 },
            tpce,
        ),
    ];
    for &(name, kind, opts) in if quick { &all[..1] } else { &all[..] } {
        steps += panel(name, kind, opts, hours);
    }
    println!("\n(*scaled rates; shapes and crossover times are the comparable quantities.)");
    timer.print_timing("fig6", steps);
}
