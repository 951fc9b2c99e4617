//! Figure 6 — full 10-hour throughput-vs-time curves.
//!
//! (a) TPC-C 2K warehouses, (b) TPC-C 4K warehouses,
//! (c) TPC-E 20K customers, (d) TPC-E 40K customers;
//! each with LC, DW, TAC and noSSD. Six-minute buckets, like the paper.
//!
//! The four designs of each panel run *concurrently* as share-nothing
//! driver domains (`run_oltp_set`), one OS thread each — results are
//! bit-identical to running them one at a time, only wall-clock time
//! changes.
//!
//! Expected shape (paper §4.2.1 / §4.3.1):
//! * LC on TPC-C climbs steeply, then drops when the dirty SSD pages cross
//!   the λ=50% threshold (~1:50h at 2K, ~2:30h at 4K) and the cleaner
//!   starts consuming disk bandwidth.
//! * TPC-E ramps slowly (the SSD fills at the random-read speed of the
//!   disks); checkpoint dips every ~40 minutes.

use turbopool_bench::{
    render_series, run_hours, run_oltp_set, BenchReport, Json, OltpKind, RunOptions, WallTimer,
};
use turbopool_workload::scenario::Design;

const DESIGNS: [Design; 4] = [Design::Lc, Design::Dw, Design::Tac, Design::NoSsd];

fn panel(name: &str, kind: OltpKind, opts: &RunOptions) -> (Json, u64) {
    println!("\n== Figure 6 {name} ==");
    let set = run_oltp_set(kind, &DESIGNS, opts);
    let mut rates = Vec::new();
    for run in &set.runs {
        println!(
            "\n--- {} (last-hour rate {:.2}/min) ---",
            run.design.label(),
            run.last_hour_per_min
        );
        print!("{}", render_series(&run.series, 25));
        rates.push((
            run.design.label().to_string(),
            Json::Num(run.last_hour_per_min),
        ));
    }
    let entry = Json::Obj(vec![
        ("panel".to_string(), Json::Str(name.to_string())),
        ("drive_secs".to_string(), Json::Num(set.drive_secs)),
        ("steps".to_string(), Json::Int(set.steps)),
        ("last_hour_per_min".to_string(), Json::Obj(rates)),
    ]);
    (entry, set.steps)
}

fn main() {
    let hours = run_hours();
    let quick = turbopool_bench::quick();
    let timer = WallTimer::start();
    let mut panels = Vec::new();
    let mut steps = 0u64;

    let (entry, s) = panel(
        "(a): TPC-C 2K warehouses (tpmC*)",
        OltpKind::TpcC { warehouses: 20 },
        &RunOptions::tpcc(hours),
    );
    panels.push(entry);
    steps += s;
    if !quick {
        for (name, kind, opts) in [
            (
                "(b): TPC-C 4K warehouses (tpmC*)",
                OltpKind::TpcC { warehouses: 40 },
                RunOptions::tpcc(hours),
            ),
            (
                "(c): TPC-E 20K customers (trades/min*)",
                OltpKind::TpcE { customers: 2_000 },
                RunOptions::tpce(hours),
            ),
            (
                "(d): TPC-E 40K customers (trades/min*)",
                OltpKind::TpcE { customers: 4_000 },
                RunOptions::tpce(hours),
            ),
        ] {
            let (entry, s) = panel(name, kind, &opts);
            panels.push(entry);
            steps += s;
        }
    }
    println!("\n(*scaled rates; shapes and crossover times are the comparable quantities.)");

    let virtual_ns = hours.saturating_mul(panels.len() as u64 * DESIGNS.len() as u64);
    let mut report = BenchReport::new("fig6");
    report
        .standard(timer.secs(), virtual_ns, steps)
        .set("panels", Json::Arr(panels));
    report.emit();
}
