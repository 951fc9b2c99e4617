//! Figure 5 — speedups of DW, LC and TAC over noSSD across all nine
//! databases (TPC-C 1K/2K/4K warehouses, TPC-E 10K/20K/40K customers,
//! TPC-H 30/100 SF), plus the §4.1 CW datapoint.
//!
//! Paper numbers (speedup over noSSD):
//!
//! ```text
//! TPC-C:  1K  2K  4K     TPC-E: 10K  20K  40K    TPC-H:  30SF 100SF
//! DW     2.2 1.9 2.2            5.5  8.0  2.7            3.4  2.8
//! LC     9.1 9.4 6.2            5.4  7.6  2.7            3.2  2.9
//! TAC    1.9 1.4 1.9            5.2  7.5  3.0            3.3  2.9
//! ```
//!
//! Env: TURBO_HOURS (default 10), TURBO_QUICK.

use turbopool_bench::{quick, run_hours, tpch_scales, BenchReport, Table, WallTimer};
use turbopool_iosim::Time;
use turbopool_workload::runs::{run_oltp, run_tpch, Cell, OltpKind, RunOptions};
use turbopool_workload::scenario::Design;

/// The designs of every panel, noSSD first as the speedup base.
const DESIGNS: [Design; 4] = [Design::NoSsd, Design::Dw, Design::Lc, Design::Tac];

/// One database: its label, its scaled size (warehouses or customers)
/// and the paper's DW/LC/TAC speedups.
type Case = (&'static str, u64, [f64; 3]);

/// Steps and virtual time the bench drove, for `BENCH_fig5.json`.
#[derive(Default)]
struct Tally {
    steps: u64,
    virtual_ns: Time,
}

/// The full-mode cases, or the middle one under `TURBO_QUICK`.
fn cases(all: &[Case; 3]) -> &[Case] {
    if quick() {
        &all[1..2]
    } else {
        all
    }
}

/// Run each database's panel as one list of `cell`s and print the
/// section's table. The panel of size `cw_on` also runs a CW cell, and
/// the §4.1 CW-vs-DW/LC gaps (in %) come back for printing later.
fn oltp_section(
    (name, metric_name): (&str, &str),
    cases: &[Case],
    cell: impl Fn(u64, Design) -> Cell,
    cw_on: Option<u64>,
    tally: &mut Tally,
) -> Option<(f64, f64)> {
    println!("\n== Figure 5 ({name}) ==\n");
    let mut table = Table::new(vec![
        "database",
        "design",
        metric_name,
        "speedup",
        "paper",
        "ssd hit%",
    ]);
    let mut cw_gaps = None;
    let hours = run_hours();
    for &(label, size, paper) in cases {
        let mut cells: Vec<Cell> = DESIGNS.map(|d| cell(size, d)).to_vec();
        if cw_on == Some(size) {
            cells.push(cell(size, Design::Cw));
        }
        let set = run_oltp(&cells, hours);
        tally.steps += set.steps;
        tally.virtual_ns += hours * cells.len() as Time;
        let rate = |i: usize| set.runs[i].last_hour_per_min;
        table.row(vec![
            label.to_string(),
            "noSSD".into(),
            format!("{:.2}", rate(0)),
            "1.0x".into(),
            "1.0x".into(),
            "-".into(),
        ]);
        for (run, paper_x) in set.runs[1..4].iter().zip(paper) {
            let speedup = run.last_hour_per_min / rate(0).max(1e-9);
            let hit = run.stats.ssd.map(|m| m.hit_rate() * 100.0).unwrap_or(0.0);
            table.row(vec![
                label.to_string(),
                run.design.label().into(),
                format!("{:.2}", run.last_hour_per_min),
                format!("{speedup:.1}x"),
                format!("{paper_x:.1}x"),
                format!("{hit:.0}%"),
            ]);
        }
        if let Some(cw) = set.runs.get(4) {
            let slower = |than: f64| 100.0 * (1.0 - cw.last_hour_per_min / than.max(1e-9));
            cw_gaps = Some((slower(rate(1)), slower(rate(2))));
        }
    }
    table.print();
    cw_gaps
}

fn tpch_section(tally: &mut Tally) {
    println!("\n== Figure 5 (g,h): TPC-H QphH speedups ==\n");
    let mut table = Table::new(vec!["SF", "design", "QphH", "speedup", "paper"]);
    for &(sf, streams) in tpch_scales() {
        let paper = if sf == 30 {
            [1.0, 3.4, 3.2, 3.3]
        } else {
            [1.0, 2.8, 2.9, 2.9]
        };
        let runs = run_tpch(sf, streams, &DESIGNS);
        for (run, paper_x) in runs.iter().zip(paper) {
            tally.steps += run.steps;
            tally.virtual_ns += run.virtual_time;
            table.row(vec![
                format!("{sf}"),
                run.design.label().into(),
                format!("{:.0}", run.qphh),
                format!("{:.1}x", run.qphh / runs[0].qphh),
                format!("{paper_x:.1}x"),
            ]);
        }
    }
    table.print();
}

fn main() {
    let timer = WallTimer::start();
    let mut tally = Tally::default();
    let tpcc = [
        ("1K wh (100GB)", 10, [2.2, 9.1, 1.9]),
        ("2K wh (200GB)", 20, [1.9, 9.4, 1.4]),
        ("4K wh (400GB)", 40, [2.2, 6.2, 1.9]),
    ];
    let cell = |warehouses, d| Cell::new(OltpKind::TpcC { warehouses }, d, RunOptions::tpcc());
    let name = ("a-c: TPC-C tpmC", "tpmC*");
    oltp_section(name, cases(&tpcc), cell, None, &mut tally);

    let tpce = [
        ("10K cust (115GB)", 1_000, [5.5, 5.4, 5.2]),
        ("20K cust (230GB)", 2_000, [8.0, 7.6, 7.5]),
        ("40K cust (415GB)", 4_000, [2.7, 2.7, 3.0]),
    ];
    // §4.1: "for the 20K customer TPC-E database, CW was 21.6% and 23.3%
    // slower than DW and LC, respectively." The CW cell runs in the 20K
    // panel's list; its gaps print after the TPC-H section.
    let cw_on = (!quick()).then_some(2_000);
    let cell = |customers, d| Cell::new(OltpKind::TpcE { customers }, d, RunOptions::tpce());
    let name = ("d-f: TPC-E tpmE-equivalent", "tps*60");
    let cw_gaps = oltp_section(name, cases(&tpce), cell, cw_on, &mut tally);

    tpch_section(&mut tally);
    if let Some((vs_dw, vs_lc)) = cw_gaps {
        println!("\n== §4.1 CW datapoint (TPC-E 20K) ==\n");
        println!("CW slower than DW by {vs_dw:.1}% (paper: 21.6%)");
        println!("CW slower than LC by {vs_lc:.1}% (paper: 23.3%)");
    }
    println!("\n(*metrics are scaled: divide paper absolute numbers by 1000 to compare; speedups are scale-free.)");
    BenchReport::new("fig5")
        .standard(timer.secs(), tally.virtual_ns, tally.steps)
        .emit();
}
