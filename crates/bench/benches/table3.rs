//! Table 3 — TPC-H power and throughput test results.
//!
//! Paper values:
//!
//! ```text
//! 30 SF:            LC    DW   TAC  noSSD      100 SF:    LC    DW   TAC  noSSD
//! Power test      5978  5917  6386   2733              3836  3204  3705   1536
//! Throughput test 5601  6643  5639   1229              3228  3691  3235    953
//! QphH            5787  6269  6001   1832              3519  3439  3462   1210
//! ```
//!
//! The shape to reproduce: all three SSD designs land close together; the
//! *throughput* test (concurrent streams ⇒ more random I/O) gains more
//! from the SSD than the power test (paper: DW 2.2x power vs 5.4x
//! throughput at 30 SF).

use turbopool_bench::{tpch_scales, BenchReport, Table, WallTimer};
use turbopool_workload::runs::run_tpch;
use turbopool_workload::scenario::Design;

fn main() {
    let timer = WallTimer::start();
    println!("== Table 3: TPC-H power / throughput / QphH (scaled) ==\n");
    let paper: &[(u64, [[f64; 4]; 3])] = &[
        (
            30,
            [
                [5978.0, 5917.0, 6386.0, 2733.0],
                [5601.0, 6643.0, 5639.0, 1229.0],
                [5787.0, 6269.0, 6001.0, 1832.0],
            ],
        ),
        (
            100,
            [
                [3836.0, 3204.0, 3705.0, 1536.0],
                [3228.0, 3691.0, 3235.0, 953.0],
                [3519.0, 3439.0, 3462.0, 1210.0],
            ],
        ),
    ];
    let (mut steps, mut virtual_ns) = (0, 0);
    for &(sf, streams) in tpch_scales() {
        let designs = [Design::Lc, Design::Dw, Design::Tac, Design::NoSsd];
        let runs = run_tpch(sf, streams, &designs);
        steps += runs.iter().map(|r| r.steps).sum::<u64>();
        virtual_ns += runs.iter().map(|r| r.virtual_time).sum::<u64>();
        let paper_rows = &paper.iter().find(|(s, _)| *s == sf).unwrap().1;
        println!("--- {sf} SF ({streams} throughput streams) ---\n");
        let mut table = Table::new(vec![
            "metric",
            "LC",
            "DW",
            "TAC",
            "noSSD",
            "LC/noSSD",
            "paper LC/noSSD",
        ]);
        for (mi, metric) in [
            "Power test",
            "Throughput test",
            format!("QphH@{sf}SF").as_str(),
        ]
        .iter()
        .enumerate()
        {
            let vals: Vec<f64> = runs
                .iter()
                .map(|r| [r.power.power, r.throughput, r.qphh][mi])
                .collect();
            let ratio = vals[0] / vals[3].max(1e-9);
            let paper_ratio = paper_rows[mi][0] / paper_rows[mi][3];
            table.row(vec![
                metric.to_string(),
                format!("{:.0}", vals[0]),
                format!("{:.0}", vals[1]),
                format!("{:.0}", vals[2]),
                format!("{:.0}", vals[3]),
                format!("{ratio:.1}x"),
                format!("{paper_ratio:.1}x"),
            ]);
        }
        table.print();
        println!();
    }
    println!("(Scaled metrics; compare ratios. Expect throughput-test gains > power-test gains.)");
    BenchReport::new("table3")
        .standard(timer.secs(), virtual_ns, steps)
        .emit();
}
