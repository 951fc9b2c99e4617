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

use std::sync::Arc;

use turbopool_bench::{run_hours, run_oltp, BenchReport, OltpKind, RunOptions, Table, WallTimer};
use turbopool_workload::scenario::Design;
use turbopool_workload::tpch::{self, Tpch};

struct PaperRow {
    dw: f64,
    lc: f64,
    tac: f64,
}

fn oltp_section(
    name: &str,
    metric_name: &str,
    cases: &[(&str, OltpKind, PaperRow)],
    opts_for: impl Fn(&OltpKind) -> RunOptions,
) -> u64 {
    println!("\n== Figure 5 ({name}) ==\n");
    let mut table = Table::new(vec![
        "database",
        "design",
        metric_name,
        "speedup",
        "paper",
        "ssd hit%",
    ]);
    let mut steps = 0;
    for (label, kind, paper) in cases {
        let opts = opts_for(kind);
        let base = run_oltp(*kind, Design::NoSsd, &opts);
        steps += base.steps;
        table.row(vec![
            label.to_string(),
            "noSSD".into(),
            format!("{:.2}", base.last_hour_per_min),
            "1.0x".into(),
            "1.0x".into(),
            "-".into(),
        ]);
        for (design, paper_x) in [
            (Design::Dw, paper.dw),
            (Design::Lc, paper.lc),
            (Design::Tac, paper.tac),
        ] {
            let run = run_oltp(*kind, design, &opts);
            steps += run.steps;
            let speedup = run.last_hour_per_min / base.last_hour_per_min.max(1e-9);
            let hit = run.ssd.map(|m| m.hit_rate() * 100.0).unwrap_or(0.0);
            table.row(vec![
                label.to_string(),
                design.label().into(),
                format!("{:.2}", run.last_hour_per_min),
                format!("{speedup:.1}x"),
                format!("{paper_x:.1}x"),
                format!("{hit:.0}%"),
            ]);
        }
    }
    table.print();
    steps
}

fn tpch_section(quick: bool) {
    println!("\n== Figure 5 (g,h): TPC-H QphH speedups ==\n");
    let mut table = Table::new(vec!["SF", "design", "QphH", "speedup", "paper"]);
    let sfs: &[(u64, usize, [f64; 3])] = if quick {
        &[(30, 4, [3.4, 3.2, 3.3])]
    } else {
        &[(30, 4, [3.4, 3.2, 3.3]), (100, 5, [2.8, 2.9, 2.9])]
    };
    for &(sf, streams, paper) in sfs {
        let mut base_qphh = 0.0;
        for (i, design) in [Design::NoSsd, Design::Dw, Design::Lc, Design::Tac]
            .into_iter()
            .enumerate()
        {
            tpch::reset_finish_time();
            let t = Arc::new(Tpch::setup(design, sf, 0.01));
            let mut clk = turbopool_iosim::Clk::new();
            let p = t.power_test(&mut clk);
            tpch::reset_finish_time();
            let tput = t.throughput_test(streams);
            let qphh = tpch::qphh(p.power, tput);
            if i == 0 {
                base_qphh = qphh;
            }
            let speedup = qphh / base_qphh;
            let paper_x = if i == 0 { 1.0 } else { paper[i - 1] };
            table.row(vec![
                format!("{sf}"),
                design.label().into(),
                format!("{qphh:.0}"),
                format!("{speedup:.1}x"),
                format!("{paper_x:.1}x"),
            ]);
        }
    }
    table.print();
}

fn cw_note() -> u64 {
    // §4.1: "for the 20K customer TPC-E database, CW was 21.6% and 23.3%
    // slower than DW and LC, respectively."
    println!("\n== §4.1 CW datapoint (TPC-E 20K) ==\n");
    let opts = RunOptions::tpce(run_hours());
    let cw = run_oltp(OltpKind::TpcE { customers: 2_000 }, Design::Cw, &opts);
    let dw = run_oltp(OltpKind::TpcE { customers: 2_000 }, Design::Dw, &opts);
    let lc = run_oltp(OltpKind::TpcE { customers: 2_000 }, Design::Lc, &opts);
    let vs_dw = 100.0 * (1.0 - cw.last_hour_per_min / dw.last_hour_per_min.max(1e-9));
    let vs_lc = 100.0 * (1.0 - cw.last_hour_per_min / lc.last_hour_per_min.max(1e-9));
    println!("CW slower than DW by {vs_dw:.1}% (paper: 21.6%)");
    println!("CW slower than LC by {vs_lc:.1}% (paper: 23.3%)");
    cw.steps + dw.steps + lc.steps
}

fn main() {
    let timer = WallTimer::start();
    let quick = turbopool_bench::quick();
    let hours = run_hours();

    let tpcc: Vec<(&str, OltpKind, PaperRow)> = if quick {
        vec![(
            "2K wh (200GB)",
            OltpKind::TpcC { warehouses: 20 },
            PaperRow {
                dw: 1.9,
                lc: 9.4,
                tac: 1.4,
            },
        )]
    } else {
        vec![
            (
                "1K wh (100GB)",
                OltpKind::TpcC { warehouses: 10 },
                PaperRow {
                    dw: 2.2,
                    lc: 9.1,
                    tac: 1.9,
                },
            ),
            (
                "2K wh (200GB)",
                OltpKind::TpcC { warehouses: 20 },
                PaperRow {
                    dw: 1.9,
                    lc: 9.4,
                    tac: 1.4,
                },
            ),
            (
                "4K wh (400GB)",
                OltpKind::TpcC { warehouses: 40 },
                PaperRow {
                    dw: 2.2,
                    lc: 6.2,
                    tac: 1.9,
                },
            ),
        ]
    };
    let mut steps = oltp_section("a-c: TPC-C tpmC", "tpmC*", &tpcc, |_| {
        RunOptions::tpcc(hours)
    });

    let tpce: Vec<(&str, OltpKind, PaperRow)> = if quick {
        vec![(
            "20K cust (230GB)",
            OltpKind::TpcE { customers: 2_000 },
            PaperRow {
                dw: 8.0,
                lc: 7.6,
                tac: 7.5,
            },
        )]
    } else {
        vec![
            (
                "10K cust (115GB)",
                OltpKind::TpcE { customers: 1_000 },
                PaperRow {
                    dw: 5.5,
                    lc: 5.4,
                    tac: 5.2,
                },
            ),
            (
                "20K cust (230GB)",
                OltpKind::TpcE { customers: 2_000 },
                PaperRow {
                    dw: 8.0,
                    lc: 7.6,
                    tac: 7.5,
                },
            ),
            (
                "40K cust (415GB)",
                OltpKind::TpcE { customers: 4_000 },
                PaperRow {
                    dw: 2.7,
                    lc: 2.7,
                    tac: 3.0,
                },
            ),
        ]
    };
    steps += oltp_section("d-f: TPC-E tpmE-equivalent", "tps*60", &tpce, |_| {
        RunOptions::tpce(hours)
    });

    tpch_section(quick);
    if !quick {
        steps += cw_note();
    }
    println!("\n(*metrics are scaled: divide paper absolute numbers by 1000 to compare; speedups are scale-free.)");
    BenchReport::new("fig5")
        .standard(timer.secs(), hours, steps)
        .emit();
}
