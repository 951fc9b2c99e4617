//! The paper's §4 cells, each run once, and the six golden files read
//! from them. [`run`] runs each group of the table, [`groups`], once, and
//! [`print_views`] prints each golden file's text from those runs. A view
//! finds each run it reads by its cell, so Figure 6, Figure 8, Table 3
//! and Figure 7's λ = 50 % row read Figure 5's runs.

use std::fmt::Debug;

use turbopool_iosim::{Time, HOUR, MINUTE, SECOND};
use turbopool_workload::driver::ThroughputRecorder;
use turbopool_workload::runs::{run_oltp, run_tpch, Cell, OltpKind, OltpRun, RunOptions, TpchRun};
use turbopool_workload::scenario::{Design, PAGE_SIZE, SCALE};

use crate::{print_digest, quick, render_series, run_hours, tpch_scales, Table, WallTimer};

/// The designs every database runs, noSSD first as the speedup base.
const DESIGNS: [Design; 4] = [Design::NoSsd, Design::Dw, Design::Lc, Design::Tac];

const fn tpcc(warehouses: u64) -> OltpKind {
    OltpKind::TpcC { warehouses }
}

const fn tpce(customers: u64) -> OltpKind {
    OltpKind::TpcE { customers }
}

/// One database: its Figure 5 label, its scaled size and the paper's
/// speedups over noSSD of the [`DESIGNS`].
type Db = (&'static str, OltpKind, [f64; 4]);

const TPCC: [Db; 3] = [
    ("1K wh (100GB)", tpcc(10), [1.0, 2.2, 9.1, 1.9]),
    ("2K wh (200GB)", tpcc(20), [1.0, 1.9, 9.4, 1.4]),
    ("4K wh (400GB)", tpcc(40), [1.0, 2.2, 6.2, 1.9]),
];

/// The database of the §4.1 CW cell, Figure 8 and Figure 9.
const TPCE_20K: OltpKind = tpce(2_000);

const TPCE: [Db; 3] = [
    ("10K cust (115GB)", tpce(1_000), [1.0, 5.5, 5.4, 5.2]),
    ("20K cust (230GB)", TPCE_20K, [1.0, 8.0, 7.6, 7.5]),
    ("40K cust (415GB)", tpce(4_000), [1.0, 2.7, 2.7, 3.0]),
];

/// The paper's Table 3: Power@SF, Throughput@SF and QphH@SF under each of
/// the [`DESIGNS`], at TPC-H scale factor 30 and then 100.
const TABLE3: [[[f64; 4]; 3]; 2] = [
    [
        [2733.0, 5917.0, 5978.0, 6386.0],
        [1229.0, 6643.0, 5601.0, 5639.0],
        [1832.0, 6269.0, 5787.0, 6001.0],
    ],
    [
        [1536.0, 3204.0, 3836.0, 3705.0],
        [953.0, 3691.0, 3228.0, 3235.0],
        [1210.0, 3439.0, 3519.0, 3462.0],
    ],
];

/// Figure 8's traffic bucket.
const FIG8_BUCKET: Time = 6 * MINUTE;

/// The databases of one benchmark that run: all three, or the middle one
/// under `TURBO_QUICK`.
fn dbs(all: &[Db; 3]) -> &[Db] {
    if quick() {
        &all[1..2]
    } else {
        all
    }
}

/// The designs database `kind` runs under: [`DESIGNS`], and at TPC-E 20K
/// also CW.
fn designs(kind: OltpKind) -> Vec<Design> {
    let mut designs = DESIGNS.to_vec();
    if kind == TPCE_20K {
        designs.push(Design::Cw);
    }
    designs
}

/// `kind` under `design` with its benchmark's paper settings. TPC-E 20K
/// under DW also records the device traffic that Figure 8 plots.
fn cell(kind: OltpKind, design: Design) -> Cell {
    let mut opts = match kind {
        OltpKind::TpcC { .. } => RunOptions::tpcc(),
        OltpKind::TpcE { .. } => RunOptions::tpce(),
    };
    if (kind, design) == (TPCE_20K, Design::Dw) {
        opts.io_series = Some(FIG8_BUCKET);
    }
    Cell::new(kind, design, opts)
}

/// Figure 7's LC cell at `lambda` on its database, the largest TPC-C
/// database that runs.
fn lambda_cell(lambda: f64) -> Cell {
    let db = dbs(&TPCC).last().expect("a TPC-C database runs");
    let mut cell = cell(db.1, Design::Lc);
    cell.opts.lambda = lambda;
    cell
}

/// Figure 9's panels and checkpoint intervals. With the long interval
/// the paper raises LC's λ to 50 % so that LC can accumulate dirty pages
/// between checkpoints.
const FIG9_PANELS: [(&str, Design); 2] = [("(a) DW", Design::Dw), ("(b) LC", Design::Lc)];
const FIG9_INTERVALS: [(&str, Time, f64); 2] =
    [("40 min", 40 * MINUTE, 0.01), ("5 hours", 5 * HOUR, 0.50)];

/// Figure 9's four cells, panel by panel.
fn fig9_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for (_, design) in FIG9_PANELS {
        for (_, interval, lambda) in FIG9_INTERVALS {
            let opts = RunOptions {
                checkpoint: Some(interval),
                lambda: if design == Design::Lc { lambda } else { 0.01 },
                ..RunOptions::tpce()
            };
            cells.push(Cell::new(TPCE_20K, design, opts));
        }
    }
    cells
}

/// A group of cells run together.
pub enum Group {
    /// One `run_oltp` list for `hours`.
    Oltp {
        name: String,
        hours: Time,
        cells: Vec<Cell>,
    },
    /// One `run_tpch` scale factor under every design.
    Tpch { sf: u64, streams: usize },
}

/// The table of distinct cell groups: each TPC-C and TPC-E database under
/// noSSD/DW/LC/TAC (TPC-E 20K also under CW, for §4.1), each TPC-H scale
/// factor, Figure 7's other two λ cells and Figure 9's four checkpoint
/// cells. Under `TURBO_QUICK` the middle TPC-C and TPC-E databases and the
/// first TPC-H scale run, with Figure 7 and Figure 9 at those sizes.
pub fn groups() -> Vec<Group> {
    let hours = run_hours();
    let mut groups = Vec::new();
    for &(_, kind, _) in dbs(&TPCC).iter().chain(dbs(&TPCE)) {
        let name = match kind {
            OltpKind::TpcC { warehouses } => format!("tpcc-{warehouses}"),
            OltpKind::TpcE { customers } => format!("tpce-{customers}"),
        };
        let cells = designs(kind).into_iter().map(|d| cell(kind, d)).collect();
        groups.push(Group::Oltp { name, hours, cells });
    }
    for &(sf, streams) in tpch_scales() {
        groups.push(Group::Tpch { sf, streams });
    }
    // λ = 50 % is the TPC-C group's LC cell.
    let cells = vec![lambda_cell(0.10), lambda_cell(0.90)];
    let name = "lambda".into();
    groups.push(Group::Oltp { name, hours, cells });
    // The paper runs Figure 9 three hours longer than the others, so that
    // LC-5h's behaviour after its first checkpoint shows.
    let (name, hours, cells) = ("checkpoint".into(), hours + 3 * HOUR, fig9_cells());
    groups.push(Group::Oltp { name, hours, cells });
    groups
}

/// What makes two OLTP runs the same run: the duration and the `Debug`
/// text of the cell, every field of it (`Cell` has no `PartialEq`, for its
/// `f64` λ).
fn key(hours: Time, cell: &Cell) -> String {
    format!("{hours} {cell:?}")
}

/// Every group's runs, found by what made them.
#[derive(Default)]
pub struct Runs {
    oltp: Vec<(String, OltpRun)>,
    tpch: Vec<((u64, Design), TpchRun)>,
}

impl Runs {
    fn oltp(&self, cell: Cell, hours: Time) -> &OltpRun {
        one(&self.oltp, &key(hours, &cell))
    }

    fn tpch(&self, sf: u64, design: Design) -> &TpchRun {
        one(&self.tpch, &(sf, design))
    }
}

/// The value stored under `key`; panics unless exactly one entry has it.
fn one<'a, K: PartialEq + Debug, V>(entries: &'a [(K, V)], key: &K) -> &'a V {
    let mut hits = entries.iter().filter(|(k, _)| k == key);
    match (hits.next(), hits.next()) {
        (Some((_, v)), None) => v,
        _ => panic!("{key:?} is not exactly one table entry"),
    }
}

/// Run each group once, one after another, and print a `timing
/// paper/<group>` line as each finishes.
pub fn run(groups: &[Group]) -> Runs {
    let mut runs = Runs::default();
    for group in groups {
        let timer = WallTimer::start();
        let (name, steps) = match group {
            Group::Oltp { name, hours, cells } => {
                let mut set = run_oltp(cells, *hours);
                // No view reads the recorders. Each one's buffer, last grown on
                // its cell's domain thread, would keep that thread's heap
                // resident through the later groups: 210 MB more peak RSS.
                for run in &mut set.runs {
                    run.metric = ThroughputRecorder::new(MINUTE);
                }
                let keys = cells.iter().map(|c| key(*hours, c));
                runs.oltp.extend(keys.zip(set.runs));
                (name.clone(), set.steps)
            }
            &Group::Tpch { sf, streams } => {
                let tpch = run_tpch(sf, streams, &DESIGNS);
                let steps = tpch.iter().map(|r| r.steps).sum();
                runs.tpch
                    .extend(tpch.into_iter().map(|r| ((sf, r.design), r)));
                (format!("tpch-{sf}"), steps)
            }
        };
        timer.print_timing(&format!("paper/{name}"), steps);
    }
    runs
}

/// Print each golden file's text after a `view <name>` line, and a blank
/// line after the last, where the other targets print their `timing` line.
pub fn print_views(runs: &Runs) {
    let views = [
        ("fig5", fig5 as fn(&Runs)),
        ("fig6", fig6),
        ("fig7", fig7),
        ("fig8", fig8),
        ("fig9", fig9),
        ("table3", table3),
    ];
    for (name, view) in views {
        println!("\nview {name}");
        view(runs);
    }
    println!();
}

/// Figure 5 — speedups of DW, LC and TAC over noSSD across all nine
/// databases, plus the §4.1 CW datapoint.
fn fig5(runs: &Runs) {
    fig5_oltp(runs, ("a-c: TPC-C tpmC", "tpmC*"), dbs(&TPCC));
    fig5_oltp(runs, ("d-f: TPC-E tpmE-equivalent", "tps*60"), dbs(&TPCE));
    println!("\n== Figure 5 (g,h): TPC-H QphH speedups ==\n");
    let mut table = Table::new(vec!["SF", "design", "QphH", "speedup", "paper"]);
    let mut digests = Vec::new();
    for (&(sf, _), [.., paper]) in tpch_scales().iter().zip(TABLE3) {
        let base = runs.tpch(sf, Design::NoSsd).qphh;
        for (design, paper_qphh) in DESIGNS.into_iter().zip(paper) {
            let run = runs.tpch(sf, design);
            table.row(vec![
                format!("{sf}"),
                design.label().into(),
                format!("{:.0}", run.qphh),
                format!("{:.1}x", run.qphh / base),
                format!("{:.1}x", paper_qphh / paper[0]),
            ]);
            let cell = format!("SF {sf} {}", design.label());
            digests.push((cell, run.stats.digest(run.steps)));
        }
    }
    table.print();
    for (cell, digest) in digests {
        print_digest(&cell, digest);
    }
    // §4.1: "for the 20K customer TPC-E database, CW was 21.6% and 23.3%
    // slower than DW and LC, respectively."
    let rate = |d| runs.oltp(cell(TPCE_20K, d), run_hours()).last_hour_per_min;
    let slower = |than: f64| 100.0 * (1.0 - rate(Design::Cw) / than.max(1e-9));
    println!("\n== §4.1 CW datapoint (TPC-E 20K) ==\n");
    let (vs_dw, vs_lc) = (slower(rate(Design::Dw)), slower(rate(Design::Lc)));
    println!("CW slower than DW by {vs_dw:.1}% (paper: 21.6%)");
    println!("CW slower than LC by {vs_lc:.1}% (paper: 23.3%)");
    println!("\n(*metrics are scaled: divide paper absolute numbers by 1000 to compare; speedups are scale-free.)");
}

/// One Figure 5 OLTP section: its table, then its cells' digests.
fn fig5_oltp(runs: &Runs, (name, metric_name): (&str, &str), dbs: &[Db]) {
    println!("\n== Figure 5 ({name}) ==\n");
    let mut table = Table::new(vec![
        "database",
        "design",
        metric_name,
        "speedup",
        "paper",
        "ssd hit%",
    ]);
    let mut digests = Vec::new();
    for &(label, kind, paper) in dbs {
        let run = |d| runs.oltp(cell(kind, d), run_hours());
        let base = run(Design::NoSsd).last_hour_per_min;
        for (design, paper_x) in DESIGNS.into_iter().zip(paper) {
            let run = run(design);
            let hit = run.stats.ssd.map(|m| m.hit_rate() * 100.0);
            table.row(vec![
                label.to_string(),
                design.label().into(),
                format!("{:.2}", run.last_hour_per_min),
                format!("{:.1}x", run.last_hour_per_min / base.max(1e-9)),
                format!("{paper_x:.1}x"),
                hit.map_or("-".into(), |hit| format!("{hit:.0}%")),
            ]);
        }
        for design in designs(kind) {
            let run = run(design);
            let cell = format!("{label} {}", design.label());
            digests.push((cell, run.stats.digest(run.steps)));
        }
    }
    table.print();
    for (cell, digest) in digests {
        print_digest(&cell, digest);
    }
}

/// Figure 6 — 10-hour throughput-vs-time curves of TPC-C 2K and 4K
/// warehouses and TPC-E 20K and 40K customers, in six-minute buckets like
/// the paper's.
///
/// Expected shape (paper §4.2.1 / §4.3.1):
/// * LC on TPC-C climbs steeply, then drops when the dirty SSD pages
///   cross the λ=50% threshold (~1:50h at 2K, ~2:30h at 4K) and the
///   cleaner starts consuming disk bandwidth.
/// * TPC-E ramps slowly (the SSD fills at the random-read speed of the
///   disks); checkpoint dips every ~40 minutes.
fn fig6(runs: &Runs) {
    let panels = [
        ("(a): TPC-C 2K warehouses (tpmC*)", TPCC[1].1),
        ("(b): TPC-C 4K warehouses (tpmC*)", TPCC[2].1),
        ("(c): TPC-E 20K customers (trades/min*)", TPCE[1].1),
        ("(d): TPC-E 40K customers (trades/min*)", TPCE[2].1),
    ];
    let running = |kind| dbs(&TPCC).iter().chain(dbs(&TPCE)).any(|db| db.1 == kind);
    for (name, kind) in panels.into_iter().filter(|&(_, kind)| running(kind)) {
        println!("\n== Figure 6 {name} ==");
        let panel = [Design::Lc, Design::Dw, Design::Tac, Design::NoSsd]
            .map(|d| runs.oltp(cell(kind, d), run_hours()));
        for run in panel {
            println!(
                "\n--- {} (last-hour rate {:.2}/min) ---",
                run.design.label(),
                run.last_hour_per_min
            );
            print!("{}", render_series(&run.series, 25));
        }
        for run in panel {
            let label = format!("{} {}", &name[..3], run.design.label());
            print_digest(&label, run.stats.digest(run.steps));
        }
    }
    println!("\n(*scaled rates; shapes and crossover times are the comparable quantities.)");
}

/// Figure 7 — the LC dirty-fraction threshold λ on TPC-C 4K warehouses.
/// Paper: higher λ ⇒ higher throughput and fewer cleaner IOPS.
fn fig7(runs: &Runs) {
    let hours = run_hours();
    let OltpKind::TpcC { warehouses } = lambda_cell(0.5).kind else {
        unreachable!("Figure 7 runs a TPC-C database")
    };
    println!(
        "== Figure 7: LC with λ = 10% / 50% / 90% (TPC-C {warehouses} scaled warehouses) ==\n"
    );
    let mut table = Table::new(vec![
        "lambda",
        "tpmC* (last h)",
        "vs 10%",
        "paper",
        "cleaned pages",
        "cleaner IOPS*",
    ]);
    let sweep = [(0.10, 1.0), (0.50, 3.1 / 1.6), (0.90, 3.1)];
    let sweep = sweep.map(|(lambda, paper)| (lambda, paper, runs.oltp(lambda_cell(lambda), hours)));
    let base = sweep[0].2.last_hour_per_min;
    for (lambda, paper_rel, run) in sweep {
        let cleaned = run.stats.ssd.map(|m| m.cleaned_pages).unwrap_or(0);
        let cleaner_iops = cleaned as f64 / (hours as f64 / SECOND as f64);
        table.row(vec![
            format!("{:.0}%", lambda * 100.0),
            format!("{:.2}", run.last_hour_per_min),
            format!("{:.1}x", run.last_hour_per_min / base.max(1e-9)),
            format!("{paper_rel:.1}x"),
            format!("{cleaned}"),
            format!("{cleaner_iops:.3}"),
        ]);
    }
    table.print();
    println!("\nThroughput curves (per-minute rates, six-minute buckets):");
    for (lambda, _, run) in sweep {
        println!("\n--- λ = {:.0}% ---", lambda * 100.0);
        print!("{}", render_series(&run.series, 20));
    }
    println!("\n(paper cleaner IOPS at full scale: 950 / 769 / 521 for λ = 10/50/90%;");
    println!(" scaled values are 1000x smaller — compare the monotone decrease.)");
    for (lambda, _, run) in sweep {
        let label = format!("λ={:.0}%", lambda * 100.0);
        print_digest(&label, run.stats.digest(run.steps));
    }
}

/// Figure 8 — I/O traffic to the disks and the SSD over a TPC-E 20K DW
/// run. Paper shape: disk reads start high (pool-fill expansion) and drop
/// once the pool fills; checkpoint write spikes show in both series.
fn fig8(runs: &Runs) {
    println!("== Figure 8: device traffic, TPC-E 20K customers, DW ==");
    let run = runs.oltp(cell(TPCE_20K, Design::Dw), run_hours());
    fig8_series("(a) disks", &run.disk_series);
    fig8_series("(b) SSD", &run.ssd_series);
    let (disk, ssd) = (run.stats.disk, run.stats.ssd_dev);
    println!(
        "\nSteady-state disk totals: {} reads, {} writes; SSD: {} reads, {} writes.",
        disk.read_pages, disk.write_pages, ssd.read_pages, ssd.write_pages
    );
    println!("Paper: disks saturate ~6.5 MB/s of random traffic; SSD peaks ~46 MB/s read,");
    println!("far below its ~95 MB/s capability — the disks are the bottleneck.");
    print_digest("TPC-E DW", run.stats.digest(run.steps));
}

/// One Figure 8 panel, each bucket in full-scale-equivalent MB/s.
fn fig8_series(name: &str, series: &[(Time, u64, u64)]) {
    let secs = FIG8_BUCKET as f64 / 1e9;
    let mbps = |pages: u64| pages as f64 * PAGE_SIZE as f64 / secs / 1e6 * SCALE;
    println!("\n--- {name} (full-scale-equivalent MB/s) ---");
    println!("{:>6} {:>10} {:>10}", "hour", "read", "write");
    let step = (series.len() / 25).max(1);
    for chunk in series.chunks(step) {
        let h = chunk[0].0 as f64 / 3.6e12;
        let n = chunk.len() as u64;
        let r: u64 = chunk.iter().map(|c| c.1).sum::<u64>() / n;
        let w: u64 = chunk.iter().map(|c| c.2).sum::<u64>() / n;
        let rbar = "#".repeat(((mbps(r) / 2.0) as usize).min(40));
        println!("{h:6.2} {:10.2} {:10.2}  {rbar}", mbps(r), mbps(w));
    }
}

/// Figure 9 — the checkpoint interval (40 min vs 5 h) under DW and LC,
/// TPC-E 20K customers.
///
/// Paper shape:
/// * DW: frequent checkpoints help while the SSD is filling (checkpointed
///   random pages are mirrored into the SSD, §3.2); once full, the long
///   interval wins because checkpoint floods stop displacing useful pages.
/// * LC with a 5-hour interval runs ahead until the first checkpoint,
///   which then takes very long (all accumulated dirty SSD pages must be
///   flushed) and throughput collapses for the duration.
fn fig9(runs: &Runs) {
    println!("== Figure 9: checkpoint interval 40 min vs 5 h (TPC-E 2000 scaled customers) ==");
    let hours = run_hours() + 3 * HOUR;
    let mut fig9 = fig9_cells().into_iter().map(|c| runs.oltp(c, hours));
    let mut digests = Vec::new();
    for (panel, _) in FIG9_PANELS {
        println!("\n=== {panel} ===");
        for ((interval, ..), run) in FIG9_INTERVALS.iter().zip(fig9.by_ref()) {
            println!(
                "\n--- checkpoint every {interval} (last-hour rate {:.2}/min, checkpoint-cleaned SSD pages {}) ---",
                run.last_hour_per_min,
                run.stats.ssd.map(|m| m.checkpoint_cleaned).unwrap_or(0),
            );
            print!("{}", render_series(&run.series, 22));
            digests.push((format!("{panel} {interval}"), run.stats.digest(run.steps)));
        }
    }
    for (label, digest) in digests {
        print_digest(&label, digest);
    }
}

/// Table 3 — TPC-H power and throughput test results, next to the paper's
/// ([`TABLE3`]).
///
/// The shape to reproduce: all three SSD designs land close together; the
/// *throughput* test (concurrent streams ⇒ more random I/O) gains more
/// from the SSD than the power test (paper: DW 2.2x power vs 5.4x
/// throughput at 30 SF).
fn table3(runs: &Runs) {
    println!("== Table 3: TPC-H power / throughput / QphH (scaled) ==\n");
    for (&(sf, streams), paper) in tpch_scales().iter().zip(TABLE3) {
        let table3 = [Design::Lc, Design::Dw, Design::Tac, Design::NoSsd].map(|d| runs.tpch(sf, d));
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
        let qphh = format!("QphH@{sf}SF");
        for (mi, metric) in ["Power test", "Throughput test", &qphh].iter().enumerate() {
            let vals = table3.map(|r| [r.power.power, r.throughput, r.qphh][mi]);
            let mut row = vec![metric.to_string()];
            row.extend(vals.map(|v| format!("{v:.0}")));
            row.push(format!("{:.1}x", vals[0] / vals[3].max(1e-9)));
            row.push(format!("{:.1}x", paper[mi][2] / paper[mi][0]));
            table.row(row);
        }
        table.print();
        for run in table3 {
            print_digest(
                &format!("SF {sf} {}", run.design.label()),
                run.stats.digest(run.steps),
            );
        }
        println!();
    }
    println!("(Scaled metrics; compare ratios. Expect throughput-test gains > power-test gains.)");
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbopool_workload::runs::DbStats;
    use turbopool_workload::tpch::PowerResult;

    /// The table holds no cell twice, and every view finds each run it
    /// reads in exactly one entry (a lookup panics otherwise). The runs
    /// are stand-ins: nothing is simulated.
    #[test]
    fn each_cell_runs_once_and_every_view_finds_its_runs() {
        let mut runs = Runs::default();
        for group in groups() {
            match group {
                Group::Oltp { hours, cells, .. } => {
                    for c in cells {
                        let run = OltpRun {
                            design: c.design,
                            metric: ThroughputRecorder::new(MINUTE),
                            last_hour_per_min: 1.0,
                            series: Vec::new(),
                            stats: DbStats::default(),
                            disk_series: Vec::new(),
                            ssd_series: Vec::new(),
                            steps: 0,
                        };
                        runs.oltp.push((key(hours, &c), run));
                    }
                }
                Group::Tpch { sf, .. } => {
                    for design in DESIGNS {
                        let run = TpchRun {
                            design,
                            power: PowerResult {
                                power: 1.0,
                                timings: Vec::new(),
                            },
                            throughput: 1.0,
                            qphh: 1.0,
                            virtual_time: 0,
                            stats: DbStats::default(),
                            steps: 0,
                        };
                        runs.tpch.push(((sf, design), run));
                    }
                }
            }
        }
        for (i, (k, _)) in runs.oltp.iter().enumerate() {
            assert!(runs.oltp[..i].iter().all(|(o, _)| o != k), "{k:?} twice");
        }
        for (i, (k, _)) in runs.tpch.iter().enumerate() {
            assert!(runs.tpch[..i].iter().all(|(o, _)| o != k), "{k:?} twice");
        }
        print_views(&runs);
    }
}
