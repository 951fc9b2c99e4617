//! Figure 7 — the effect of the LC dirty-fraction threshold λ.
//!
//! TPC-C 4K warehouses with λ ∈ {10%, 50%, 90%}. Paper findings:
//! higher λ ⇒ higher steady-state throughput (λ=90% ≈ 3.1X over λ=10%,
//! ≈ 1.6X over λ=50%), and the cleaner issues fewer disk IOPS
//! (521 / 769 / 950 at λ = 90/50/10%).

use turbopool_bench::{print_digest, render_series, run_hours, Table, WallTimer};
use turbopool_iosim::SECOND;
use turbopool_workload::runs::{run_oltp, Cell, OltpKind, RunOptions};
use turbopool_workload::scenario::Design;

fn main() {
    let timer = WallTimer::start();
    let hours = run_hours();
    let warehouses = if turbopool_bench::quick() { 20 } else { 40 };
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
    let cells: Vec<Cell> = sweep
        .iter()
        .map(|&(lambda, _)| {
            let opts = RunOptions {
                lambda,
                ..RunOptions::tpcc()
            };
            Cell::new(OltpKind::TpcC { warehouses }, Design::Lc, opts)
        })
        .collect();
    let set = run_oltp(&cells, hours);
    let base = set.runs[0].last_hour_per_min;
    for (&(lambda, paper_rel), run) in sweep.iter().zip(&set.runs) {
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
    for (&(lambda, _), run) in sweep.iter().zip(&set.runs) {
        println!("\n--- λ = {:.0}% ---", lambda * 100.0);
        print!("{}", render_series(&run.series, 20));
    }
    println!("\n(paper cleaner IOPS at full scale: 950 / 769 / 521 for λ = 10/50/90%;");
    println!(" scaled values are 1000x smaller — compare the monotone decrease.)");
    for (&(lambda, _), run) in sweep.iter().zip(&set.runs) {
        print_digest(
            &format!("λ={:.0}%", lambda * 100.0),
            run.stats.digest(run.steps),
        );
    }
    timer.print_timing("fig7", set.steps);
}
