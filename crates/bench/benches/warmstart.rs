//! Warm-restart extension — the paper's §6 future work, implemented and
//! measured.
//!
//! > "No design to-date leverages the data in the SSD during system
//! > restart, and as a result, it takes a very long time to warm-up the
//! > SSD with useful pages."
//!
//! We embed the SSD buffer table in every checkpoint record (the mechanism
//! the paper sketches in §4.1) and re-adopt provably valid entries at
//! restart. This harness runs an I/O-bound workload, crashes the system,
//! and compares the post-restart ramp with a cold SSD vs a warm one.

use std::sync::Arc;

use turbopool_bench::{BenchReport, Table, WallTimer};
use turbopool_iosim::{Clk, HOUR, MINUTE};
use turbopool_workload::driver::{Driver, ThroughputRecorder};
use turbopool_workload::scenario::Design;
use turbopool_workload::synthetic::{Synthetic, SyntheticConfig};

/// Drive 25 terminals for `hours`, adding the driver's steps to
/// `steps`.
fn run_phase(s: &Arc<Synthetic>, hours: u64, steps: &mut u64) -> Arc<ThroughputRecorder> {
    let rec = ThroughputRecorder::new(6 * MINUTE);
    let mut d = Driver::new();
    for c in 0..25 {
        d.add(0, Box::new(s.client(c, Arc::clone(&rec))));
    }
    d.run_until(hours * HOUR);
    *steps += d.steps();
    rec
}

fn experiment(warm: bool, hours: u64, steps: &mut u64) -> (f64, f64, u64) {
    let cfg = SyntheticConfig {
        rows: 1_200_000,
        record_size: 128,
        theta: 0.6,
        update_frac: 0.2,
        ..Default::default()
    };
    let s = Arc::new(Synthetic::setup(Design::Dw, cfg, |spec| {
        spec.ssd(|s| s.warm_restart = warm);
    }));
    // Phase 1: warm the SSD the slow way, then checkpoint (embeds the SSD
    // buffer table when the extension is on) and crash.
    let pre = run_phase(&s, hours, steps);
    let pre_rate = pre.rate_between((hours - 1) * HOUR, hours * HOUR, MINUTE);
    let mut clk = Clk::at(hours * HOUR);
    s.db.checkpoint(&mut clk);

    let s = Arc::try_unwrap(s).ok().expect("clients dropped");
    let (s2, _) = s.crash_and_recover();
    let imported = s2.db.ssd_metrics().unwrap().warm_imports;

    // Phase 2: measure the restart ramp.
    let s2 = Arc::new(s2);
    let post = run_phase(&s2, 1, steps);
    let first30 = post.rate_between(0, 30 * MINUTE, MINUTE);
    (pre_rate, first30, imported)
}

fn main() {
    let timer = WallTimer::start();
    println!("== Warm restart (paper §6 future work, implemented) ==\n");
    let mut table = Table::new(vec![
        "restart",
        "pre-crash rate",
        "first-30-min rate",
        "ramp retained",
        "pages re-adopted",
    ]);
    let hours = if turbopool_bench::quick() { 2 } else { 4 };
    let mut steps = 0;
    for warm in [false, true] {
        let (pre, post, imported) = experiment(warm, hours, &mut steps);
        table.row(vec![
            if warm {
                "warm (extension)"
            } else {
                "cold (paper)"
            }
            .to_string(),
            format!("{pre:.1}/min"),
            format!("{post:.1}/min"),
            format!("{:.0}%", post / pre.max(1e-9) * 100.0),
            format!("{imported}"),
        ]);
    }
    table.print();
    println!("\nA cold restart re-enters the multi-hour SSD ramp of Figure 6 (its");
    println!("first-30-minute rate falls well below the pre-crash rate); the warm");
    println!("restart resumes at or above the pre-crash rate immediately.");
    BenchReport::new("warmstart")
        .standard(timer.secs(), 2 * (hours + 1) * HOUR, steps)
        .emit();
}
