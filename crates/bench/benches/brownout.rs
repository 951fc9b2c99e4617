//! Brownout — OLTP-style throughput through a mid-run SSD gray failure
//! (ISSUE 5). Five share-nothing domains (CW, DW, LC, TAC, noSSD) run
//! the same synthetic update mix; in the middle third of the run the
//! SSD suffers a stall train (periodic 25x service-time slowdowns, the
//! GC-stall shape). A stall is a deep SSD queue, so the paper's throttle
//! (μ, §3.3.2) moves clean reads and admissions to disk while it lasts,
//! and the SSD designs must keep a decisive edge over noSSD even while
//! their SSD is browned out.
//!
//! Prints per-design throughput over the warm, degraded and recovered
//! windows, the throttle counters and each design's `digest` line.
//! Asserts CW/DW/LC retain >= 2x noSSD throughput during the degraded
//! window. `TURBO_QUICK` shortens the run.

use std::sync::Arc;

use turbopool_bench::{print_digest, quick, WallTimer};
use turbopool_iosim::fault::{FaultConfig, FaultPlan};
use turbopool_iosim::{Time, HOUR, MINUTE, SECOND};
use turbopool_workload::driver::{CleanerClient, Driver, ThroughputRecorder};
use turbopool_workload::runs::DbStats;
use turbopool_workload::scenario::Design;
use turbopool_workload::synthetic::{Synthetic, SyntheticConfig};

const SEED: u64 = 0xB700;
const CLIENTS: usize = 3;
/// Stall train shape inside the degraded window: every 15 (virtual,
/// time-scaled) minutes the SSD runs `FACTOR`x slow for 5 minutes. At
/// SCALE=1000 a scaled SSD read is ~82ms, so a stall multiplies it to
/// ~2s and the SSD queue passes μ within a handful of requests.
const STALL_PERIOD: Time = 15 * MINUTE;
const STALL_LEN: Time = 5 * MINUTE;
const FACTOR: u32 = 25;

struct DomainRun {
    label: String,
    s: Arc<Synthetic>,
    rec: Arc<ThroughputRecorder>,
}

fn main() {
    // Time-scaled workloads (SCALE=1000) need virtual hours: disk reads
    // take ~8.4 scaled seconds, so warming the SSD tier takes a sizable
    // fraction of an hour of virtual time.
    let total: Time = if quick() { 3 * HOUR } else { 9 * HOUR };
    // The run splits into thirds: healthy warm-up, brownout, recovery.
    let degrade_start = total / 3;
    let degrade_end = 2 * total / 3;
    let designs = [
        Design::Cw,
        Design::Dw,
        Design::Lc,
        Design::Tac,
        Design::NoSsd,
    ];
    // A mostly-read mix, for two reasons. Clean evictions dominate, so
    // even CW (which admits only clean pages) warms its SSD tier within
    // the first third of the run. And the dirty write-behind stays under
    // the disk group's (time-scaled) random-write capacity: throttled
    // reads can only ride out a stall if the disk tier has headroom — a
    // disk already oversubscribed by CW/DW write-behind queues them
    // behind hours of booked writes and no failover policy can help.
    let cfg = SyntheticConfig {
        rows: 5_000,
        update_frac: 0.05,
        ..Default::default()
    };

    let mut driver = Driver::new();
    let mut runs = Vec::new();
    for (domain, &design) in designs.iter().enumerate() {
        let s = Arc::new(Synthetic::setup(design, cfg.clone(), |spec| {
            spec.db.pool.frames = 64;
            spec.ssd(|s| s.frames = 256);
        }));
        if design != Design::NoSsd {
            s.db.io()
                .set_ssd_fault(Some(Arc::new(FaultPlan::new(FaultConfig::brownout_train(
                    SEED + domain as u64,
                    degrade_start,
                    degrade_end,
                    STALL_PERIOD,
                    STALL_LEN,
                    FACTOR,
                )))));
        }
        let rec = ThroughputRecorder::new(MINUTE);
        for c in 0..CLIENTS {
            driver.add_in_domain(domain, 0, Box::new(s.client(c as u64, Arc::clone(&rec))));
        }
        if let Some(cleaner) = CleanerClient::for_db(&s.db) {
            driver.add_in_domain(domain, 0, Box::new(cleaner));
        }
        runs.push(DomainRun {
            label: design.label().to_string(),
            s,
            rec,
        });
    }

    let timer = WallTimer::start();
    driver.run_until(total);

    let mut rates = Vec::new();
    println!(
        "== brownout: {CLIENTS} clients/design, stalls {FACTOR}x for {}min every {}min over the middle third ==",
        STALL_LEN / MINUTE,
        STALL_PERIOD / MINUTE
    );
    for run in &runs {
        let warm = run.rec.rate_between(0, degrade_start, SECOND);
        let degraded = run.rec.rate_between(degrade_start, degrade_end, SECOND);
        let recovered = run.rec.rate_between(degrade_end, total, SECOND);
        println!(
            "{:<6} warm={warm:>8.2}/s degraded={degraded:>8.2}/s recovered={recovered:>8.2}/s",
            run.label
        );
        if let Some(m) = run.s.db.ssd_metrics() {
            let f = run.s.db.io().ssd_fault().expect("plan attached");
            println!(
                "       throttled_reads={} throttled_admissions={} slowdowns={}",
                m.throttled_reads,
                m.throttled_admissions,
                f.stats().brownout_slowdowns
            );
        }
        if std::env::var_os("TURBO_SERIES").is_some() {
            println!("       series: {:?}", run.rec.series_per_minute());
        }
        rates.push((run.label.clone(), degraded));
    }

    // Acceptance: the paper designs keep >= 2x noSSD throughput even
    // while their SSD is browned out (the throttle carries the stalls).
    let no_ssd = rates
        .iter()
        .find(|(l, _)| l == "noSSD")
        .map(|(_, r)| *r)
        .expect("noSSD domain present");
    assert!(no_ssd > 0.0, "noSSD made no progress");
    for (label, degraded) in &rates {
        if matches!(label.as_str(), "CW" | "DW" | "LC") {
            assert!(
                *degraded >= 2.0 * no_ssd,
                "{label} degraded throughput {degraded:.1}/s is below 2x noSSD ({no_ssd:.1}/s)"
            );
        }
    }
    println!("all of CW/DW/LC held >= 2x noSSD through the brownout");
    for (domain, run) in runs.iter().enumerate() {
        let steps = driver.steps_in(domain);
        print_digest(&run.label, DbStats::of(&run.s.db).digest(steps));
    }
    timer.print_timing("brownout", driver.steps());
}
