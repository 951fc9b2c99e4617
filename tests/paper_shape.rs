//! End-to-end shape checks: shortened versions of the paper's headline
//! claims that must hold on every build.
//!
//! These run scaled-down/shortened configurations so the suite stays
//! fast; the full-length reproductions live in `crates/bench/benches/`.

use std::sync::Arc;

use turbopool::iosim::{HOUR, MINUTE};

/// Debug builds run the simulation ~20x slower than release; scale the
/// virtual durations down (the asserted shapes emerge well before the
/// full-length runs finish).
fn hours(h: u64) -> u64 {
    if cfg!(debug_assertions) {
        (h / 2).max(2)
    } else {
        h
    }
}
use turbopool::workload::driver::{CleanerClient, Driver, ThroughputRecorder};
use turbopool::workload::runs::run_tpch;
use turbopool::workload::scenario::Design;
use turbopool::workload::tpcc::Tpcc;

/// Run TPC-C for `hours` and return the last-hour NewOrder rate.
fn tpcc_rate(design: Design, hours: u64) -> f64 {
    let t = Arc::new(Tpcc::setup_opt(design, 8, 0.5, 40));
    let rec = ThroughputRecorder::new(6 * MINUTE);
    let mut d = Driver::new();
    for c in 0..16 {
        d.add(0, Box::new(t.client(c, Arc::clone(&rec))));
    }
    if let Some(cleaner) = CleanerClient::for_db(&t.db) {
        d.add(0, Box::new(cleaner));
    }
    let dur = hours * HOUR;
    d.run_until(dur);
    rec.rate_between(dur - HOUR, dur, MINUTE)
}

#[test]
fn tpcc_lc_beats_dw_beats_nossd() {
    // Figure 5 (a-c) ordering: LC >> DW > noSSD on update-heavy TPC-C.
    let nossd = tpcc_rate(Design::NoSsd, hours(6));
    let dw = tpcc_rate(Design::Dw, hours(6));
    let lc = tpcc_rate(Design::Lc, hours(6));
    assert!(
        lc > 2.0 * nossd,
        "LC must be a multiple of noSSD: lc={lc:.2} nossd={nossd:.2}"
    );
    assert!(
        lc > 1.5 * dw,
        "write-back must beat write-through on TPC-C: lc={lc:.2} dw={dw:.2}"
    );
    assert!(
        dw > nossd,
        "even write-through beats no SSD: dw={dw:.2} nossd={nossd:.2}"
    );
}

#[test]
fn tpcc_is_update_intensive_and_skewed() {
    // §4.2: the workload properties the LC advantage relies on.
    let t = Arc::new(Tpcc::setup_opt(Design::Lc, 4, 0.9, 60));
    let rec = ThroughputRecorder::new(6 * MINUTE);
    let mut d = Driver::new();
    for c in 0..8 {
        d.add(0, Box::new(t.client(c, Arc::clone(&rec))));
    }
    d.run_until(hours(4) * HOUR);
    let m = t.db.ssd_metrics().unwrap();
    // A large share of SSD hits land on dirty pages (paper: ~83% at 2K).
    assert!(
        m.dirty_hit_fraction() > 0.3,
        "dirty-hit fraction too low: {:.2}",
        m.dirty_hit_fraction()
    );
    let pool = t.db.pool_stats();
    assert!(
        pool.evictions_dirty as f64 > 0.2 * pool.evictions_clean as f64,
        "update intensity missing: {pool:?}"
    );
}

#[test]
fn tpch_designs_are_similar_and_beat_nossd() {
    // Figure 5 (g,h): read-dominated DSS — all SSD designs close together.
    let runs = run_tpch(25, 2, &[Design::NoSsd, Design::Dw, Design::Lc]);
    let qphh: Vec<f64> = runs.iter().map(|r| r.qphh).collect();
    let (nossd, dw, lc) = (qphh[0], qphh[1], qphh[2]);
    assert!(dw > 1.5 * nossd, "dw={dw:.0} nossd={nossd:.0}");
    assert!(lc > 1.5 * nossd, "lc={lc:.0} nossd={nossd:.0}");
    let ratio = dw / lc;
    assert!(
        (0.6..1.6).contains(&ratio),
        "DW and LC should be similar on read-heavy DSS: {ratio:.2}"
    );
}

#[test]
fn lc_cleaner_kicks_in_at_lambda() {
    // Figure 6 mechanism: dirty pages accumulate to λ·S, then the cleaner
    // holds them there.
    let t = Arc::new(Tpcc::setup_opt(Design::Lc, 4, 0.05, 60));
    let mgr = Arc::clone(t.db.ssd_manager().unwrap());
    let high = mgr.config().dirty_high_water();
    let rec = ThroughputRecorder::new(6 * MINUTE);
    let mut d = Driver::new();
    for c in 0..8 {
        d.add(0, Box::new(t.client(c, Arc::clone(&rec))));
    }
    d.add(0, Box::new(CleanerClient::for_db(&t.db).unwrap()));
    d.run_until(hours(6) * HOUR);
    let m = t.db.ssd_metrics().unwrap();
    assert!(m.cleaned_pages > 0, "cleaner never ran");
    // The dirty count is held near/below the high-water mark (small
    // overshoot allowed for in-flight work).
    assert!(
        mgr.dirty_count() <= high + high / 5,
        "dirty {} way above λ·S = {high}",
        mgr.dirty_count()
    );
}
