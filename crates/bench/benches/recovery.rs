//! Recovery hardening — restart cost and crash-schedule coverage.
//!
//! Three experiments on the engine's recovery path:
//!
//! 1. **Redo cost vs log length.** Sharp checkpoints bound recovery work
//!    by the post-checkpoint log suffix; this measures recovery time
//!    (virtual and host) as the number of committed transactions since the
//!    last checkpoint grows. Redo writes each page once, so the last row —
//!    ten updates to every row of the table — costs what the distinct
//!    pages cost, not what the records would.
//! 2. **Warm vs cold re-adoption.** The checkpoint-embedded SSD table
//!    makes restart re-adoption nearly free compared to re-warming
//!    through misses; this reports the probe/import accounting.
//! 3. **Crash-schedule coverage.** The exhaustive explorer enumerates
//!    every durable-write boundary of a seeded trace per design and
//!    verifies recovery at each; the counts here are the proof of
//!    coverage (every device kind must contribute boundaries).

use turbopool_bench::{BenchReport, Table, WallTimer};
use turbopool_core::{SsdConfig, SsdDesign};
use turbopool_engine::{explore, Database, DbConfig, ExplorerConfig};
use turbopool_iosim::Clk;

fn build(warm: bool) -> Database {
    let mut cfg = DbConfig::small_for_tests();
    cfg.pool.db_pages = 4096;
    cfg.pool.frames = 24;
    let mut s = SsdConfig::new(SsdDesign::LazyCleaning, 256);
    s.partitions = 4;
    s.lambda = 0.5;
    s.warm_restart = warm;
    cfg.ssd = Some(s);
    Database::open(cfg)
}

fn load(db: &Database, clk: &mut Clk, n: u64) -> usize {
    let h = db.create_heap(clk, "t", 64, 2048);
    for i in 0..n {
        let mut txn = db.begin(clk);
        let mut rec = [0u8; 64];
        rec[..8].copy_from_slice(&i.to_le_bytes());
        txn.heap_insert(h, &rec).unwrap();
        txn.commit();
    }
    h
}

struct RedoCost {
    virtual_ns: u64,
    host_ms: f64,
    records_scanned: u64,
    writes_applied: u64,
    pages_written: u64,
}

/// Commit `txns` single-record updates after a checkpoint, crash, and
/// recover.
fn redo_cost(txns: u64) -> RedoCost {
    let db = build(false);
    let mut clk = Clk::new();
    let h = load(&db, &mut clk, 2_000);
    db.checkpoint(&mut clk);
    for i in 0..txns {
        let mut txn = db.begin(&mut clk);
        let rid = i % 2_000;
        if let Some(mut rec) = txn.heap_get(h, rid) {
            rec[8] = rec[8].wrapping_add(1);
            txn.heap_update(h, rid, &rec);
        }
        txn.commit();
    }
    let image = db.crash();
    let host = WallTimer::start();
    let (_, report) = Database::try_recover(image).expect("healthy disk tier");
    RedoCost {
        virtual_ns: report.duration,
        host_ms: host.secs() * 1e3,
        records_scanned: report.stats.records_scanned as u64,
        writes_applied: report.stats.writes_applied as u64,
        pages_written: report.stats.pages_written as u64,
    }
}

/// Fill the SSD, checkpoint, crash, recover; returns the import report's
/// (attempted, imported, rejected_stale, rejected_checksum).
fn readoption(warm: bool) -> (u64, u64, u64, u64) {
    let db = build(warm);
    let mut clk = Clk::new();
    let h = load(&db, &mut clk, 3_000);
    let mut txn = db.begin(&mut clk);
    for i in (0..3_000u64).step_by(3) {
        txn.heap_get(h, i);
    }
    txn.commit();
    db.checkpoint(&mut clk);
    let (_, report) = Database::try_recover(db.crash()).expect("healthy disk tier");
    match report.warm {
        Some(w) => (
            w.attempted as u64,
            w.imported as u64,
            w.rejected_stale as u64,
            w.rejected_checksum as u64,
        ),
        None => (0, 0, 0, 0),
    }
}

fn main() {
    let timer = WallTimer::start();
    let quick = turbopool_bench::quick();
    println!("== Recovery hardening: restart cost and crash coverage ==\n");

    // 1. Redo cost follows the distinct pages of the post-checkpoint
    // suffix. The last point is log-heavy: every one of the 2,000 rows
    // updated ten times over.
    let mut redo = Table::new(vec![
        "txns since ckpt",
        "recovery (virtual ms)",
        "recovery (host ms)",
        "records scanned",
        "writes applied",
        "pages written",
    ]);
    let points: &[u64] = if quick {
        &[0, 200, 800, 20_000]
    } else {
        &[0, 200, 800, 3_200, 20_000]
    };
    let mut redo_rows = Vec::new();
    for &txns in points {
        let cost = redo_cost(txns);
        redo.row(vec![
            format!("{txns}"),
            format!("{:.3}", cost.virtual_ns as f64 / 1e6),
            format!("{:.3}", cost.host_ms),
            format!("{}", cost.records_scanned),
            format!("{}", cost.writes_applied),
            format!("{}", cost.pages_written),
        ]);
        redo_rows.push((txns, cost));
    }
    redo.print();
    println!();

    // 2. Warm vs cold re-adoption accounting.
    let mut adopt = Table::new(vec![
        "restart",
        "attempted",
        "imported",
        "rejected stale",
        "rejected checksum",
    ]);
    let (cold_att, cold_imp, _, _) = readoption(false);
    let (att, imp, stale, bad) = readoption(true);
    adopt.row(vec![
        "cold (paper)".to_string(),
        format!("{cold_att}"),
        format!("{cold_imp}"),
        "-".to_string(),
        "-".to_string(),
    ]);
    adopt.row(vec![
        "warm (extension)".to_string(),
        format!("{att}"),
        format!("{imp}"),
        format!("{stale}"),
        format!("{bad}"),
    ]);
    adopt.print();
    println!();

    // 3. Exhaustive crash-schedule coverage per design.
    let mut cov = Table::new(vec![
        "design",
        "boundaries",
        "disk",
        "ssd",
        "log",
        "schedules",
        "2x-crash hit",
    ]);
    let designs: &[(&str, Option<SsdDesign>)] = &[
        ("noSSD", None),
        ("CW", Some(SsdDesign::CleanWrite)),
        ("DW", Some(SsdDesign::DualWrite)),
        ("LC", Some(SsdDesign::LazyCleaning)),
        ("TAC", Some(SsdDesign::Tac)),
    ];
    let mut total_boundaries = 0u64;
    let mut total_schedules = 0u64;
    let mut counts = (0u64, 0u64, 0u64);
    for &(name, design) in designs {
        let ssd = design.map(|d| {
            let mut s = SsdConfig::new(d, 32);
            s.partitions = 2;
            s.lambda = 0.5;
            s.warm_restart = true;
            s
        });
        let mut cfg = ExplorerConfig::new(ssd);
        // Trace length stays at 40 even in quick mode: shorter traces do
        // not re-read enough evicted pages for TAC to admit anything, so
        // its SSD boundary count would read as zero coverage.
        cfg.ops = 40;
        cfg.checkpoint_every = 8;
        cfg.cut_stride = if quick { 3 } else { 1 };
        cfg.double_crash_stride = 6;
        let out = explore(&cfg);
        cov.row(vec![
            name.to_string(),
            format!("{}", out.boundaries),
            format!("{}", out.counts.disk_pages),
            format!("{}", out.counts.ssd_frames),
            format!("{}", out.counts.log_flushes),
            format!("{}", out.schedules_run),
            format!("{}", out.double_crash_interrupted),
        ]);
        total_boundaries += out.boundaries;
        total_schedules += out.schedules_run;
        counts.0 += out.counts.disk_pages;
        counts.1 += out.counts.ssd_frames;
        counts.2 += out.counts.log_flushes;
    }
    cov.print();
    println!("\nRecovery time follows the distinct pages of the post-checkpoint");
    println!("suffix (one read and one write each), not its record count; the");
    println!("warm restart re-adopts the SSD working set for the cost of one probe");
    println!("read per frame. Every design's crash sweep covers all three durable");
    println!("write kinds, including schedules that crash recovery itself.");

    let mut report = BenchReport::new("recovery");
    let last_virtual_ns = redo_rows.last().map_or(0, |(_, cost)| cost.virtual_ns);
    report.standard(timer.secs(), last_virtual_ns, 0);
    for (txns, cost) in &redo_rows {
        report.int(&format!("redo_{txns}_virtual_ns"), cost.virtual_ns);
        report.num(&format!("redo_{txns}_host_ms"), cost.host_ms);
        report.int(
            &format!("redo_{txns}_records_scanned"),
            cost.records_scanned,
        );
        report.int(&format!("redo_{txns}_writes_applied"), cost.writes_applied);
        report.int(&format!("redo_{txns}_pages_written"), cost.pages_written);
    }
    report
        .int("warm_attempted", att)
        .int("warm_imported", imp)
        .int("warm_rejected_stale", stale)
        .int("warm_rejected_checksum", bad)
        .int("cold_imported", cold_imp)
        .int("sweep_boundaries", total_boundaries)
        .int("sweep_schedules", total_schedules)
        .int("sweep_disk_page_boundaries", counts.0)
        .int("sweep_ssd_frame_boundaries", counts.1)
        .int("sweep_log_flush_boundaries", counts.2)
        .emit();
}
